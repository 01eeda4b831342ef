"""The compiled validator and the batch validation pipeline (ISSUE 7).

Two contracts under test:

* equivalence -- :class:`CompiledSchemaSet` produces exactly the problem
  list ``validate_instance`` produces, on valid, mutated and malformed
  documents of both catalog corpora (property-based over generator and
  mutation parameters);
* the pipeline -- corpus discovery, per-document fault isolation,
  byte-identical reports across engines, fail-fast, the nesting-depth
  limit, compilation caching and the CLI surface.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.easybiz import build_easybiz_model
from repro.catalog.ecommerce import build_ecommerce_model
from repro.instances import (
    InstanceGenerator,
    ValidationPipeline,
    add_unknown_attribute,
    add_unknown_child,
    corrupt_enumeration_value,
    discover_corpus,
    drop_required_attribute,
    drop_required_child,
)
from repro.errors import InstanceValidationError
from repro.instances.pipeline import BatchReport, DocumentReport
from repro.xmlutil.writer import XmlWriter
from repro.xsd.parser import parse_schema
from repro.xsd.validator import MAX_INSTANCE_DEPTH, SchemaSet
from repro.xsd import (
    CompilationCache,
    CompiledSchemaSet,
    compile_schema_set,
    fingerprint_schema_set,
    get_compilation_cache,
    set_compilation_cache,
    validate_instance,
)
from repro.xsdgen import GenerationOptions, SchemaGenerator

ROOTS = {
    "easybiz": ("HoardingPermit", build_easybiz_model),
    "ecommerce": ("PurchaseOrder", build_ecommerce_model),
}

_MUTATIONS = [
    None,
    add_unknown_child,
    add_unknown_attribute,
    lambda root: corrupt_enumeration_value(root, "CountryName"),
    lambda root: drop_required_child(root, "IncludedRegistration"),
    lambda root: drop_required_attribute(root, "listAgencyID"),
]


@pytest.fixture(scope="module")
def corpora():
    """(schema_set, root_name) per catalog, built once for the module."""
    built = {}
    for name, (root, builder) in ROOTS.items():
        catalog = builder()
        result = SchemaGenerator(catalog.model, GenerationOptions()).generate(
            catalog.doc_library, root=root
        )
        built[name] = (result.schema_set(), root)
    return built


# -- compiled == interpreted equivalence ---------------------------------------


class TestCompiledEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        catalog=st.sampled_from(sorted(ROOTS)),
        fill_optional=st.booleans(),
        repeat_unbounded=st.integers(min_value=1, max_value=3),
        mutation=st.sampled_from(range(len(_MUTATIONS))),
    )
    def test_problem_lists_identical(
        self, corpora, catalog, fill_optional, repeat_unbounded, mutation
    ):
        """Same problems, same order, on valid and corrupted documents."""
        schema_set, root = corpora[catalog]
        compiled = compile_schema_set(schema_set)
        generator = InstanceGenerator(
            schema_set,
            fill_optional=fill_optional,
            repeat_unbounded=repeat_unbounded,
        )
        document = generator.generate(root)
        mutate = _MUTATIONS[mutation]
        if mutate is not None:
            mutate(document)
        text = XmlWriter().to_string(document)
        assert compiled.validate(text) == validate_instance(schema_set, text)

    @pytest.mark.parametrize(
        "document",
        [
            "<a><b></a>",
            "",
            "not xml at all",
            "<x:a/>",
            '<a xmlns="urn:nowhere"/>',
            "<a>text</a>",
        ],
    )
    def test_error_paths_identical(self, corpora, document):
        """Malformed and undeclared documents fail identically."""
        schema_set, _ = corpora["easybiz"]
        compiled = compile_schema_set(schema_set)

        def outcome(validate):
            try:
                return ("ok", validate())
            except InstanceValidationError as error:
                return ("error", str(error))

        assert outcome(lambda: compiled.validate(document)) == outcome(
            lambda: validate_instance(schema_set, document)
        )

    def test_accepts_xml_element_input(self, corpora):
        """The compiled engine also validates in-memory XmlElement trees."""
        schema_set, root = corpora["easybiz"]
        compiled = compile_schema_set(schema_set)
        document = InstanceGenerator(schema_set).generate(root)
        assert compiled.validate(document) == []
        drop_required_child(document, "IncludedRegistration")
        assert compiled.validate(document) == validate_instance(schema_set, document)


# -- fingerprints and the compilation cache ------------------------------------


class TestCompilationCache:
    def test_fingerprint_is_stable(self, corpora):
        schema_set, _ = corpora["easybiz"]
        assert fingerprint_schema_set(schema_set) == fingerprint_schema_set(schema_set)

    def test_fingerprint_distinguishes_schema_sets(self, corpora):
        easybiz_set, _ = corpora["easybiz"]
        ecommerce_set, _ = corpora["ecommerce"]
        assert fingerprint_schema_set(easybiz_set) != fingerprint_schema_set(
            ecommerce_set
        )

    def test_cache_hit_returns_same_compiled_instance(self, corpora):
        schema_set, _ = corpora["easybiz"]
        cache = CompilationCache(max_entries=4)
        first = compile_schema_set(schema_set, cache)
        second = compile_schema_set(schema_set, cache)
        assert first is second
        assert len(cache) == 1

    def test_cache_evicts_least_recently_used(self, corpora):
        easybiz_set, _ = corpora["easybiz"]
        ecommerce_set, _ = corpora["ecommerce"]
        cache = CompilationCache(max_entries=1)
        first = compile_schema_set(easybiz_set, cache)
        compile_schema_set(ecommerce_set, cache)
        assert len(cache) == 1
        assert compile_schema_set(easybiz_set, cache) is not first

    def test_default_cache_is_process_wide(self, corpora):
        schema_set, _ = corpora["easybiz"]
        previous = set_compilation_cache(CompilationCache())
        try:
            assert compile_schema_set(schema_set) is compile_schema_set(schema_set)
            assert len(get_compilation_cache()) == 1
        finally:
            set_compilation_cache(previous)


# -- corpus discovery ----------------------------------------------------------


class TestDiscoverCorpus:
    def test_directory_is_recursive_and_sorted(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "b.xml").write_text("<b/>", encoding="utf-8")
        (tmp_path / "a.xml").write_text("<a/>", encoding="utf-8")
        (tmp_path / "sub" / "c.xml").write_text("<c/>", encoding="utf-8")
        (tmp_path / "notes.txt").write_text("not xml", encoding="utf-8")
        found = discover_corpus(tmp_path)
        assert [path.name for path in found] == ["a.xml", "b.xml", "c.xml"]

    def test_single_xml_file(self, tmp_path):
        doc = tmp_path / "only.xml"
        doc.write_text("<only/>", encoding="utf-8")
        assert discover_corpus(doc) == [doc]

    def test_manifest_resolves_relative_paths_and_comments(self, tmp_path):
        (tmp_path / "one.xml").write_text("<one/>", encoding="utf-8")
        (tmp_path / "two.xml").write_text("<two/>", encoding="utf-8")
        manifest = tmp_path / "corpus.lst"
        manifest.write_text(
            "# a comment\none.xml\n\ntwo.xml\n", encoding="utf-8"
        )
        found = discover_corpus(manifest)
        assert [path.name for path in found] == ["one.xml", "two.xml"]
        assert all(path.is_absolute() for path in found)

    def test_missing_corpus_raises(self, tmp_path):
        with pytest.raises(InstanceValidationError, match="corpus not found"):
            discover_corpus(tmp_path / "nope")


# -- the pipeline --------------------------------------------------------------


def _write_corpus(schema_set, root, directory, count=8, invalid_every=4):
    writer = XmlWriter()
    for index in range(count):
        generator = InstanceGenerator(
            schema_set,
            fill_optional=(index % 2 == 0),
            repeat_unbounded=1 + index % 3,
        )
        document = generator.generate(root)
        if index % invalid_every == invalid_every - 1:
            add_unknown_child(document)
        (directory / f"doc{index:03d}.xml").write_text(
            writer.to_string(document), encoding="utf-8"
        )


class TestValidationPipeline:
    def test_reports_byte_identical_across_engines(self, corpora, tmp_path):
        schema_set, root = corpora["easybiz"]
        _write_corpus(schema_set, root, tmp_path)
        serialized = {
            json.dumps(
                ValidationPipeline(schema_set, engine=engine).run(tmp_path).to_json(),
                sort_keys=True,
            )
            for engine in ("compiled", "interpreted")
        }
        assert len(serialized) == 1

    def test_fault_isolation_never_aborts_the_batch(self, corpora, tmp_path):
        schema_set, root = corpora["easybiz"]
        _write_corpus(schema_set, root, tmp_path, count=3, invalid_every=100)
        (tmp_path / "malformed.xml").write_text("<a><b></a>", encoding="utf-8")
        manifest = tmp_path / "all.lst"
        manifest.write_text(
            "\n".join(
                [path.name for path in sorted(tmp_path.glob("*.xml"))]
                + ["missing.xml"]
            ),
            encoding="utf-8",
        )
        report = ValidationPipeline(schema_set).run(manifest)
        assert report.docs_total == 5
        by_name = {doc.path.rsplit("/", 1)[-1]: doc for doc in report.documents}
        assert by_name["malformed.xml"].error is not None
        assert "not well-formed" in by_name["malformed.xml"].error
        assert by_name["missing.xml"].error is not None
        assert report.docs_invalid == 2

    def test_fail_fast_stops_at_first_invalid(self, corpora, tmp_path):
        schema_set, root = corpora["easybiz"]
        _write_corpus(schema_set, root, tmp_path, count=6, invalid_every=3)
        report = ValidationPipeline(schema_set, fail_fast=True).run(tmp_path)
        # doc002 is the first invalid one; nothing after it was validated.
        assert [doc.path.rsplit("/", 1)[-1] for doc in report.documents] == [
            "doc000.xml",
            "doc001.xml",
            "doc002.xml",
        ]
        assert not report.documents[-1].ok

    def test_report_shape(self, corpora, tmp_path):
        schema_set, root = corpora["easybiz"]
        _write_corpus(schema_set, root, tmp_path, count=2, invalid_every=2)
        report = ValidationPipeline(schema_set).run(tmp_path)
        assert isinstance(report, BatchReport)
        assert all(isinstance(doc, DocumentReport) for doc in report.documents)
        payload = report.to_json()
        assert set(payload) == {"docs_total", "docs_invalid", "documents"}
        assert payload["docs_total"] == 2
        assert payload["docs_invalid"] == 1
        invalid = payload["documents"][1]
        assert invalid["ok"] is False
        assert invalid["problems"], "expected located problems in the JSON report"
        text = report.to_text()
        assert "INVALID" in text and "2 document(s), 1 invalid" in text

    def test_unknown_engine_rejected(self, corpora):
        schema_set, _ = corpora["easybiz"]
        with pytest.raises(ValueError, match="unknown engine"):
            ValidationPipeline(schema_set, engine="quantum")

    def test_metrics_recorded(self, corpora, tmp_path):
        from repro.obs.metrics import MetricsRegistry, set_registry

        schema_set, root = corpora["easybiz"]
        _write_corpus(schema_set, root, tmp_path, count=4, invalid_every=4)
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            ValidationPipeline(schema_set).run(tmp_path)
        finally:
            set_registry(previous)
        snapshot = fresh.snapshot()
        assert snapshot["instances.docs_total"] == 4
        assert snapshot["instances.docs_invalid"] == 1
        assert snapshot["instances.validate_ms"]["count"] == 4


# -- the nesting-depth limit ---------------------------------------------------

_NEST_NS = "urn:test:nest"

#: A directly recursive type: <a> may hold one <a>, so any depth is valid
#: and validation itself recurses once per level in both engines.
_NEST_SCHEMA = f"""<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema" xmlns:t="{_NEST_NS}"
    targetNamespace="{_NEST_NS}" elementFormDefault="qualified">
  <xs:element name="a" type="t:AType"/>
  <xs:complexType name="AType">
    <xs:sequence><xs:element ref="t:a" minOccurs="0"/></xs:sequence>
  </xs:complexType>
</xs:schema>
"""


_EASYBIZ_DOC_NS = "urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit"


def _nested(levels, tag="HoardingPermit", namespace=_EASYBIZ_DOC_NS):
    """``levels`` elements deep: the root start tag alone on line 1, then
    ``<a>`` elements nested on line 2."""
    inner = levels - 1
    return f'<{tag} xmlns="{namespace}">\n' + "<a>" * inner + "</a>" * inner + f"</{tag}>"


class TestNestingDepthLimit:
    """Documents nested past MAX_INSTANCE_DEPTH get one located error entry
    in either engine; the rest of the batch still validates."""

    @pytest.mark.parametrize("engine", ["compiled", "interpreted"])
    @pytest.mark.parametrize("levels", [255, 256, 257, 500])
    def test_one_entry_per_document(self, corpora, engine, levels):
        schema_set, root = corpora["easybiz"]
        valid = XmlWriter().to_string(InstanceGenerator(schema_set).generate(root))
        report = ValidationPipeline(schema_set, engine=engine).run_strings(
            [("deep.xml", _nested(levels)), ("valid.xml", valid)]
        )
        assert [doc.path for doc in report.documents] == ["deep.xml", "valid.xml"]
        deep, after = report.documents
        assert after.ok and after.error is None
        assert not deep.ok
        if levels <= MAX_INSTANCE_DEPTH:
            # Accepted by the parser; the schema then rejects the <a> child.
            assert deep.error is None and deep.problems
        else:
            # The first start tag past the limit: line 2, after 255 "<a>"s.
            column = 3 * (MAX_INSTANCE_DEPTH - 1) + 1
            assert deep.error == (
                f"document nests deeper than {MAX_INSTANCE_DEPTH} elements: "
                f"line 2, column {column}"
            )

    @pytest.mark.parametrize("levels", [255, 256, 257, 500])
    def test_engines_report_identically(self, corpora, levels):
        schema_set, _ = corpora["easybiz"]
        reports = {
            json.dumps(
                ValidationPipeline(schema_set, engine=engine)
                .run_strings([("deep.xml", _nested(levels))])
                .to_json()
            )
            for engine in ("compiled", "interpreted")
        }
        assert len(reports) == 1

    @pytest.mark.parametrize("engine", ["compiled", "interpreted"])
    def test_recursive_type_validates_at_the_limit(self, engine):
        schema_set = SchemaSet([parse_schema(_NEST_SCHEMA)])
        pipeline = ValidationPipeline(schema_set, engine=engine)
        report = pipeline.run_strings(
            [
                ("limit.xml", _nested(MAX_INSTANCE_DEPTH, "a", _NEST_NS)),
                ("past.xml", _nested(MAX_INSTANCE_DEPTH + 1, "a", _NEST_NS)),
            ]
        )
        limit, past = report.documents
        assert limit.ok, limit
        assert past.error and "nests deeper than" in past.error

    def test_direct_validation_raises_located_error(self, corpora):
        schema_set, _ = corpora["easybiz"]
        with pytest.raises(InstanceValidationError, match="line 2, column"):
            validate_instance(schema_set, _nested(MAX_INSTANCE_DEPTH + 1))
        with pytest.raises(InstanceValidationError, match="line 2, column"):
            compile_schema_set(schema_set).validate(_nested(MAX_INSTANCE_DEPTH + 1))


# -- the CLI surface -----------------------------------------------------------


class TestValidateInstancesCli:
    @pytest.fixture()
    def cli_fixture(self, corpora, easybiz_result, tmp_path):
        schema_set, root = corpora["easybiz"]
        schemas_dir = tmp_path / "schemas"
        easybiz_result.write_to(schemas_dir)
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        _write_corpus(schema_set, root, corpus_dir, count=4, invalid_every=100)
        return schemas_dir, corpus_dir

    def test_exit_zero_when_all_valid(self, cli_fixture, capsys):
        from repro.cli import main

        schemas_dir, corpus_dir = cli_fixture
        status = main(["validate-instances", str(schemas_dir), str(corpus_dir)])
        assert status == 0
        out = capsys.readouterr().out
        assert "4 document(s), 0 invalid" in out

    def test_exit_one_and_json_report_on_invalid(self, cli_fixture, capsys):
        from repro.cli import main

        schemas_dir, corpus_dir = cli_fixture
        (corpus_dir / "zz_bad.xml").write_text("<a><b></a>", encoding="utf-8")
        status = main(
            [
                "validate-instances",
                str(schemas_dir),
                str(corpus_dir),
                "--report",
                "json",
            ]
        )
        assert status == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["docs_total"] == 5
        assert payload["docs_invalid"] == 1
        assert payload["documents"][-1]["error"]

    def test_interpreted_engine_output_matches_compiled(self, cli_fixture, capsys):
        from repro.cli import main

        schemas_dir, corpus_dir = cli_fixture
        outputs = []
        for engine in ("compiled", "interpreted"):
            main(
                [
                    "validate-instances",
                    str(schemas_dir),
                    str(corpus_dir),
                    "--engine",
                    engine,
                    "--report",
                    "json",
                ]
            )
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
