"""Collect-mode generation: failure isolation, cause chains, cache hygiene."""

import pytest

import repro.xsdgen.bie_library
import repro.xsdgen.qdt_library
from repro.ccts.derivation import derive_abie
from repro.ccts.model import CctsModel
from repro.errors import GenerationError
from repro.xsdgen import (
    GenerationCache,
    GenerationOptions,
    LibraryFailure,
    SchemaGenerator,
    get_generation_cache,
    set_generation_cache,
)


@pytest.fixture
def broken_qdt(monkeypatch):
    """Sabotage the QDTLibrary builder so every QDT build raises."""

    def explode(builder):
        raise GenerationError("sabotaged QDT build")

    monkeypatch.setattr(repro.xsdgen.qdt_library, "build", explode)


@pytest.fixture
def fresh_cache():
    previous = get_generation_cache()
    cache = GenerationCache()
    set_generation_cache(cache)
    yield cache
    set_generation_cache(previous)


def collect_generator(model, **overrides):
    options = GenerationOptions(on_error="collect", **overrides)
    return SchemaGenerator(model, options)


def _schema_texts(result):
    return {urn: generated.to_string() for urn, generated in result.schemas.items()}


def _cyclic_model():
    """Two BIE libraries importing each other (L1 <-> L2) over a CDT library."""
    model = CctsModel("Cyclic")
    business = model.add_business_library("B", "urn:cyc")
    prims = business.add_prim_library("P")
    string = prims.add_primitive("String")
    cdts = business.add_cdt_library("D")
    text = cdts.add_cdt("Text")
    text.set_content(string.element)
    ccs = business.add_cc_library("C")
    a_acc = ccs.add_acc("A")
    a_acc.add_bcc("Name", text, "0..1")
    b_acc = ccs.add_acc("B")
    b_acc.add_bcc("Name", text, "0..1")
    a_acc.add_ascc("Linked", b_acc, "0..1")
    b_acc.add_ascc("Back", a_acc, "0..1")
    lib1 = business.add_bie_library("L1")
    lib2 = business.add_bie_library("L2")
    a = derive_abie(lib1, a_acc)
    a.include("Name", "0..1")
    b = derive_abie(lib2, b_acc)
    b.include("Name", "0..1")
    a.connect("Linked", b.abie, "0..1", based_on="Linked")
    b.connect("Back", a.abie, "0..1", based_on="Back")
    return model, lib1


class TestOnErrorOption:
    def test_raise_is_the_default(self):
        assert GenerationOptions().on_error == "raise"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            GenerationOptions(on_error="ignore")

    def test_raise_mode_propagates_first_failure(self, easybiz, broken_qdt):
        generator = SchemaGenerator(easybiz.model, GenerationOptions())
        with pytest.raises(GenerationError, match="sabotaged QDT build"):
            generator.generate(easybiz.doc_library, root="HoardingPermit")


class TestCollectIsolation:
    def test_independent_libraries_still_build(self, easybiz, broken_qdt):
        generator = collect_generator(easybiz.model)
        result = generator.generate(easybiz.doc_library, root="HoardingPermit")
        assert not result.ok
        built = {schema.library.name for schema in result.schemas.values()}
        # CDT and ENUM libraries do not import the QDT library, so they
        # must still be generated; everything importing QDTs must not be.
        assert "coredatatypes" in built
        assert "EnumerationTypes" in built
        assert "CommonDataTypes" not in built
        assert "EB005-HoardingPermit" not in built

    def test_every_failure_is_recorded(self, easybiz, broken_qdt):
        generator = collect_generator(easybiz.model)
        result = generator.generate(easybiz.doc_library, root="HoardingPermit")
        failed = {failure.library_name for failure in result.errors}
        assert "CommonDataTypes" in failed
        assert "EB005-HoardingPermit" in failed
        for failure in result.errors:
            assert isinstance(failure, LibraryFailure)
            assert failure.stereotype
            assert failure.root_name is None or isinstance(failure.root_name, str)

    def test_importer_failure_names_the_culprit(self, easybiz, broken_qdt):
        generator = collect_generator(easybiz.model)
        result = generator.generate(easybiz.doc_library, root="HoardingPermit")
        by_name = {failure.library_name: failure for failure in result.errors}
        original = by_name["CommonDataTypes"]
        assert "sabotaged QDT build" in str(original.error)
        dependent = by_name["EB005-HoardingPermit"]
        assert "CommonDataTypes" in str(dependent.error)
        assert "sabotaged QDT build" in str(dependent.cause_chain[-1])

    def test_root_property_raises_when_root_failed(self, easybiz, broken_qdt):
        generator = collect_generator(easybiz.model)
        result = generator.generate(easybiz.doc_library, root="HoardingPermit")
        assert result.root_namespace is None
        with pytest.raises(GenerationError, match="requested library failed"):
            result.root

    def test_collect_without_failures_matches_raise_mode(self, easybiz):
        plain = SchemaGenerator(easybiz.model, GenerationOptions()).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        collected = collect_generator(easybiz.model).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert collected.ok
        assert collected.errors == []
        assert set(collected.schemas) == set(plain.schemas)
        assert collected.root.to_string() == plain.root.to_string()

    def test_cyclic_libraries_match_raise_mode(self):
        # The prebuild condenses the L1 <-> L2 import cycle into one
        # strongly connected component; its output must equal the plain
        # recursive build's.
        model, lib1 = _cyclic_model()
        plain = SchemaGenerator(model).generate(lib1)
        model2, lib1_again = _cyclic_model()
        collected = collect_generator(model2).generate(lib1_again)
        assert collected.errors == []
        assert _schema_texts(collected) == _schema_texts(plain)
        assert len(collected.schemas) == 3

    def test_cycle_member_failure_withdraws_the_cycle(self, monkeypatch):
        # A failing member of an import cycle takes its partner with it
        # (the partner's schema would import a schema that does not
        # exist); the CDT library outside the cycle still builds.
        real_build = repro.xsdgen.bie_library.build

        def explode_on_l2(builder):
            if builder.library.name == "L2":
                raise GenerationError("sabotaged L2 build")
            real_build(builder)

        monkeypatch.setattr(repro.xsdgen.bie_library, "build", explode_on_l2)
        model, lib1 = _cyclic_model()
        result = collect_generator(model).generate(lib1)
        assert {failure.library_name for failure in result.errors} == {"L1", "L2"}
        assert {schema.library.name for schema in result.schemas.values()} == {"D"}

    def test_generator_recovers_once_fault_is_fixed(self, easybiz, monkeypatch):
        def explode(builder):
            raise GenerationError("sabotaged QDT build")

        real_build = repro.xsdgen.qdt_library.build
        generator = collect_generator(easybiz.model)
        monkeypatch.setattr(repro.xsdgen.qdt_library, "build", explode)
        first = generator.generate(easybiz.doc_library, root="HoardingPermit")
        assert not first.ok
        monkeypatch.setattr(repro.xsdgen.qdt_library, "build", real_build)
        second = generator.generate(easybiz.doc_library, root="HoardingPermit")
        assert second.ok
        assert second.root_namespace is not None

    def test_failure_counter_labeled_by_stereotype(self, easybiz, broken_qdt):
        import repro.obs as obs

        obs.configure(trace=False, reset_metrics=True)
        collect_generator(easybiz.model).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        snapshot = obs.get_metrics().render_json()
        assert "xsdgen.library_failures" in snapshot


class TestCacheHygiene:
    def test_failed_builds_never_reach_the_cache(self, easybiz, broken_qdt, fresh_cache):
        generator = collect_generator(easybiz.model, use_cache=True)
        result = generator.generate(easybiz.doc_library, root="HoardingPermit")
        assert not result.ok
        assert len(fresh_cache) == len(result.schemas)

    def test_successful_builds_are_cached(self, easybiz, fresh_cache):
        generator = collect_generator(easybiz.model, use_cache=True)
        result = generator.generate(easybiz.doc_library, root="HoardingPermit")
        assert result.ok
        assert len(fresh_cache) == len(result.schemas)


class TestLibraryFailure:
    def test_str_includes_cause_chain(self):
        root = ValueError("root cause")
        try:
            raise GenerationError("outer failure") from root
        except GenerationError as error:
            failure = LibraryFailure("Lib", "QDTLibrary", None, error)
        text = str(failure)
        assert "outer failure" in text
        assert "root cause" in text
        assert [str(cause) for cause in failure.cause_chain] == [
            "outer failure",
            "root cause",
        ]
