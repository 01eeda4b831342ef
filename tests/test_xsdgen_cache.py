"""Unit tests for the generation cache: fingerprints, LRU, disk."""

import pytest

from repro.catalog.easybiz import build_easybiz_model
from repro.errors import GenerationError
from repro.xsdgen import (
    GenerationCache,
    GenerationOptions,
    SchemaGenerator,
    fingerprint_library,
    library_dependencies,
)


def _schema_texts(result):
    return {urn: generated.to_string() for urn, generated in result.schemas.items()}


class TestFingerprint:
    def test_stable_across_equivalent_models(self):
        first = build_easybiz_model()
        second = build_easybiz_model()
        options = GenerationOptions()
        for library in (first.doc_library, first.model.library_named("coredatatypes")):
            twin = second.model.library_named(library.name)
            assert fingerprint_library(first.model, library, options) == fingerprint_library(
                second.model, twin, options
            )

    def test_root_changes_fingerprint(self, easybiz):
        options = GenerationOptions()
        with_root = fingerprint_library(
            easybiz.model, easybiz.doc_library, options, root_name="HoardingPermit"
        )
        without = fingerprint_library(easybiz.model, easybiz.doc_library, options)
        assert with_root != without

    def test_options_change_fingerprint(self, easybiz):
        plain = fingerprint_library(easybiz.model, easybiz.doc_library, GenerationOptions())
        annotated = fingerprint_library(
            easybiz.model, easybiz.doc_library, GenerationOptions(annotated=True)
        )
        assert plain != annotated

    def test_own_mutation_invalidates(self, easybiz):
        options = GenerationOptions()
        before = fingerprint_library(easybiz.model, easybiz.doc_library, options)
        easybiz.hoarding_permit.element.documentation = "changed"
        after = fingerprint_library(easybiz.model, easybiz.doc_library, options)
        assert before != after

    def test_referenced_classifier_mutation_invalidates(self, easybiz):
        # DOC BBIEs type directly to the CDT 'Text'; editing that CDT must
        # invalidate the DOC fingerprint even though the DOC library's own
        # subtree is untouched.
        options = GenerationOptions()
        before = fingerprint_library(easybiz.model, easybiz.doc_library, options)
        text = easybiz.model.library_named("coredatatypes").cdt("Text")
        text.element.apply_stereotype("CDT", definition="edited")
        after = fingerprint_library(easybiz.model, easybiz.doc_library, options)
        assert before != after

    def test_unrelated_mutation_keeps_unrelated_fingerprint(self, easybiz):
        # Editing the DOC library must not change the ENUM library's print.
        options = GenerationOptions()
        enum_library = easybiz.model.library_named("EnumerationTypes")
        before = fingerprint_library(easybiz.model, enum_library, options)
        easybiz.hoarding_permit.element.documentation = "changed"
        after = fingerprint_library(easybiz.model, enum_library, options)
        assert before == after


class TestLibraryDependencies:
    def test_doc_dependencies_are_schema_capable(self, easybiz):
        deps = library_dependencies(easybiz.model, easybiz.doc_library)
        names = [library.name for library in deps]
        assert "CommonAggregates" in names
        stereotypes = {library.stereotype for library in deps}
        # basedOn reaches CC libraries and CON components reach PRIMs, but
        # neither generates a schema, so neither may appear as an import.
        assert "CCLibrary" not in stereotypes
        assert "PRIMLibrary" not in stereotypes

    def test_leaf_library_has_no_dependencies(self, easybiz):
        enum_library = easybiz.model.library_named("EnumerationTypes")
        assert library_dependencies(easybiz.model, enum_library) == []


class TestGenerationCache:
    def test_round_trip_and_hit(self, easybiz):
        cache = GenerationCache()
        options = GenerationOptions(use_cache=True)
        first = SchemaGenerator(easybiz.model, options, cache=cache).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert len(cache) == len(first.schemas)
        second = SchemaGenerator(easybiz.model, options, cache=cache).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert _schema_texts(second) == _schema_texts(first)
        assert any("Reusing cached schema" in line for line in second.session.messages)

    def test_cached_output_matches_uncached(self, easybiz):
        cache = GenerationCache()
        cached_options = GenerationOptions(use_cache=True)
        SchemaGenerator(easybiz.model, cached_options, cache=cache).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        warm = SchemaGenerator(easybiz.model, cached_options, cache=cache).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        cold = SchemaGenerator(easybiz.model).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert _schema_texts(warm) == _schema_texts(cold)

    def test_mutation_misses_instead_of_staleness(self, easybiz):
        cache = GenerationCache()
        options = GenerationOptions(use_cache=True)
        SchemaGenerator(easybiz.model, options, cache=cache).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        entries_before = set(cache.keys())
        easybiz.hoarding_permit.element.documentation = "now different"
        rerun = SchemaGenerator(easybiz.model, options, cache=cache).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        # The DOC schema was rebuilt under a new fingerprint; untouched
        # libraries still hit their old entries.
        assert not entries_before.issuperset(cache.keys())
        fresh = SchemaGenerator(easybiz.model).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert _schema_texts(rerun) == _schema_texts(fresh)

    def test_lru_eviction(self, easybiz):
        cache = GenerationCache(max_entries=2)
        options = GenerationOptions(use_cache=True)
        SchemaGenerator(easybiz.model, options, cache=cache).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert len(cache) == 2

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            GenerationCache(max_entries=0)


class TestDiskCache:
    def test_round_trip_between_cache_instances(self, easybiz, tmp_path):
        options = GenerationOptions(use_cache=True)
        writer = GenerationCache(cache_dir=tmp_path)
        first = SchemaGenerator(easybiz.model, options, cache=writer).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert list(tmp_path.glob("*.json"))
        # A second cache instance (a new process, in effect) starts with an
        # empty memory layer and loads every schema from disk.
        reader = GenerationCache(cache_dir=tmp_path)
        assert len(reader) == 0
        second = SchemaGenerator(easybiz.model, options, cache=reader).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert _schema_texts(second) == _schema_texts(first)
        assert any("Reusing cached schema" in line for line in second.session.messages)

    def test_corrupt_disk_entry_is_a_miss(self, easybiz, tmp_path):
        options = GenerationOptions(use_cache=True)
        writer = GenerationCache(cache_dir=tmp_path)
        first = SchemaGenerator(easybiz.model, options, cache=writer).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        for path in tmp_path.glob("*.json"):
            path.write_text("not json", encoding="utf-8")
        reader = GenerationCache(cache_dir=tmp_path)
        second = SchemaGenerator(easybiz.model, options, cache=reader).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        assert _schema_texts(second) == _schema_texts(first)

    def test_cache_dir_option_selects_disk_cache(self, easybiz, tmp_path):
        options = GenerationOptions(cache_dir=tmp_path / "cache")
        generator = SchemaGenerator(easybiz.model, options)
        generator.generate(easybiz.doc_library, root="HoardingPermit")
        assert list((tmp_path / "cache").glob("*.json"))

    def test_adopt_fails_when_dependency_vanishes(self, easybiz):
        # A cached entry naming a dependency the model no longer has is a
        # hard error, not a silent partial result.
        from dataclasses import replace

        options = GenerationOptions(use_cache=True)
        seed = GenerationCache()
        SchemaGenerator(easybiz.model, options, cache=seed).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        doctored = GenerationCache()
        for key in seed.keys():
            entry = seed.get(key)
            if entry.stereotype == "DOCLibrary":
                entry = replace(entry, dependencies=("NoSuchLibrary",))
            doctored.put(entry)
        with pytest.raises(GenerationError):
            SchemaGenerator(easybiz.model, options, cache=doctored).generate(
                easybiz.doc_library, root="HoardingPermit"
            )
