"""Concurrency guarantees of the shared instruments (lossless metrics),
prebuild span parenting, and tracing's zero effect on output."""

import threading

import pytest

import repro.obs as obs
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import Tracer, set_tracer
from repro.xsdgen import GenerationOptions, SchemaGenerator


@pytest.fixture
def fresh_obs():
    """Fresh global tracer + registry, tracing on; both restored after."""
    previous_tracer = set_tracer(Tracer(enabled=False))
    previous_registry = set_registry(MetricsRegistry())
    tracer = obs.configure(trace=True)
    try:
        yield tracer
    finally:
        set_tracer(previous_tracer)
        set_registry(previous_registry)


def _schema_texts(result):
    return {name: generated.to_string() for name, generated in result.schemas.items()}


def _hammer(worker, threads=8):
    """Run ``worker(index)`` on ``threads`` threads, all released at once."""
    barrier = threading.Barrier(threads)

    def run(index):
        barrier.wait()
        worker(index)

    pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()


class TestMetricsUnderContention:
    THREADS = 8
    ROUNDS = 2_000

    def test_counter_loses_no_increments(self):
        registry = MetricsRegistry()
        _hammer(
            lambda _: [registry.counter("hammered").inc() for _ in range(self.ROUNDS)],
            threads=self.THREADS,
        )
        assert registry.counter("hammered").value == self.THREADS * self.ROUNDS

    def test_histogram_loses_no_observations(self):
        registry = MetricsRegistry()
        _hammer(
            lambda i: [
                registry.histogram("hammered_ms").observe(float(i + 1))
                for _ in range(self.ROUNDS)
            ],
            threads=self.THREADS,
        )
        histogram = registry.histogram("hammered_ms")
        assert histogram.count == self.THREADS * self.ROUNDS
        assert histogram.min == 1.0
        assert histogram.max == float(self.THREADS)
        expected_sum = self.ROUNDS * sum(range(1, self.THREADS + 1))
        assert histogram.total == pytest.approx(expected_sum)

    def test_instrument_creation_race_yields_one_instrument(self):
        registry = MetricsRegistry()
        _hammer(lambda _: registry.counter("raced").inc(), threads=self.THREADS)
        assert registry.counter("raced").value == self.THREADS
        assert registry.snapshot()["raced"] == self.THREADS


class TestPrebuildSpanParenting:
    """Collect mode prebuilds the library graph under one ``xsdgen.prebuild``
    span; every library build span must hang off it."""

    def _generate(self, easybiz):
        options = GenerationOptions(validate_first=False, on_error="collect")
        return SchemaGenerator(easybiz.model, options).generate(
            easybiz.doc_library, root="HoardingPermit"
        )

    def test_library_spans_parent_under_prebuild(self, fresh_obs, easybiz):
        self._generate(easybiz)
        roots = list(fresh_obs.ring_buffer().roots)
        assert [root.name for root in roots] == ["xsdgen.generate"]
        tree = roots[0]
        prebuild_spans = tree.find("xsdgen.prebuild")
        assert len(prebuild_spans) == 1
        assert prebuild_spans[0].attributes["libraries"] >= 2
        libraries = tree.find("xsdgen.library")
        assert libraries
        for span in libraries:
            ancestors = []
            walker = span.parent
            while walker is not None:
                ancestors.append(walker.name)
                walker = walker.parent
            assert "xsdgen.prebuild" in ancestors, (
                f"library span {span.attributes.get('library')!r} escaped the "
                f"prebuild span (ancestors: {ancestors})"
            )


class TestTracingDoesNotChangeOutput:
    def test_schema_bytes_identical_with_and_without_tracing(self, easybiz):
        def generate():
            return SchemaGenerator(
                easybiz.model, GenerationOptions(validate_first=False)
            ).generate(easybiz.doc_library, root="HoardingPermit")

        untraced = generate()
        previous = set_tracer(Tracer(enabled=False))
        obs.configure(trace=True, ring_capacity=4096)
        try:
            traced = generate()
        finally:
            obs.disable()
            set_tracer(previous)
        assert _schema_texts(traced) == _schema_texts(untraced)
