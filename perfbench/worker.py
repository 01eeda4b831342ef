"""The in-process workloads, run in a process of their own.

Usage: ``python3 perfbench/worker.py CONFIG.json`` (with ``src`` on
``PYTHONPATH``).  The process imports the program, sets it up, runs the
phases the config lists and writes its result as JSON to ``config["out"]``.
Running apart from the orchestrator makes set-up time, CPU time and peak
resident set belong to the program's work alone.

Phases:

* ``gen`` -- per operation: ``read_xmi`` of one model's XMI text,
  ``validate_model``, ``SchemaGenerator.generate`` without a cache and
  ``GeneratedSchema.to_string`` of every schema;
* ``corpus`` -- per operation: ``ValidationPipeline.run`` over one on-disk
  batch, then the report encoded as ``upcc validate-instances --report
  json`` prints it;
* ``probes`` -- repeated single-layer calls (compile, fingerprint, report
  encoding) for the traced run.

A phase with ``"trace": true`` wraps the public calls in the benchmark's
spans; one with ``"obs": true`` switches on the program's own tracing.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

from calibrate import reference_ms
from checks import check_report, check_schemas
from spans import Recorder


def _timed_loop(items: list, op, seconds: float, min_samples: int) -> dict:
    """Run whole rounds of ``items`` until ``seconds`` and ``min_samples`` pass.

    The reference workload is timed between rounds (outside the measured
    time); each round keeps the mean of the two samples around it.
    """
    rounds = []
    samples = 0
    measured = 0.0
    reference = reference_ms()
    while True:
        cpu0 = time.process_time()
        started = time.perf_counter()
        outcomes = [op(item) for item in items]
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu0
        following = reference_ms()
        rounds.append({"wall_s": wall, "cpu_s": cpu, "reference_ms": (reference + following) / 2,
                       "outcomes": outcomes})
        reference = following
        measured += wall
        samples += sum(outcome["error"] is None for outcome in outcomes)
        if measured >= seconds and samples >= min_samples:
            return {"rounds": rounds}


class Worker:
    def __init__(self, config: dict) -> None:
        self.config = config
        self.findings: list[str] = []
        self.recorder = Recorder()
        reference_before = reference_ms()
        started = time.perf_counter()
        # -- the program's set-up: imports, schema sets, compilation ----------
        import repro
        from repro.ccts.model import CctsModel

        self.repro = repro
        self.CctsModel = CctsModel
        if config["setup"] == "corpus":
            from repro.instances.pipeline import ValidationPipeline
            from repro.xsd.validator import SchemaSet

            self.schema_set = SchemaSet.from_files([
                path for directory in config["corpus"]["schema_dirs"]
                for path in sorted(Path(directory).rglob("*.xsd"))
            ])
            self.pipeline = ValidationPipeline(self.schema_set, engine="compiled")
        self.setup_s = time.perf_counter() - started
        self.setup_reference_ms = (reference_before + reference_ms()) / 2
        self.models = []
        for model in config.get("gen", {}).get("models", ()):
            self.models.append({
                **model,
                "xmi_text": Path(model["xmi"]).read_text(encoding="utf-8"),
                "spec_data": json.loads(Path(model["spec"]).read_text(encoding="utf-8")),
            })

    # -- generate-models -----------------------------------------------------

    def _gen_calls(self, traced: bool):
        repro = self.repro
        CctsModel = self.CctsModel

        def read(text):
            return CctsModel(model=repro.read_xmi(text))

        def generate(model, library, root):
            return repro.SchemaGenerator(model).generate(library, root=root)

        def serialize(generated):
            return generated.to_string()

        calls = {"xmi.read": read, "validation.validate_model": repro.validate_model,
                 "xsdgen.generate": generate, "xsd.serialize": serialize}
        if traced:
            calls = {name: self.recorder.wrap(name, fn) for name, fn in calls.items()}
        return calls

    def run_gen(self, phase: dict) -> dict:
        calls = self._gen_calls(phase.get("trace", False))
        read, validate = calls["xmi.read"], calls["validation.validate_model"]
        generate, serialize = calls["xsdgen.generate"], calls["xsd.serialize"]
        first: dict[int, dict[str, str]] = {}
        digests: dict[int, str] = {}
        recorder = self.recorder

        def op(index: int) -> dict:
            model_cfg = self.models[index]
            recorder.op = None if recorder.op is None else recorder.op + 1
            started = time.perf_counter()
            try:
                model = read(model_cfg["xmi_text"])
                report = validate(model)
                write_started = time.perf_counter()
                result = generate(model, model_cfg["library"], model_cfg["root"])
                texts = {
                    f"{g.namespace.folder}/{g.namespace.file_name}": serialize(g)
                    for g in result.schemas.values()
                }
            except Exception as error:  # noqa: BLE001 -- counted and reported
                return {"error": f"{type(error).__name__}: {error}", "item": index}
            ended = time.perf_counter()
            if not report.ok:
                self.findings.append(f"model {index}: validate_model reports errors")
            digest = hashlib.sha256(json.dumps(texts, sort_keys=True).encode()).hexdigest()
            if index not in first:
                first[index], digests[index] = texts, digest
            elif digests[index] != digest:
                self.findings.append(f"model {index}: output differs between operations")
            return {"error": None, "item": index, "latency_ms": (ended - started) * 1000.0,
                    "write_ms": (ended - write_started) * 1000.0,
                    "bytes": sum(len(text.encode()) for text in texts.values())}

        if phase.get("obs"):
            self.repro_obs(True)
        recorder.op = 0 if phase.get("trace") else None
        loop = _timed_loop(list(range(len(self.models))), op, phase["seconds"], phase["min_samples"])
        recorder.op = None
        if phase.get("obs"):
            self.repro_obs(False)
        for index, texts in first.items():
            for finding in check_schemas(self.models[index]["spec_data"], texts):
                self.findings.append(f"model {index}: {finding}")
        return loop

    # -- validate-corpus -----------------------------------------------------

    def run_corpus(self, phase: dict) -> dict:
        corpus = self.config["corpus"]
        batches = corpus["round"]
        expected = {
            batch["dir"]: json.loads(Path(batch["expected"]).read_text(encoding="utf-8"))
            for batch in batches
        }
        recorder = self.recorder
        pipeline = self.pipeline
        run = pipeline.run
        if phase.get("trace"):
            pipeline.validate_path = recorder.wrap("instances.validate_doc", pipeline.validate_path)
            pipeline.validate_text = recorder.wrap("xsd.validate_text", pipeline.validate_text)
            run = recorder.wrap("instances.batch", run)
        seen: dict[str, set[str]] = {}

        def op(batch: dict) -> dict:
            recorder.op = None if recorder.op is None else recorder.op + 1
            started = time.perf_counter()
            try:
                report = run(batch["dir"])
                validated = time.perf_counter()
                text = json.dumps(report.to_json(), indent=2)
            except Exception as error:  # noqa: BLE001 -- counted and reported
                return {"error": f"{type(error).__name__}: {error}", "item": batch["dir"],
                        "deep": batch.get("deep", False)}
            ended = time.perf_counter()
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digest not in seen.setdefault(batch["dir"], set()):
                seen[batch["dir"]].add(digest)
                for finding in check_report(expected[batch["dir"]], json.loads(text)):
                    self.findings.append(f"{Path(batch['dir']).name}: {finding}")
            return {"error": None, "item": batch["dir"], "deep": batch.get("deep", False),
                    "latency_ms": (validated - started) * 1000.0,
                    "write_ms": (ended - validated) * 1000.0}

        if phase.get("obs"):
            self.repro_obs(True)
        recorder.op = 0 if phase.get("trace") else None
        loop = _timed_loop(batches, op, phase["seconds"], phase["min_samples"])
        recorder.op = None
        if phase.get("obs"):
            self.repro_obs(False)
        if phase.get("trace"):
            del pipeline.validate_path, pipeline.validate_text
        for directory, digests in seen.items():
            if len(digests) > 1:
                self.findings.append(f"{Path(directory).name}: report differs between operations")
        if phase.get("cross_check"):
            self.cross_check(batches, expected)
        return loop

    def cross_check(self, batches: list[dict], expected: dict) -> None:
        """Validate a seeded sample again with the interpreted engine."""
        from repro.xsd.validator import validate_instance

        rng = random.Random(self.config["seed"])
        for batch in batches:
            if batch.get("deep"):
                continue
            names = [doc["name"] for doc in expected[batch["dir"]]]
            mutated = [doc["name"] for doc in expected[batch["dir"]] if doc["mutation"]]
            sample = set(rng.sample(names, 3)) | set(mutated[:2])
            report = self.pipeline.run(batch["dir"]).to_json()
            entries = {Path(entry["path"]).name: entry for entry in report["documents"]}
            for name in sorted(sample):
                text = (Path(batch["dir"]) / name).read_text(encoding="utf-8")
                interpreted = [
                    {"path": problem.path, "message": problem.message}
                    for problem in validate_instance(self.schema_set, text)
                ]
                if interpreted != entries[name].get("problems"):
                    self.findings.append(
                        f"{name}: compiled {entries[name]} != interpreted {interpreted}"
                    )

    # -- single-layer probes (traced run) -------------------------------------

    def run_probes(self, phase: dict) -> dict:
        from repro.instances.pipeline import ValidationPipeline
        from repro.xsd.compiled import CompilationCache, compile_schema_set, fingerprint_schema_set
        from repro.xsd.validator import SchemaSet

        recorder = self.recorder
        compile_ = recorder.wrap("xsd.compile", compile_schema_set)
        fingerprint = recorder.wrap("xsd.fingerprint", fingerprint_schema_set)

        def encode(report):
            return json.dumps(report.to_json(), indent=2)

        encode = recorder.wrap("instances.report_encode", encode)
        for _ in range(phase["repeats"]):
            compile_(self.schema_set, CompilationCache())
        # /validate fingerprints the set it is given; serve's reads mostly
        # name the HoardingPermit set.
        primary = SchemaSet.from_directory(self.config["corpus"]["schema_dirs"][0])
        for _ in range(phase["repeats"] * 5):
            fingerprint(primary)
        documents = [
            (path.name, path.read_text(encoding="utf-8"))
            for path in sorted(Path(phase["encode_dir"]).glob("*.xml"))[:4]
        ]
        report = ValidationPipeline(primary).run_strings(documents)
        for _ in range(phase["repeats"] * 10):
            encode(report)
        return {}

    # -- phases ------------------------------------------------------------------

    def repro_obs(self, enabled: bool) -> None:
        import repro.obs as obs

        obs.configure(trace=enabled, reset_metrics=True)

    def run(self) -> dict:
        phases = []
        for phase in self.config["phases"]:
            handler = {"gen": self.run_gen, "corpus": self.run_corpus,
                       "probes": self.run_probes}[phase["kind"]]
            result = handler(phase)
            result["name"] = phase["name"]
            phases.append(result)
        return {
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "phases": phases,
            "spans": self.recorder.spans,
            "findings": self.findings,
        }


def main(argv: list[str]) -> int:
    config = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    worker = Worker(config)
    result = worker.run() if config["phases"] else {}
    result.update(setup_s=worker.setup_s, setup_reference_ms=worker.setup_reference_ms)
    Path(config["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
