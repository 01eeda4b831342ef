"""The benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload generate-models --seed 1 --seconds 10 --trace 0

Workloads: ``generate-models``, ``validate-corpus``, ``serve-mixed`` (see
README.md next to this file).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs the traced run and prints the per-layer metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output passed its check and the only failed operations are the
deep-nesting ones.

The program is driven through its public entry points only, from
``src/`` of the checkout; the benchmark changes nothing there.  All files
it writes stay under ``.perfbench_work/`` (removed at the end) and
``.perfbench_out/`` (the traced run's spans).
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import queue
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

from calibrate import REFERENCE_MS, reference_ms

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("generate-models", "validate-corpus", "serve-mixed")
#: Fixed tail percentile per workload; each run collects enough samples
#: that at least ten lie beyond it.
TAIL = {"generate-models": 80, "validate-corpus": 90, "serve-mixed": 95}
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 7
GEN_MODELS = 3
GEN_AGGREGATES = 80
CORPUS_AGGREGATES = 12
BATCHES = 8
BATCH_DOCS = 100
MUTATED_PER_BATCH = 5
PASSES_PER_ROUND = 3
SERVE_POOL_DOCS = 40
SERVE_ROUND = {"read": 93, "write": 5, "deep": 2}
CONNECTIONS = 2
#: Shortest slice of a phase the traced run adds for another workload's layers.
SHORT_PHASE_S = 2.0


def min_samples(workload: str) -> int:
    return -(-10 * 100 // (100 - TAIL[workload]))


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def env() -> dict[str, str]:
    paths = [str(ROOT / "src"), str(BENCH)]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "PYTHONHASHSEED": "0"}


# -- input synthesis (not timed) ----------------------------------------------


class Inputs:
    """Everything a run feeds the program, made from the seed alone."""

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.findings: list[str] = []
        self.selftest_failures: list[str] = []
        self._sets: dict | None = None

    def _selftest(self, spec: dict, texts: dict[str, str], expected: list[dict]) -> None:
        import selftest

        self.selftest_failures += selftest.run(spec, texts, expected)

    def gen(self) -> dict:
        import build
        import spec as specs

        models = []
        for index in range(GEN_MODELS):
            model_spec = specs.synthetic_spec(self.seed, index, GEN_AGGREGATES)
            base = self.work / f"model{index}"
            (base.with_suffix(".xmi")).write_text(build.model_xmi(model_spec), encoding="utf-8")
            (base.with_suffix(".json")).write_text(json.dumps(model_spec), encoding="utf-8")
            models.append({"xmi": str(base.with_suffix(".xmi")), "spec": str(base.with_suffix(".json")),
                           "library": model_spec["libraries"]["doc"]["name"], "root": "Document"})
        return {"models": models}

    def schema_sets(self) -> dict:
        """The corpus schema sets: the paper's HoardingPermit and a synthetic one."""
        if self._sets is not None:
            return dict(self._sets)
        import build
        import checks
        import spec as specs

        synthetic = specs.synthetic_spec(self.seed, 10, CORPUS_AGGREGATES)
        sets = {
            "eb": {"spec": specs.EASYBIZ_SPEC, "xmi": build.easybiz_xmi(),
                   "library": "EB005-HoardingPermit", "root": "HoardingPermit"},
            "sy": {"spec": synthetic, "xmi": build.model_xmi(synthetic),
                   "library": synthetic["libraries"]["doc"]["name"], "root": "Document"},
        }
        for key, entry in sets.items():
            entry["dir"] = self.work / f"schemas-{key}"
            texts = build.write_schemas(entry["xmi"], entry["library"], entry["root"], entry["dir"])
            check = checks.check_easybiz if key == "eb" else (
                lambda t, s=synthetic: checks.check_schemas(s, t))
            self.findings += [f"schemas {key}: {f}" for f in check(texts)]
            entry["texts"] = texts
        self._sets = sets
        return dict(sets)

    def documents(self, model_spec: dict, count: int, mutated: int, tag: str) -> list:
        import spec as specs

        rng = random.Random(f"docs:{self.seed}:{tag}")
        faulty = set(rng.sample(range(count), mutated))
        return [specs.emit_document(model_spec, rng, f"{tag}-{n:03d}.xml", n in faulty)
                for n in range(count)]

    def corpus(self) -> dict:
        """Batches of HoardingPermit and synthetic documents, one set for both."""
        import spec as specs

        sets = self.schema_sets()
        dealt: list[list] = [[] for _ in range(BATCHES)]
        for key, entry in sets.items():
            mutated_per_batch = MUTATED_PER_BATCH // 2 + (key == "eb")
            docs = self.documents(entry["spec"], BATCHES * BATCH_DOCS // 2,
                                  BATCHES * mutated_per_batch, key)
            # Deal the documents so that every batch holds the same number of
            # mutated ones and nearly the same amount of XML: then no batch
            # is slower than the others by construction.
            valid = sorted((d for d in docs if d.mutation is None), key=lambda d: -len(d.text))
            for number, doc in enumerate(valid):
                lap, seat = divmod(number, BATCHES)
                dealt[seat if lap % 2 == 0 else BATCHES - 1 - seat].append(doc)
            for number, doc in enumerate(d for d in docs if d.mutation is not None):
                dealt[number % BATCHES].append(doc)
        batches = []
        for number, docs in enumerate(dealt):
            directory = self.work / f"batch{number}"
            directory.mkdir()
            for doc in docs:
                (directory / doc.name).write_text(doc.text, encoding="utf-8")
            expected = directory.with_suffix(".json")
            expected.write_text(json.dumps([d.expected() for d in sorted(docs, key=lambda d: d.name)]),
                                encoding="utf-8")
            batches.append({"dir": str(directory), "expected": str(expected)})
        deep = self.work / "batch-deep"
        deep.mkdir()
        (deep / "deep.xml").write_text(specs.deep_document(), encoding="utf-8")
        deep.with_suffix(".json").write_text(
            json.dumps([{"name": "deep.xml", "mutation": "deep", "path": None}]), encoding="utf-8")
        round_ = batches * PASSES_PER_ROUND + [
            {"dir": str(deep), "expected": str(deep.with_suffix(".json")), "deep": True}]
        truth = json.loads(Path(batches[0]["expected"]).read_text(encoding="utf-8"))
        self._selftest(sets["sy"]["spec"], sets["sy"]["texts"], truth)
        return {"schema_dirs": [str(sets["eb"]["dir"]), str(sets["sy"]["dir"])],
                "round": round_, "encode_dir": batches[0]["dir"]}

    def serve(self) -> dict:
        """Models to register and document pools per schema set."""
        import build
        import spec as specs

        sets = self.schema_sets()
        extra = specs.synthetic_spec(self.seed, 11, CORPUS_AGGREGATES)
        sets["sy2"] = {"spec": extra, "xmi": build.model_xmi(extra),
                       "library": extra["libraries"]["doc"]["name"], "root": "Document"}
        for key, entry in sets.items():
            entry["pool"] = self.documents(entry["spec"], SERVE_POOL_DOCS, 2, f"serve-{key}")
        self._selftest(sets["sy"]["spec"], sets["sy"]["texts"],
                       [doc.expected() for doc in sets["sy"]["pool"]])
        return sets


# -- processes -----------------------------------------------------------------


def run_worker(config: dict, work: Path, name: str, timeout: float) -> dict:
    path = work / f"{name}.json"
    config = {**config, "out": str(work / f"{name}.out.json")}
    path.write_text(json.dumps(config), encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(path)],
        cwd=ROOT, env=env(), timeout=timeout, capture_output=True, text=True,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"worker {name} failed:\n{completed.stderr[-4000:]}")
    return json.loads(Path(config["out"]).read_text(encoding="utf-8"))


class Daemon:
    """One ``python -m repro serve`` process with its models registered."""

    def __init__(self, work: Path, sets: dict, name: str, serve_args=(), global_args=()) -> None:
        self.log = open(work / f"{name}.log", "w", encoding="utf-8")
        reference_before = reference_ms()
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", *global_args, "serve", "--port", "0", *serve_args],
            cwd=ROOT, env=env(), stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        self.lines: queue.Queue[str] = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        try:
            line = self.lines.get(timeout=60)
        except queue.Empty:
            line = ""
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.url = line.split()[-1]
        split = urlsplit(self.url)
        self.host, self.port = split.hostname, split.port
        self.connection: http.client.HTTPConnection | None = None
        self.registered = {}
        for key, entry in sets.items():
            status, payload = self.post("/generate", {
                "xmi": entry["xmi"], "library": entry["library"], "root": entry["root"]})
            if status != 200:
                self.stop()
                raise RuntimeError(f"/generate {key} answered {status}: {payload}")
            self.registered[key] = payload
        status, health = self.get("/healthz")
        self.setup_s = time.perf_counter() - started
        self.setup_reference_ms = (reference_before + reference_ms()) / 2
        # The daemon drops keep-alive connections idle for 5 s.
        self.connection.close()
        self.connection = None
        if status != 200 or health.get("status") != "ok":
            self.stop()
            raise RuntimeError(f"/healthz answered {status}: {health}")

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.put(line.strip())

    def _request(self, method: str, path: str, body: bytes | None = None):
        # One keep-alive connection, as a client of the daemon would hold.
        if self.connection is None:
            self.connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        self.connection.request(method, path, body=body,
                                headers={"Content-Type": "application/json"})
        response = self.connection.getresponse()
        return response.status, json.loads(response.read())

    def post(self, path: str, payload: dict):
        return self._request("POST", path, json.dumps(payload).encode("utf-8"))

    def get(self, path: str):
        return self._request("GET", path)

    def peak_rss_kb(self) -> int:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self) -> None:
        if getattr(self, "connection", None) is not None:
            self.connection.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.reader.join(timeout=5)
        self.process.stdout.close()
        self.log.close()


def serve_plan(inputs: dict, daemon: Daemon, seed: int, work: Path, name: str) -> Path:
    """One round of requests: reads, writes and deep-nesting reads."""
    import spec as specs

    rng = random.Random(f"plan:{seed}")
    keys = list(inputs)
    plan = []
    for number in range(SERVE_ROUND["read"]):
        key = keys[number % len(keys)]
        docs = rng.sample(inputs[key]["pool"], 4)
        plan.append({
            "kind": "read", "path": "/validate",
            "body": {"schema_set": daemon.registered[key]["schema_set"],
                     "documents": [{"name": d.name, "xml": d.text} for d in docs]},
            "expected": [d.expected() for d in docs],
        })
    for number in range(SERVE_ROUND["write"]):
        key = keys[number % len(keys)]
        entry, registered = inputs[key], daemon.registered[key]
        schemas = json.dumps(registered["schemas"], sort_keys=True).encode()
        plan.append({
            "kind": "write", "path": "/generate",
            "body": {"xmi": entry["xmi"], "library": entry["library"], "root": entry["root"]},
            "schema_set": registered["schema_set"],
            "schemas_digest": hashlib.sha256(schemas).hexdigest(),
        })
    for _ in range(SERVE_ROUND["deep"]):
        plan.append({
            "kind": "deep", "path": "/validate",
            "body": {"schema_set": daemon.registered["eb"]["schema_set"],
                     "documents": [{"name": "deep.xml", "xml": specs.deep_document()}]},
            "expected": [{"name": "deep.xml", "mutation": "deep", "path": None}],
        })
    rng.shuffle(plan)
    path = work / f"{name}-plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    return path


def run_load(daemon: Daemon, plan: Path, seconds: float, work: Path, name: str) -> dict:
    config = {"url": daemon.url, "daemon_pid": daemon.process.pid, "plan": str(plan),
              "seconds": seconds, "min_samples": min_samples("serve-mixed"),
              "connections": CONNECTIONS, "out": str(work / f"{name}-load.out.json")}
    path = work / f"{name}-load.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, str(BENCH / "load.py"), str(path)],
        cwd=ROOT, env=env(), timeout=seconds + 120, capture_output=True, text=True,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"load process failed:\n{completed.stderr[-4000:]}")
    return json.loads(Path(config["out"]).read_text(encoding="utf-8"))


def check_registered(inputs: dict, daemon: Daemon) -> list[str]:
    """The set-up's /generate responses against the specs and Figures 6-8."""
    import checks

    findings = []
    for key, entry in inputs.items():
        texts = daemon.registered[key]["schemas"]
        found = checks.check_easybiz(texts) if key == "eb" else checks.check_schemas(entry["spec"], texts)
        findings += [f"/generate {key}: {finding}" for finding in found]
    return findings


# -- timed runs (end-to-end metrics) -------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scaled(rounds: list[dict], normalize: bool):
    """``(round, factor)`` pairs; the factor maps to the reference speed."""
    for round_ in rounds:
        yield round_, (REFERENCE_MS / round_["reference_ms"] if normalize else 1.0)


def in_process_metrics(workload: str, result: dict, setups: list[dict], normalize: bool) -> dict:
    """End-to-end metrics of a gen or corpus phase (normalized or as measured)."""
    latencies, writes = [], []
    elapsed = cpu = 0.0
    for round_, factor in scaled(result["phases"][0]["rounds"], normalize):
        elapsed += round_["wall_s"] * factor
        cpu += round_["cpu_s"] * factor
        for outcome in round_["outcomes"]:
            if outcome["error"] is None:
                latencies.append(outcome["latency_ms"] * factor)
                writes.append(outcome["write_ms"] * factor)
    return {
        "setup_s": metric(statistics.median(
            setup["setup_s"] * (REFERENCE_MS / setup["setup_reference_ms"] if normalize else 1.0)
            for setup in setups), "s"),
        "peak_rss_mb": metric(result["rss_kb"] / 1024.0, "MB"),
        "throughput_per_s": metric(len(latencies) / elapsed, "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies), "ms"),
        "latency_tail_ms": metric(percentile(latencies, TAIL[workload]), "ms"),
        "cpu_ms_per_op": metric(cpu * 1000.0 / len(latencies), "ms"),
        "write_latency_p50_ms": metric(statistics.median(writes), "ms"),
    }


def outcomes_of(phase: dict) -> list[dict]:
    return [outcome for round_ in phase["rounds"] for outcome in round_["outcomes"]]


def timed_in_process(workload: str, inputs: Inputs, seconds: float) -> tuple:
    kind = "gen" if workload == "generate-models" else "corpus"
    config = {"seed": inputs.seed, "setup": kind, "phases": []}
    config[kind] = inputs.gen() if kind == "gen" else inputs.corpus()
    if kind == "gen":
        # The schema check's self-test needs one generated set.
        import build

        model = config["gen"]["models"][0]
        texts = build.write_schemas(Path(model["xmi"]).read_text(encoding="utf-8"),
                                    model["library"], model["root"], inputs.work / "selftest")
        spec_data = json.loads(Path(model["spec"]).read_text(encoding="utf-8"))
        docs = inputs.documents(spec_data, 20, 2, "selftest")
        inputs._selftest(spec_data, texts, [d.expected() for d in docs])
    if inputs.selftest_failures:
        return {}, {}, 0, 0, inputs.selftest_failures
    setups = [run_worker(config, inputs.work, f"setup{n}", 120) for n in range(SETUPS - 1)]
    config["phases"] = [{"kind": kind, "name": workload, "seconds": seconds,
                         "min_samples": min_samples(workload), "cross_check": kind == "corpus"}]
    result = run_worker(config, inputs.work, "main", seconds + 150)
    setups.append(result)
    outcomes = outcomes_of(result["phases"][0])
    failed = [o for o in outcomes if o["error"] is not None]
    findings = [f"unexpected failure on {o['item']}: {o['error']}" for o in failed if not o.get("deep")]
    raw = in_process_metrics(workload, result, setups, normalize=False)
    metrics = in_process_metrics(workload, result, setups, normalize=True)
    return metrics, raw, len(outcomes), len(failed), findings + result["findings"]


def serve_metrics(load: dict, daemon: Daemon, setups: list["Daemon"], normalize: bool) -> dict:
    """End-to-end metrics of serve-mixed.

    Latencies and throughput are wall-clock at the client and include
    network waits, which do not scale with CPU speed; the daemon's CPU
    time and its set-up, which is mostly start-up CPU, are normalized.
    """
    done = [o for o in load["outcomes"] if not o["failed"]]
    reads = [o["latency_ms"] for o in done if o["kind"] == "read"]
    writes = [o["latency_ms"] for o in done if o["kind"] == "write"]
    elapsed = sum(round_["wall_s"] for round_ in load["rounds"])
    cpu = sum(round_["daemon_cpu_s"] * factor for round_, factor in scaled(load["rounds"], normalize))
    return {
        "setup_s": metric(statistics.median(
            setup.setup_s * (REFERENCE_MS / setup.setup_reference_ms if normalize else 1.0)
            for setup in setups), "s"),
        "peak_rss_mb": metric(daemon.peak_rss_kb() / 1024.0, "MB"),
        "throughput_per_s": metric(len(done) / elapsed, "1/s"),
        "latency_p50_ms": metric(statistics.median(reads), "ms"),
        "latency_tail_ms": metric(percentile(reads, TAIL["serve-mixed"]), "ms"),
        "cpu_ms_per_op": metric(cpu * 1000.0 / len(done), "ms"),
        "write_latency_p50_ms": metric(statistics.median(writes), "ms"),
    }


def healthy(daemon: Daemon) -> list[str]:
    status, health = daemon.get("/healthz")
    return [] if status == 200 and health.get("status") == "ok" else [f"/healthz after load: {status}"]


def timed_serve(workload: str, inputs: Inputs, seconds: float) -> tuple:
    sets = inputs.serve()
    if inputs.selftest_failures:
        return {}, {}, 0, 0, inputs.selftest_failures
    setups = []
    for number in range(SETUPS - 1):
        daemon = Daemon(inputs.work, sets, f"setup{number}")
        setups.append(daemon)
        daemon.stop()
    daemon = Daemon(inputs.work, sets, "main")
    try:
        setups.append(daemon)
        findings = check_registered(sets, daemon)
        plan = serve_plan(sets, daemon, inputs.seed, inputs.work, "main")
        load = run_load(daemon, plan, seconds, inputs.work, "main")
        raw = serve_metrics(load, daemon, setups, normalize=False)
        metrics = serve_metrics(load, daemon, setups, normalize=True)
        findings += load["findings"] + healthy(daemon)
    finally:
        daemon.stop()
    failed = sum(o["failed"] for o in load["outcomes"])
    return metrics, raw, len(load["outcomes"]), failed, findings


# -- the traced run (per-layer metrics) ----------------------------------------


def traced_serve(inputs: dict, work: Path, seed: int, seconds: float, obs_seconds: float | None) -> tuple:
    """Serve layers from the access log; program tracing cost when asked."""
    log = work / "access.jsonl"
    daemon = Daemon(work, inputs, "traced", serve_args=("--access-log", str(log)))
    try:
        plan = serve_plan(inputs, daemon, seed, work, "traced")
        load = run_load(daemon, plan, seconds, work, "traced")
        findings = load["findings"] + healthy(daemon)
    finally:
        daemon.stop()
    records = {}
    for line in log.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        records[record["request_id"]] = record
    outcomes = load["outcomes"]
    server = {o["request_id"]: records.get(o["request_id"]) for o in outcomes}
    missing = [rid for rid, record in server.items() if record is None]
    if missing:
        findings.append(f"{len(missing)} requests missing from the access log")
    reads = [o for o in outcomes if o["kind"] == "read" and not o["failed"]]
    writes = [o for o in outcomes if o["kind"] == "write" and not o["failed"]]
    waits = [server[o["request_id"]]["queue_wait_ms"] for o in outcomes if server[o["request_id"]]]
    layer = {
        "serve.server_validate_p50_ms": metric(statistics.median(
            server[o["request_id"]]["duration_ms"] for o in reads), "ms"),
        "serve.queue_wait_p50_ms": metric(statistics.median(waits), "ms"),
        "serve.queue_wait_tail_ms": metric(percentile(waits, TAIL["serve-mixed"]), "ms"),
        "serve.server_generate_p50_ms": metric(statistics.median(
            server[o["request_id"]]["duration_ms"] for o in writes), "ms"),
        "serve.transport_residual_p50_ms": metric(statistics.median(
            o["latency_ms"] - server[o["request_id"]]["duration_ms"] for o in reads), "ms"),
        "serve.retried_503": metric(sum(o["retries"] for o in outcomes), "count"),
        "client.cpu_ms_per_request": metric(
            sum(r["client_cpu_s"] for r in load["rounds"]) * 1000.0 / len(outcomes), "ms"),
    }
    obs_throughput = None
    if obs_seconds is not None:
        daemon = Daemon(work, inputs, "obs", global_args=("--trace",))
        try:
            plan = serve_plan(inputs, daemon, seed, work, "obs")
            obs_load = run_load(daemon, plan, obs_seconds, work, "obs")
            findings += obs_load["findings"]
            done = sum(not o["failed"] for o in obs_load["outcomes"])
            obs_throughput = done / sum(r["wall_s"] for r in obs_load["rounds"])
        finally:
            daemon.stop()
    return layer, obs_throughput, findings, load


def traced_run(workload: str, inputs: Inputs, seconds: float) -> tuple:
    """Every per-layer metric, each from the workload that goes through it.

    The named workload's phase runs for ``seconds``; the phases that give
    the layers it does not pass through run for a short slice.  The
    program's own tracing cost is measured on the named workload.
    """
    import spans as fold

    short = max(SHORT_PHASE_S, seconds / 4)
    length = {w: seconds if w == workload else short for w in WORKLOADS}
    config = {"seed": inputs.seed, "setup": "corpus", "gen": inputs.gen(), "corpus": inputs.corpus()}
    serve_inputs = inputs.serve()
    if inputs.selftest_failures:
        return {}, {}, 0, 0, inputs.selftest_failures
    phases = [
        {"kind": "gen", "name": "gen", "seconds": length["generate-models"], "min_samples": 1,
         "trace": True},
        {"kind": "corpus", "name": "corpus", "seconds": length["validate-corpus"],
         "min_samples": 1, "trace": True},
        {"kind": "probes", "name": "probes", "repeats": 20,
         "encode_dir": config["corpus"]["encode_dir"]},
    ]
    if workload != "serve-mixed":
        kind = "gen" if workload == "generate-models" else "corpus"
        phases.append({"kind": kind, "name": "obs", "seconds": seconds / 2, "min_samples": 1,
                       "obs": True})
    config["phases"] = phases
    result = run_worker(config, inputs.work, "traced", 4 * seconds + 150)
    findings = list(result["findings"])
    spans = result["spans"]
    by_phase = {phase["name"]: phase for phase in result["phases"]}
    for phase in result["phases"]:
        for outcome in outcomes_of(phase) if "rounds" in phase else ():
            if outcome["error"] is not None and not outcome.get("deep"):
                findings.append(f"unexpected failure in {phase['name']}: {outcome['error']}")
    selfs = fold.self_times(spans)
    inclusive = {span["id"]: (span["end"] - span["start"]) * 1000.0 for span in spans}

    def op_median(name: str) -> dict:
        return metric(statistics.median(fold.per_op(spans, selfs, name)), "ms")

    def call_median(name: str, values: dict = selfs) -> dict:
        return metric(statistics.median(fold.per_call(spans, values, name)), "ms")

    gen_outcomes = [o for o in outcomes_of(by_phase["gen"]) if o["error"] is None]
    layer = {
        "xmi.read_ms": op_median("xmi.read"),
        "validation.validate_model_ms": op_median("validation.validate_model"),
        "xsdgen.generate_ms": op_median("xsdgen.generate"),
        "xsd.serialize_ms": op_median("xsd.serialize"),
        "xsd.output_kb": metric(statistics.mean(o["bytes"] for o in gen_outcomes) / 1024.0, "KB"),
        "xsd.compile_ms": call_median("xsd.compile"),
        "xsd.fingerprint_ms": call_median("xsd.fingerprint"),
        "xsd.validate_text_ms": call_median("xsd.validate_text"),
        "instances.validate_doc_ms": call_median("instances.validate_doc", inclusive),
        "instances.report_encode_ms": call_median("instances.report_encode"),
    }
    serve_layer, obs_serve, more, load = traced_serve(
        serve_inputs, inputs.work, inputs.seed, length["serve-mixed"],
        seconds / 2 if workload == "serve-mixed" else None)
    findings += more
    layer.update(serve_layer)
    if workload == "serve-mixed":
        obs_throughput = obs_serve
    else:
        obs_throughput = in_process_metrics(
            workload, {**result, "phases": [by_phase["obs"]]}, [result], normalize=True,
        )["throughput_per_s"]["value"]
    layer["obs.traced_throughput_per_s"] = metric(obs_throughput, "1/s")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{workload}-{inputs.seed}.jsonl", "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    if workload == "serve-mixed":
        outcomes = load["outcomes"]
    else:
        outcomes = outcomes_of(by_phase["gen" if workload == "generate-models" else "corpus"])
    attempted = len(outcomes)
    failed = sum(bool(o.get("failed")) or o.get("error") is not None for o in outcomes)
    return dict(sorted(layer.items())), {}, attempted, failed, findings


# -- entry point ----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    inputs = Inputs(args.seed, work)
    try:
        if args.trace:
            run = traced_run
        elif args.workload == "serve-mixed":
            run = timed_serve
        else:
            run = timed_in_process
        metrics, raw, attempted, failed, findings = run(args.workload, inputs, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's work directory is still there
            pass
    findings = inputs.findings + findings
    for finding in findings[:50]:
        print(f"CHECK FAILED: {finding}")
    correct = not findings and attempted > 0
    print(f"{args.workload}: attempted {attempted}, failed {failed}"
          + (" (the deep-nesting operations: RecursionError escapes the pipeline)" if failed else ""))
    for name, value in metrics.items():
        measured = f" (as measured: {raw[name]['value']:.6g})" if name in raw else ""
        print(f"  {name} = {value['value']:.6g} {value['unit']}{measured}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
