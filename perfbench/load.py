"""The load process of ``serve-mixed`` (stdlib only).

Usage: ``python3 perfbench/load.py CONFIG.json``.  Runs a closed loop of
``connections`` keep-alive HTTP/1.1 connections against a running
``upcc serve`` daemon: each connection sends its next request only after
the previous response has been read in full.  Requests follow the round
plan in order, and a new round starts only while the run has time left,
so every run sends whole rounds.  Between rounds, with the daemon idle,
the reference workload of ``calibrate.py`` is timed.  A 503 is retried after a short
pause and counted.  After the timed window every response is checked
against the plan's ground truth, and the result is written as JSON to
``config["out"]``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

from calibrate import reference_ms
from checks import check_report

RETRY_PAUSE_S = 0.05
SEGMENTS = 4
MAX_RETRIES = 100


def daemon_cpu_s(pid: int) -> float:
    """CPU seconds the live threads of process ``pid`` have run.

    Summed from each thread's ``/proc/<pid>/task/<tid>/schedstat`` (in ns),
    which is finer than the 10 ms ticks of ``/proc/<pid>/stat``.  The
    daemon's threads live through a round (keep-alive connections, fixed
    workers), so a difference over a round loses nothing.
    """
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (FileNotFoundError, ProcessLookupError):  # the thread just exited
            continue
    return total / 1e9


def run(config: dict) -> dict:
    plan = json.loads(Path(config["plan"]).read_text(encoding="utf-8"))
    bodies = [json.dumps(item["body"]).encode("utf-8") for item in plan]
    round_size = len(plan)
    reads_per_round = sum(item["kind"] == "read" for item in plan)
    min_rounds = -(-config["min_samples"] // reads_per_round)
    url = urlsplit(config["url"])
    connections = [http.client.HTTPConnection(url.hostname, url.port, timeout=60)
                   for _ in range(config["connections"])]
    lock = threading.Lock()
    records: list[tuple] = []
    errors: list[str] = []

    def client(connection: http.client.HTTPConnection, first: int, state: dict) -> None:
        while True:
            with lock:
                position = state["next"]
                if position == state["end"]:
                    return
                state["next"] = position + 1
            index = first + position
            request_id = f"pb-{index}"
            retries = 0
            sent = time.perf_counter()
            while True:
                try:
                    connection.request(
                        "POST", plan[position]["path"], body=bodies[position],
                        headers={"Content-Type": "application/json", "X-Request-Id": request_id},
                    )
                    response = connection.getresponse()
                    data = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException) as error:
                    connection.close()
                    status, data = 0, str(error).encode()
                if status in (0, 503) and retries < MAX_RETRIES:
                    retries += 1
                    time.sleep(RETRY_PAUSE_S)
                    continue
                break
            done = time.perf_counter()
            with lock:
                records.append((index, status, sent, done, retries, data))

    rounds = []
    measured = 0.0
    reference = reference_ms()
    try:
        while True:
            # A round runs in SEGMENTS parts with the reference timed between
            # them, so a change of machine speed within a round is followed.
            for segment in range(SEGMENTS):
                state = {"next": segment * round_size // SEGMENTS,
                         "end": (segment + 1) * round_size // SEGMENTS}
                first = len(rounds) // SEGMENTS * round_size
                threads = [threading.Thread(target=client, args=(connection, first, state))
                           for connection in connections]
                daemon_cpu0 = daemon_cpu_s(config["daemon_pid"])
                cpu0 = time.process_time()
                started = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                wall = time.perf_counter() - started
                client_cpu = time.process_time() - cpu0
                daemon_cpu = daemon_cpu_s(config["daemon_pid"]) - daemon_cpu0
                following = reference_ms()
                rounds.append({"wall_s": wall, "client_cpu_s": client_cpu,
                               "daemon_cpu_s": daemon_cpu,
                               "reference_ms": (reference + following) / 2})
                reference = following
                measured += wall
            if measured >= config["seconds"] and len(rounds) >= min_rounds * SEGMENTS:
                break
    finally:
        for connection in connections:
            connection.close()

    # -- checks, after the timed window --------------------------------------
    checked: set[tuple[int, str]] = set()
    outcomes = []
    for index, status, sent, done, retries, data in sorted(records):
        item = plan[index % round_size]
        failed = status != 200
        if failed and item["kind"] != "deep":
            errors.append(f"request {index} ({item['kind']}): status {status}: {data[:200]!r}")
        digest = hashlib.sha256(data).hexdigest()
        key = (index % round_size, digest)
        if not failed and key not in checked:
            checked.add(key)
            payload = json.loads(data)
            if item["kind"] == "write":
                schemas = json.dumps(payload.get("schemas"), sort_keys=True).encode()
                if (payload.get("schema_set") != item["schema_set"]
                        or hashlib.sha256(schemas).hexdigest() != item["schemas_digest"]):
                    errors.append(f"request {index}: /generate output differs from set-up")
            else:
                for finding in check_report(item["expected"], payload):
                    errors.append(f"request {index}: {finding}")
        outcomes.append({"kind": item["kind"], "status": status, "failed": failed,
                         "latency_ms": (done - sent) * 1000.0, "retries": retries,
                         "request_id": f"pb-{index}"})
    return {
        "rounds": rounds,
        "outcomes": outcomes,
        "findings": errors,
    }


def main(argv: list[str]) -> int:
    config = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    result = run(config)
    Path(config["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
