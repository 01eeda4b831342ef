"""Self-tests of the benchmark's checks: each broken input must be rejected.

Run at the start of every benchmark run, on that run's own inputs:

* a schema set with one element dropped from a complexType,
* a report whose verdict for one document is flipped,
* a report with one document's entry missing.

A check that accepts any of them could not catch the fault it exists for,
so the run stops before measuring anything.
"""

from __future__ import annotations

import copy
import re

from checks import check_report, check_schemas


def reference_report(expected: list[dict]) -> dict:
    """The report the ground truth calls for, built without the program."""
    documents = []
    for want in expected:
        if want["mutation"] is None:
            documents.append({"path": want["name"], "ok": True, "problems": []})
        elif want["mutation"] == "deep":
            documents.append({"path": want["name"], "ok": False, "error": "too deep"})
        else:
            documents.append({"path": want["name"], "ok": False,
                              "problems": [{"path": want["path"], "message": "mutated"}]})
    return {"docs_total": len(documents),
            "docs_invalid": sum(not entry["ok"] for entry in documents),
            "documents": documents}


def run(spec: dict, texts: dict[str, str], expected: list[dict]) -> list[str]:
    """Failures of the self-tests; an empty list means every check bites."""
    failures = []
    if check_schemas(spec, texts):
        failures.append("check_schemas rejects the program's own correct output")
    bie = next(name for name, text in texts.items() if "complexType" in text and "Aggregates" in name)
    dropped = dict(texts)
    dropped[bie] = re.sub(r"\n\s*<xsd:element [^>]*name=\"P0\"[^>]*/>", "", texts[bie], count=1)
    if dropped[bie] == texts[bie]:
        failures.append("self-test could not drop an element")
    elif not check_schemas(spec, dropped):
        failures.append("check_schemas accepts a schema with a dropped element")

    good = reference_report(expected)
    if check_report(expected, good):
        failures.append("check_report rejects the ground-truth report")
    flipped = copy.deepcopy(good)
    target = next(i for i, want in enumerate(expected) if want["mutation"] not in (None, "deep"))
    flipped["documents"][target].update(ok=True, problems=[])
    flipped["docs_invalid"] -= 1
    if not check_report(expected, flipped):
        failures.append("check_report accepts a flipped verdict")
    missing = copy.deepcopy(good)
    missing["documents"].pop()
    missing["docs_total"] -= 1
    if not check_report(expected, missing):
        failures.append("check_report accepts a report with a missing entry")
    return failures
