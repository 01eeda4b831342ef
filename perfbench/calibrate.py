"""A fixed reference workload that tracks how fast the machine runs now.

On a shared virtual machine the same CPU-bound work can take up to twice
as long from one minute to the next, because other guests compete for
the host.  Neither a longer run nor a median removes that: the slow and
fast periods last longer than a run.  The benchmark therefore times this
stdlib-only workload (XML parsing, object building, dict and JSON work,
the same kind of work the program does) between rounds of operations and
reports CPU-bound times at the reference speed::

    normalized = measured * REFERENCE_MS / reference_now_ms

The reference never calls the program, so a change to the program cannot
move it.  A round's factor uses the reference timed just before and just
after the round.
"""

from __future__ import annotations

import json
import statistics
import time
import xml.etree.ElementTree as ET

#: Reference time that defines the normalized scale (the reference's time
#: in the fast periods of a 2-vCPU Xeon guest).
REFERENCE_MS = 10.0


def _document() -> str:
    root = ET.Element("r")
    for index in range(1500):
        element = ET.SubElement(root, f"e{index % 37}", {"a": str(index), "b": "x" * (index % 11)})
        element.text = f"t{index}"
        for child in range(3):
            ET.SubElement(element, f"c{child}").text = str(index * child)
    return ET.tostring(root, encoding="unicode")


_DOCUMENT = _document()


class _Node:
    __slots__ = ("tag", "attributes", "text")


def _reference() -> int:
    groups: dict[str, list[_Node]] = {}
    for element in ET.fromstring(_DOCUMENT).iter():
        node = _Node()
        node.tag, node.attributes, node.text = element.tag, dict(element.attrib), element.text
        groups.setdefault(element.tag, []).append(node)
    return len(json.dumps({tag: [node.text for node in nodes] for tag, nodes in groups.items()}))


def reference_ms(repeats: int = 3) -> float:
    """Median time of the reference workload, in ms."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        _reference()
        times.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(times)
