"""Correctness references built without the code under test (stdlib only).

* :func:`check_schemas` reads generated XSD text with ``xml.etree`` and
  holds it to the seeded model spec: one ``...Type`` per ABIE, element
  names, order and ``minOccurs``/``maxOccurs`` equal to the BBIE/ASBIE
  cardinalities, enumeration codes as facets, target namespaces and
  versions from the libraries' tagged values, and imports that cover
  exactly the namespaces each schema refers to.
* :func:`check_easybiz` adds the facts the paper's Figures 6-8 show.
* :func:`check_report` holds a validation report to the mutation ground
  truth: one entry per document, unmutated documents valid, every mutated
  document invalid with a problem at the mutated element.

Every function returns a list of findings; an empty list means correct.
"""

from __future__ import annotations

import io
import posixpath
import xml.etree.ElementTree as ET

from spec import EASYBIZ_SPEC, multiplicity_bounds, namespace_of

XSD = "http://www.w3.org/2001/XMLSchema"
_X = f"{{{XSD}}}"


class _Schema:
    """One parsed schema document with its root namespace bindings."""

    def __init__(self, text: str) -> None:
        self.prefixes: dict[str, str] = {}
        root = None
        for event, item in ET.iterparse(io.StringIO(text), events=("start-ns", "start")):
            if event == "start-ns":
                self.prefixes.setdefault(item[0], item[1])
            elif root is None:
                root = item
        assert root is not None
        self.root = root
        self.namespace = root.get("targetNamespace", "")
        self.version = root.get("version")
        self.imports = {
            node.get("namespace"): node.get("schemaLocation", "")
            for node in root.findall(f"{_X}import")
        }
        self.complex_types = {n.get("name"): n for n in root.findall(f"{_X}complexType")}
        self.simple_types = {n.get("name"): n for n in root.findall(f"{_X}simpleType")}
        self.elements = {n.get("name"): n for n in root.findall(f"{_X}element")}

    def qname(self, value: str | None) -> tuple[str, str]:
        """Resolve a ``prefix:local`` attribute value to ``(namespace, local)``."""
        if not value:
            return ("", "")
        prefix, _, local = value.rpartition(":")
        return (self.prefixes.get(prefix, f"?{prefix}"), local)

    def referenced_namespaces(self) -> set[str]:
        found = set()
        for node in self.root.iter():
            for attr in ("type", "ref", "base"):
                if node.get(attr):
                    found.add(self.qname(node.get(attr))[0])
        return found - {self.namespace, XSD}


def _parse_all(texts: dict[str, str], findings: list[str]) -> dict[str, _Schema]:
    schemas = {}
    for name, text in texts.items():
        try:
            schema = _Schema(text)
        except ET.ParseError as error:
            findings.append(f"{name}: not well-formed: {error}")
            continue
        schemas[schema.namespace] = schema
    return schemas


def _occurs(node: ET.Element) -> tuple[int, int | None]:
    low = int(node.get("minOccurs", "1"))
    high = node.get("maxOccurs", "1")
    return low, (None if high == "unbounded" else int(high))


def _type_namespace(spec: dict, type_name: str) -> str:
    return namespace_of(spec, spec["types"][type_name]["lib"])


def _check_aggregate(spec: dict, abie: dict, schemas: dict[str, _Schema], findings: list[str]) -> None:
    ns = namespace_of(spec, abie["lib"])
    schema = schemas.get(ns)
    if schema is None:
        return
    type_node = schema.complex_types.get(f"{abie['name']}Type")
    if type_node is None:
        findings.append(f"{ns}: no complexType {abie['name']}Type")
        return
    expected = []
    for bbie in abie["bbies"]:
        type_ref = (_type_namespace(spec, bbie["type"]), f"{bbie['type']}Type")
        expected.append(("name", bbie["name"], type_ref, multiplicity_bounds(bbie["mult"])))
    abies = {item["name"]: item for item in spec["abies"]}
    for asbie in abie["asbies"]:
        target = abies[asbie["target"]]
        name = f"{asbie['role']}{target['name']}"
        type_ref = (namespace_of(spec, target["lib"]), f"{target['name']}Type")
        bounds = multiplicity_bounds(asbie["mult"])
        if asbie["shared"]:
            expected.append(("ref", name, (ns, name), bounds))
            declared = schema.elements.get(name)
            if declared is None or schema.qname(declared.get("type")) != type_ref:
                findings.append(f"{ns}: shared aggregation {name} has no global element of {type_ref[1]}")
        else:
            expected.append(("name", name, type_ref, bounds))
    sequence = type_node.find(f"{_X}sequence")
    actual = []
    for node in (sequence if sequence is not None else []):
        if node.tag != f"{_X}element":
            actual.append(("?", node.tag, ("", ""), (0, 0)))
        elif node.get("ref"):
            ref = schema.qname(node.get("ref"))
            actual.append(("ref", ref[1], ref, _occurs(node)))
        else:
            actual.append(("name", node.get("name"), schema.qname(node.get("type")), _occurs(node)))
    if actual != expected:
        findings.append(f"{ns}: {abie['name']}Type content {actual} != spec {expected}")


def check_schemas(spec: dict, texts: dict[str, str]) -> list[str]:
    """Findings of the generated ``texts`` (name -> XSD) against ``spec``."""
    findings: list[str] = []
    schemas = _parse_all(texts, findings)
    for key, library in spec["libraries"].items():
        if key == "cc":
            continue
        ns = namespace_of(spec, key)
        schema = schemas.get(ns)
        if schema is None:
            findings.append(f"no schema for library {library['name']} ({ns})")
            continue
        if schema.version != library["version"]:
            findings.append(f"{ns}: version {schema.version} != tagged {library['version']}")
        for imported, location in schema.imports.items():
            target = schemas.get(imported)
            if target is None:
                findings.append(f"{ns}: imports unknown namespace {imported}")
                continue
            file_name = posixpath.basename(location)
            suffix = f"_{imported.rsplit(':', 1)[-1]}_{target.version}.xsd"
            if not file_name.endswith(suffix):
                findings.append(f"{ns}: import location {location} does not name {suffix}")
        referenced = schema.referenced_namespaces()
        if referenced != set(schema.imports):
            findings.append(f"{ns}: imports {sorted(schema.imports)} != referenced {sorted(referenced)}")
    by_lib: dict[str, int] = {}
    for abie in spec["abies"] + [spec["root"]]:
        by_lib[abie["lib"]] = by_lib.get(abie["lib"], 0) + 1
        _check_aggregate(spec, abie, schemas, findings)
    for key, count in by_lib.items():
        schema = schemas.get(namespace_of(spec, key))
        if schema is not None and key in ("bie", "doc") and len(schema.complex_types) != count:
            findings.append(f"{schema.namespace}: {len(schema.complex_types)} complexTypes, spec has {count} ABIEs")
    root = spec["root"]
    doc = schemas.get(namespace_of(spec, root["lib"]))
    if doc is not None:
        declared = doc.elements.get(root["name"])
        if declared is None or doc.qname(declared.get("type")) != (doc.namespace, f"{root['name']}Type"):
            findings.append(f"{doc.namespace}: no global root element {root['name']}")
    for enum in spec.get("enums", ()):
        schema = schemas.get(namespace_of(spec, "enum"))
        node = schema.simple_types.get(f"{enum['name']}Type") if schema else None
        if node is None:
            findings.append(f"no simpleType {enum['name']}Type")
            continue
        restriction = node.find(f"{_X}restriction")
        codes = [facet.get("value") for facet in restriction.findall(f"{_X}enumeration")]
        if codes != enum["codes"]:
            findings.append(f"{enum['name']}Type facets {codes} != codes {enum['codes']}")
    for name, info in spec["types"].items() if "enums" in spec else ():
        schema = schemas.get(namespace_of(spec, info["lib"]))
        node = schema.complex_types.get(f"{name}Type") if schema else None
        extension = node.find(f"{_X}simpleContent/{_X}extension") if node is not None else None
        if extension is None:
            findings.append(f"no simpleContent extension {name}Type")
            continue
        if info["lib"] == "qdt":
            want = (namespace_of(spec, "enum"), f"{info['enum']}Type")
        else:
            want = (XSD, "string")
        if schema.qname(extension.get("base")) != want:
            findings.append(f"{name}Type extends {extension.get('base')}, spec says {want}")
        attrs = [(a.get("name"), a.get("use")) for a in extension.findall(f"{_X}attribute")]
        if attrs != [(attr, "optional") for attr in info["optional_attrs"]]:
            findings.append(f"{name}Type attributes {attrs} != {info['optional_attrs']}")
    return findings


def check_easybiz(texts: dict[str, str]) -> list[str]:
    """:func:`check_schemas` for the Figure-4 model plus Figures 6-8 facts."""
    findings = check_schemas(EASYBIZ_SPEC, texts)
    schemas = _parse_all(texts, [])
    doc = schemas.get(namespace_of(EASYBIZ_SPEC, "doc"))
    if doc is None:
        return findings + ["Figure 6: no EB005-HoardingPermit schema"]
    # Figure 6: the DOC schema's import prefixes.
    for prefix, library in (("cdt1", "types:draft:coredatatypes"),
                            ("qdt1", "types:draft:CommonDataTypes"),
                            ("commonAggregates", "data:draft:CommonAggregates"),
                            ("bie2", "data:draft:LocalLawAggregates")):
        if doc.prefixes.get(prefix) != f"{EASYBIZ_SPEC['base_urn']}:{library}":
            findings.append(f"Figure 6: prefix {prefix} is {doc.prefixes.get(prefix)}")
    # Figure 7: the shared aggregation is a ref to a global element.
    common = schemas.get(namespace_of(EASYBIZ_SPEC, "common"))
    person = common.complex_types.get("Person_IdentificationType") if common else None
    refs = [n.get("ref") for n in person.iter(f"{_X}element")] if person is not None else []
    if "commonAggregates:AssignedAddress" not in refs:
        findings.append(f"Figure 7: Person_IdentificationType refs {refs}")
    # Figure 8: the Code CDT's content and supplementary components.
    cdt = schemas.get(f"{EASYBIZ_SPEC['base_urn']}:types:draft:coredatatypes")
    code = cdt.complex_types.get("CodeType") if cdt else None
    extension = code.find(f"{_X}simpleContent/{_X}extension") if code is not None else None
    attrs = (
        [(a.get("name"), a.get("use")) for a in extension.findall(f"{_X}attribute")]
        if extension is not None else []
    )
    want = [("CodeListAgName", "required"), ("CodeListName", "required"),
            ("CodeListSchemeURI", "required"), ("LanguageIdentifier", "optional")]
    if extension is None or cdt.qname(extension.get("base")) != (XSD, "string") or attrs != want:
        findings.append(f"Figure 8: CodeType attributes {attrs}")
    return findings


def check_report(expected: list[dict], report: dict) -> list[str]:
    """Findings of one validation report against its documents' ground truth.

    ``expected`` holds ``{"name", "mutation", "path"}`` per document sent,
    in order; ``mutation`` is None for a valid document and ``"deep"`` for
    the hostile one, whose correct outcome is an entry with an error.
    """
    entries = report.get("documents")
    if not isinstance(entries, list) or len(entries) != len(expected):
        count = len(entries) if isinstance(entries, list) else None
        return [f"{count} report entries for {len(expected)} documents"]
    findings = []
    invalid = 0
    for want, entry in zip(expected, entries):
        name = want["name"]
        if posixpath.basename(str(entry.get("path"))) != name:
            findings.append(f"entry {entry.get('path')} where {name} was sent")
            continue
        invalid += not entry.get("ok")
        if want["mutation"] is None:
            if not entry.get("ok") or entry.get("problems") or "error" in entry:
                findings.append(f"{name}: valid document judged {entry}")
        elif want["mutation"] == "deep":
            if entry.get("ok") or not entry.get("error"):
                findings.append(f"{name}: deep document has no located error: {entry}")
        elif entry.get("ok") or "error" in entry:
            findings.append(f"{name}: {want['mutation']} at {want['path']} judged {entry}")
        elif not any(p.get("path") == want["path"] for p in entry.get("problems", ())):
            findings.append(f"{name}: no problem at {want['path']}: {entry['problems']}")
    if report.get("docs_total") != len(expected) or report.get("docs_invalid") != invalid:
        findings.append(
            f"totals {report.get('docs_total')}/{report.get('docs_invalid')} "
            f"!= {len(expected)}/{invalid}"
        )
    return findings
