"""Seeded inputs of the benchmark, described as plain data (stdlib only).

A *model spec* is a dict that says what a CCTS model contains: its
libraries, enumerations, qualified data types and aggregates (ABIEs) with
their fields (BBIEs) and associations (ASBIEs) and cardinalities.  The
benchmark builds the program's model from a spec (``build.py``) and checks
the generated schemas against the same spec (``checks.py``), so the
reference never comes from the code under test.

Instance documents are emitted from a spec with ``xml.etree`` alone.  A
mutated document records the kind of mutation and the path of the element
it changed, which is the ground truth its validation verdict is held to.
"""

from __future__ import annotations

import random
import xml.etree.ElementTree as ET

#: Depth of the hostile document; recursion on input depth fails here.
DEEP_LEVELS = 500

_WORDS = (
    "Party", "Address", "Contact", "Item", "Charge", "Tax", "Period",
    "Location", "Payment", "Shipment", "Account", "Note", "Event", "Term",
)
_TEXTS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf")


def multiplicity_bounds(mult: str) -> tuple[int, int | None]:
    """``"0..*"`` -> ``(0, None)``; ``"1"`` -> ``(1, 1)``."""
    if ".." in mult:
        low, high = mult.split("..")
    else:
        low = high = mult
    return int(low), (None if high == "*" else int(high))


# -- specs ---------------------------------------------------------------------


def synthetic_spec(seed: int, index: int, aggregates: int) -> dict:
    """A seeded synthetic model with ``aggregates`` ABIEs under one DOC root.

    Every library kind the generator has a builder for is present: ENUM,
    CDT, QDT, BIE and DOC (plus the CC and PRIM libraries a CCTS model
    needs).  Associations form a tree below the root, so instances stay
    finite; a quarter of them are shared aggregations, which the
    generator renders as a global element plus ``ref``.
    """
    rng = random.Random(f"spec:{seed}:{index}:{aggregates}")
    enums = []
    for number in range(3):
        codes = [f"k{number}{chr(97 + code)}" for code in range(rng.randint(3, 6))]
        enums.append({"name": f"Kind{number}_Code", "codes": codes})
    types = {
        "Text": {"lib": "cdt", "base": "string", "optional_attrs": ["LanguageIdentifier"]},
        "Identifier": {"lib": "cdt", "base": "string", "optional_attrs": ["SchemeID"]},
        "Code": {"lib": "cdt", "base": "string", "optional_attrs": ["CodeListName"]},
    }
    for number, enum in enumerate(enums):
        types[f"Kind{number}"] = {
            "lib": "qdt", "base": "enum", "enum": enum["name"], "codes": enum["codes"],
            "optional_attrs": ["CodeListName"],
        }
    abies = []
    for number in range(aggregates):
        bbies = []
        for field in range(5):
            type_name = rng.choice(["Text", "Text", "Identifier", f"Kind{rng.randrange(3)}"])
            mult = rng.choice(["0..1", "0..1", "0..1", "1", "0..*"])
            bbies.append({"name": f"P{field}", "type": type_name, "mult": mult})
        abies.append({
            "name": f"{rng.choice(_WORDS)}{number}",
            "lib": "bie",
            "bbies": bbies,
            "asbies": [],
        })
    # The association skeleton is the same for every seed (a binary tree
    # under the root), so the size of the documents does not swing with
    # the seed; the seed picks the fields, their types and cardinalities.
    top = min(4, aggregates)
    for number in range(top, aggregates):
        abies[(number - top) // 2]["asbies"].append({
            "role": f"R{number}",
            "target": abies[number]["name"],
            "mult": ("0..1", "0..*", "1", "0..1")[number % 4],
            "shared": number % 4 == 1,
        })
    root = {
        "name": "Document",
        "lib": "doc",
        "bbies": [{"name": "Title", "type": "Text", "mult": "0..1"},
                  {"name": "Reference", "type": "Identifier", "mult": "1"}],
        "asbies": [
            {"role": "Main", "target": abies[number]["name"],
             "mult": "1" if number == 0 else "0..*", "shared": False}
            for number in range(top)
        ],
    }
    name = f"Synth{index}"
    return {
        "name": name,
        "base_urn": f"urn:perfbench:s{seed}:m{index}",
        "libraries": {
            "enum": {"name": "Codes", "version": f"1.{rng.randrange(9)}"},
            "cdt": {"name": "DataTypes", "version": f"2.{rng.randrange(9)}"},
            "qdt": {"name": "CodeTypes", "version": f"0.{rng.randrange(1, 9)}"},
            "cc": {"name": "Components", "version": "1.0"},
            "bie": {"name": "Aggregates", "version": f"0.{rng.randrange(1, 9)}"},
            "doc": {"name": f"Doc{index}", "version": f"0.{rng.randrange(1, 9)}"},
        },
        "enums": enums,
        "types": types,
        "abies": abies,
        "root": root,
    }


#: The paper's Figure-4 document as a spec (HoardingPermit and the ABIEs it
#: reaches).  Used to emit instances; the schemas of this model are checked
#: against the paper's Figures 6-8 instead (``checks.check_easybiz``).
EASYBIZ_URN = "urn:au:gov:vic:easybiz"
EASYBIZ_DOC_NS = f"{EASYBIZ_URN}:data:draft:EB005-HoardingPermit"
_CODE_ATTRS = ["CodeListAgName", "CodeListName", "CodeListSchemeURI"]
EASYBIZ_SPEC = {
    "name": "EasyBiz",
    "base_urn": EASYBIZ_URN,
    "libraries": {
        "enum": {"name": "EnumerationTypes", "version": "1.0"},
        "cdt": {"name": "coredatatypes", "version": "1.0"},
        "qdt": {"name": "CommonDataTypes", "version": "0.1"},
        "doc": {"name": "EB005-HoardingPermit", "version": "0.4"},
        "common": {"name": "CommonAggregates", "version": "0.1"},
        "locallaw": {"name": "LocalLawAggregates", "version": "0.1"},
    },
    "types": {
        "Text": {"lib": "cdt", "base": "string", "optional_attrs": ["LanguageIdentifier"]},
        "Identifier": {"lib": "cdt", "base": "string",
                       "optional_attrs": ["IdentificationSchemeName"]},
        "Date": {"lib": "cdt", "base": "date-ish", "optional_attrs": []},
        "DateTime": {"lib": "cdt", "base": "datetime-ish", "optional_attrs": []},
        "BinaryObject": {"lib": "cdt", "base": "base64", "optional_attrs": ["BinaryObjectMimeCode"]},
        "Code": {"lib": "cdt", "base": "string", "required_attrs": _CODE_ATTRS,
                 "optional_attrs": ["LanguageIdentifier"]},
        "Indicator_Code": {"lib": "qdt", "base": "indicator", "required_attrs": _CODE_ATTRS},
        "RegistrationType_Code": {"lib": "qdt", "base": "string", "required_attrs": _CODE_ATTRS},
        "CountryType": {"lib": "qdt", "base": "enum", "codes": ["USA", "AUT", "AUS"],
                        "optional_attrs": ["CodeListName"]},
    },
    "abies": [
        {"name": "Signature", "lib": "common", "asbies": [], "bbies": [
            {"name": "Date", "type": "DateTime", "mult": "0..1"},
            {"name": "PersonName", "type": "Text", "mult": "0..1"},
            {"name": "SignatureData", "type": "BinaryObject", "mult": "0..1"}]},
        {"name": "Address", "lib": "common", "asbies": [], "bbies": [
            {"name": "CountryName", "type": "CountryType", "mult": "0..1"}]},
        {"name": "Person_Identification", "lib": "common",
         "bbies": [{"name": "Designation", "type": "Identifier", "mult": "1"}],
         "asbies": [
             {"role": "Personal", "target": "Signature", "mult": "1", "shared": False},
             {"role": "Assigned", "target": "Address", "mult": "1", "shared": True}]},
        {"name": "Application", "lib": "common", "asbies": [], "bbies": [
            {"name": "CreatedDate", "type": "Date", "mult": "0..1"},
            {"name": "Type", "type": "Code", "mult": "0..1"}]},
        {"name": "Attachment", "lib": "common", "asbies": [], "bbies": [
            {"name": "Description", "type": "Text", "mult": "0..1"}]},
        {"name": "Registration", "lib": "locallaw", "asbies": [], "bbies": [
            {"name": "Type", "type": "RegistrationType_Code", "mult": "0..1"}]},
    ],
    "root": {
        "name": "HoardingPermit", "lib": "doc",
        "bbies": [
            {"name": "ClosureReason", "type": "Text", "mult": "0..1"},
            {"name": "IsClosedFootpath", "type": "Indicator_Code", "mult": "0..1"},
            {"name": "IsClosedRoad", "type": "Indicator_Code", "mult": "0..1"},
            {"name": "SafetyPrecaution", "type": "Text", "mult": "0..1"}],
        "asbies": [
            {"role": "Included", "target": "Attachment", "mult": "0..*", "shared": False},
            {"role": "Current", "target": "Application", "mult": "0..1", "shared": False},
            {"role": "Included", "target": "Registration", "mult": "1", "shared": False},
            {"role": "Billing", "target": "Person_Identification", "mult": "0..1",
             "shared": False}],
    },
}


def namespace_of(spec: dict, lib_key: str) -> str:
    """The target namespace the NDR rules give a library of the spec."""
    kind = "types" if lib_key in ("enum", "cdt", "qdt") else "data"
    return f"{spec['base_urn']}:{kind}:draft:{spec['libraries'][lib_key]['name']}"


# -- documents -----------------------------------------------------------------


class Document:
    """One emitted instance: its text plus the mutation ground truth."""

    __slots__ = ("name", "text", "mutation", "path")

    def __init__(self, name: str, text: str, mutation: str | None, path: str | None) -> None:
        self.name = name
        self.text = text
        self.mutation = mutation  #: None for a valid document
        self.path = path  #: element path the mutation changed

    def expected(self) -> dict:
        return {"name": self.name, "mutation": self.mutation, "path": self.path}


def _value(type_info: dict, rng: random.Random) -> str:
    base = type_info["base"]
    if base == "enum":
        return rng.choice(type_info["codes"])
    if base == "indicator":
        return rng.choice(["true", "false"])
    if base == "date-ish":
        return f"2007-0{rng.randint(1, 9)}-1{rng.randint(0, 9)}"
    if base == "datetime-ish":
        return f"2007-04-1{rng.randint(0, 9)}T10:0{rng.randint(0, 9)}:00"
    if base == "base64":
        return rng.choice(["QUJD", "aGVsbG8=", "cGVyZmJlbmNo"])
    return f"{rng.choice(_TEXTS)} {rng.randint(1, 999)}"


class _Emitter:
    """Emits one instance of a spec's root element, tracking mutation sites."""

    def __init__(self, spec: dict, rng: random.Random) -> None:
        self.spec = spec
        self.rng = rng
        self.abies = {abie["name"]: abie for abie in spec["abies"]}
        self.types = spec["types"]
        self.code_sites: list[tuple[ET.Element, str]] = []
        self.complex_sites: list[tuple[ET.Element, str]] = []
        self.required_sites: list[tuple[ET.Element, ET.Element, str]] = []

    def _count(self, mult: str, optional_share: float) -> int:
        low, high = multiplicity_bounds(mult)
        if high == 1:
            return 1 if low == 1 or self.rng.random() < optional_share else 0
        return max(low, self.rng.choice([0, 1, 1, 2]))

    def element(self, abie: dict, tag: str, path: str) -> ET.Element:
        node = ET.Element(tag)
        self.complex_sites.append((node, path))
        ns = namespace_of(self.spec, abie["lib"])
        for bbie in abie["bbies"]:
            info = self.types[bbie["type"]]
            for _ in range(self._count(bbie["mult"], 0.6)):
                child = ET.SubElement(node, f"{{{ns}}}{bbie['name']}")
                child.text = _value(info, self.rng)
                for attr in info.get("required_attrs", ()):
                    child.set(attr, f"{attr[:4].lower()}{self.rng.randint(1, 9)}")
                for attr in info.get("optional_attrs", ()):
                    if self.rng.random() < 0.3:
                        child.set(attr, "en" if "Language" in attr else f"v{self.rng.randint(1, 9)}")
                child_path = f"{path}/{bbie['name']}"
                if info["base"] == "enum":
                    self.code_sites.append((child, child_path))
                if bbie["mult"].startswith("1"):
                    self.required_sites.append((node, child, path))
        for asbie in abie["asbies"]:
            target = self.abies[asbie["target"]]
            name = f"{asbie['role']}{target['name']}"
            for _ in range(self._count(asbie["mult"], 0.5)):
                child = self.element(target, f"{{{ns}}}{name}", f"{path}/{name}")
                node.append(child)
                if asbie["mult"].startswith("1"):
                    self.required_sites.append((node, child, path))
        return node


def emit_document(spec: dict, rng: random.Random, name: str, mutate: bool) -> Document:
    """One seeded instance of ``spec``'s root; ``mutate`` applies one fault.

    The mutation is one of: a code outside its enumeration (located at the
    coded element), an undeclared child element, or a dropped required
    child (both located at the element whose content changed).
    """
    emitter = _Emitter(spec, rng)
    root_spec = spec["root"]
    doc_ns = namespace_of(spec, root_spec["lib"])
    root = emitter.element(root_spec, f"{{{doc_ns}}}{root_spec['name']}", f"/{root_spec['name']}")
    mutation = path = None
    if mutate:
        kinds = ["unknown-child"]
        if emitter.code_sites:
            kinds.append("bad-code")
        if emitter.required_sites:
            kinds.append("drop-required")
        mutation = rng.choice(kinds)
        if mutation == "bad-code":
            node, path = rng.choice(emitter.code_sites)
            node.text = "not-a-listed-code"
        elif mutation == "unknown-child":
            node, path = rng.choice(emitter.complex_sites)
            node.insert(rng.randint(0, len(node)), ET.Element(f"{{{doc_ns}}}Unexpected"))
        else:
            parent, child, path = rng.choice(emitter.required_sites)
            parent.remove(child)
    text = ET.tostring(root, encoding="unicode")
    return Document(name, text, mutation, path)


def deep_document() -> str:
    """A ~4 KB HoardingPermit nested :data:`DEEP_LEVELS` elements deep.

    The same bytes for every seed.  A correct validator reports one
    located error for it; recursion on the input's depth does not.
    """
    inner = DEEP_LEVELS - 1
    return (
        f'<HoardingPermit xmlns="{EASYBIZ_DOC_NS}">' + "<a>" * inner + "</a>" * inner
        + "</HoardingPermit>"
    )
