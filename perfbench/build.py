"""Builds the program's inputs from the stdlib specs of ``spec.py``.

This is input synthesis: it uses the program's modelling API the way a
modeller's tool would, and its cost is never part of a timed figure.
"""

from __future__ import annotations

from pathlib import Path

from repro.catalog import build_easybiz_model
from repro.catalog.primitives import add_standard_prim_library
from repro.ccts.derivation import derive_abie, derive_qdt
from repro.ccts.model import CctsModel
from repro.uml.association import AggregationKind
from repro.xmi import write_xmi
from repro.xsdgen import SchemaGenerator


def build_model(spec: dict) -> CctsModel:
    """The CCTS model a synthetic spec describes."""
    libs = spec["libraries"]
    model = CctsModel(spec["name"])
    business = model.add_business_library(spec["name"], spec["base_urn"])
    prims = add_standard_prim_library(business)
    string = prims.primitive("String").element

    enum_lib = business.add_enum_library(libs["enum"]["name"], version=libs["enum"]["version"])
    enums = {
        enum["name"]: enum_lib.add_enumeration(
            enum["name"], {code: f"Code {code}" for code in enum["codes"]}
        )
        for enum in spec["enums"]
    }
    cdt_lib = business.add_cdt_library(libs["cdt"]["name"], version=libs["cdt"]["version"])
    cdts = {}
    for name, info in spec["types"].items():
        if info["lib"] != "cdt":
            continue
        cdt = cdt_lib.add_cdt(name)
        cdt.set_content(string)
        for attr in info["optional_attrs"]:
            cdt.add_supplementary(attr, string, "0..1")
        cdts[name] = cdt
    qdt_lib = business.add_qdt_library(libs["qdt"]["name"], version=libs["qdt"]["version"])
    qdts = {
        name: derive_qdt(
            qdt_lib, cdts["Code"], name,
            keep_supplementaries={"CodeListName": "0..1"},
            content_enum=enums[info["enum"]],
        )
        for name, info in spec["types"].items()
        if info["lib"] == "qdt"
    }

    cc_lib = business.add_cc_library(libs["cc"]["name"], version=libs["cc"]["version"])
    bie_lib = business.add_bie_library(libs["bie"]["name"], version=libs["bie"]["version"])
    doc_lib = business.add_doc_library(libs["doc"]["name"], version=libs["doc"]["version"])
    targets = {"bie": bie_lib, "doc": doc_lib}
    aggregates = [spec["root"]] + list(spec["abies"])
    accs = {}
    for abie in aggregates:
        acc = cc_lib.add_acc(abie["name"])
        for bbie in abie["bbies"]:
            cdt = cdts["Code"] if bbie["type"] in qdts else cdts[bbie["type"]]
            acc.add_bcc(bbie["name"], cdt, bbie["mult"])
        accs[abie["name"]] = acc
    derived = {}
    # Targets first: the spec's associations only point to later ABIEs.
    for abie in reversed(aggregates):
        acc = accs[abie["name"]]
        asccs = [
            acc.add_ascc(
                asbie["role"], accs[asbie["target"]], asbie["mult"],
                AggregationKind.SHARED if asbie["shared"] else AggregationKind.COMPOSITE,
            )
            for asbie in abie["asbies"]
        ]
        derivation = derive_abie(targets[abie["lib"]], acc)
        for bbie in abie["bbies"]:
            derivation.include(bbie["name"], bbie["mult"], data_type=qdts.get(bbie["type"]))
        for asbie, ascc in zip(abie["asbies"], asccs):
            derivation.connect(
                asbie["role"], derived[asbie["target"]], asbie["mult"], based_on=ascc
            )
        derived[abie["name"]] = derivation.abie
    return model


def model_xmi(spec: dict) -> str:
    """The XMI text of a synthetic spec's model."""
    return write_xmi(build_model(spec).model)


def easybiz_xmi() -> str:
    """The XMI text of the paper's Figure-4 model."""
    return write_xmi(build_easybiz_model().model.model)


def write_schemas(xmi_text: str, library: str, root: str, out: Path) -> dict[str, str]:
    """Generate a DOC library's schemas, write them under ``out``, return them."""
    from repro.xmi import read_xmi

    model = CctsModel(model=read_xmi(xmi_text))
    result = SchemaGenerator(model).generate(library, root=root)
    texts = {}
    for generated in result.schemas.values():
        relative = f"{generated.namespace.folder}/{generated.namespace.file_name}"
        texts[relative] = generated.to_string()
        target = out / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(texts[relative], encoding="utf-8")
    return texts
