"""Instance-document validation against a set of generated schemas.

This is the consumer side of the paper's pipeline: "The schemas are then
used to validate XML messages exchanged during a business process."
:class:`SchemaSet` aggregates the schema documents a generation run
produced (one per library) and :func:`validate_instance` walks an instance
document, matching content models, attribute uses and simple-type facets.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Literal

from repro.errors import InstanceValidationError, SchemaError
from repro.xmlutil.qname import XML_NAMESPACE, QName, split_qname
from repro.xmlutil.writer import XmlElement, parse_xml
from repro.xsd import datatypes
from repro.xsd.components import (
    XSD_NS,
    AttributeDecl,
    AttributeUse,
    ComplexType,
    ElementDecl,
    Facet,
    Schema,
    SimpleType,
)
from repro.xsd.content_model import CompiledModel, MatchResult, match_backtracking
from repro.xsd.parser import parse_schema

Engine = Literal["nfa", "backtracking"]

#: Attributes the validator ignores on instance elements.  The XML
#: namespace is listed because ``xml:lang``/``xml:space`` are implicitly
#: available on any element without a schema declaration.
_IGNORED_ATTR_NAMESPACES = (
    "http://www.w3.org/2001/XMLSchema-instance",
    "http://www.w3.org/2000/xmlns/",
    XML_NAMESPACE,
)


#: Deepest element nesting an instance document may have (the root is
#: level 1).  Both engines walk documents recursively, so a deeper
#: document is rejected with a located error before validation instead of
#: exhausting the interpreter's stack mid-batch.
MAX_INSTANCE_DEPTH = 256


def _too_deep(line: int | None, column: int | None) -> InstanceValidationError:
    """The error both engines raise for the first start tag past the limit."""
    where = f": line {line}, column {column}" if line is not None else ""
    return InstanceValidationError(
        f"document nests deeper than {MAX_INSTANCE_DEPTH} elements{where}"
    )


@dataclass(frozen=True)
class ValidationProblem:
    """One validation finding: an element path plus a message."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass
class _ResolvedElement:
    """An instance element with names resolved to QNames."""

    qname: QName
    attributes: dict[QName, str]
    children: list["_ResolvedElement"]
    text: str


def _resolve_instance(
    element: XmlElement, inherited: dict[str | None, str], depth: int = 1
) -> _ResolvedElement:
    if depth > MAX_INSTANCE_DEPTH:
        raise _too_deep(element.source_line, element.source_column)
    scope = dict(inherited)
    plain_attrs: list[tuple[str, str]] = []
    for name, value in element.attributes.items():
        if name == "xmlns":
            scope[None] = value
        elif name.startswith("xmlns:"):
            scope[name[len("xmlns:"):]] = value
        else:
            plain_attrs.append((name, value))
    try:
        prefix, local = split_qname(element.tag)
    except ValueError as error:
        raise InstanceValidationError(str(error)) from None
    if prefix == "xml":
        # The xml prefix is implicitly bound and needs no declaration.
        namespace = XML_NAMESPACE
    else:
        namespace = scope.get(prefix, "") if prefix is not None else scope.get(None, "")
        if prefix is not None and prefix not in scope:
            raise InstanceValidationError(
                f"undeclared prefix {prefix!r} on element {element.tag!r}"
            )
    attributes: dict[QName, str] = {}
    for name, value in plain_attrs:
        try:
            attr_prefix, attr_local = split_qname(name)
        except ValueError as error:
            raise InstanceValidationError(str(error)) from None
        # Unprefixed attributes live in no namespace per the XML spec;
        # xml:* attributes live in the implicitly declared XML namespace.
        if attr_prefix == "xml":
            attr_namespace = XML_NAMESPACE
        elif attr_prefix is not None:
            attr_namespace = scope.get(attr_prefix, "")
        else:
            attr_namespace = ""
        attributes[QName(attr_namespace, attr_local)] = value
    return _ResolvedElement(
        qname=QName(namespace, local),
        attributes=attributes,
        children=[
            _resolve_instance(child, scope, depth + 1) for child in element.element_children
        ],
        text=element.text_content,
    )


class SchemaSet:
    """A namespace-indexed collection of schema documents."""

    def __init__(self, schemas: list[Schema] | None = None) -> None:
        self._by_namespace: dict[str, Schema] = {}
        self._model_cache: dict[int, CompiledModel] = {}
        for schema in schemas or []:
            self.add(schema)

    def add(self, schema: Schema) -> None:
        """Register a schema; later additions win on namespace collision."""
        self._by_namespace[schema.target_namespace] = schema

    @classmethod
    def from_files(cls, paths: list[str | Path]) -> "SchemaSet":
        """Load schema documents from disk."""
        schema_set = cls()
        for path in paths:
            schema_set.add(parse_schema(Path(path).read_text(encoding="utf-8")))
        return schema_set

    @classmethod
    def from_directory(cls, directory: str | Path) -> "SchemaSet":
        """Load every ``*.xsd`` under ``directory`` (recursively)."""
        return cls.from_files(sorted(Path(directory).rglob("*.xsd")))

    # -- lookups ---------------------------------------------------------------

    @property
    def namespaces(self) -> list[str]:
        """All registered target namespaces."""
        return list(self._by_namespace)

    def schema_for(self, namespace: str) -> Schema:
        """The schema with the given target namespace."""
        schema = self._by_namespace.get(namespace)
        if schema is None:
            raise SchemaError(f"no schema registered for namespace {namespace!r}")
        return schema

    def find_type(self, qname: QName) -> ComplexType | SimpleType | None:
        """The global type definition named ``qname``, if registered."""
        schema = self._by_namespace.get(qname.namespace)
        if schema is None:
            return None
        for item in schema.items:
            if isinstance(item, (ComplexType, SimpleType)) and item.name == qname.local:
                return item
        return None

    def find_global_element(self, qname: QName) -> ElementDecl | None:
        """The global element declaration named ``qname``, if registered."""
        schema = self._by_namespace.get(qname.namespace)
        if schema is None:
            return None
        for item in schema.global_elements:
            if item.name == qname.local:
                return item
        return None

    def compiled_model(self, complex_type: ComplexType, schema: Schema) -> CompiledModel:
        """The (cached) compiled content model of a complex type."""
        key = id(complex_type)
        model = self._model_cache.get(key)
        if model is None:
            model = CompiledModel(complex_type.particle, lambda decl: self.symbol_of(decl, schema))
            self._model_cache[key] = model
        return model

    def symbol_of(self, decl: ElementDecl, schema: Schema) -> QName:
        """The instance QName an element declaration matches."""
        if decl.is_ref:
            return decl.ref
        namespace = schema.target_namespace if schema.element_form_default == "qualified" else ""
        return QName(namespace, decl.name)


def validate_instance(
    schema_set: SchemaSet,
    document: XmlElement | str,
    engine: Engine = "nfa",
) -> list[ValidationProblem]:
    """Validate an instance document; returns all problems found (empty = valid)."""
    if isinstance(document, str):
        try:
            document = parse_xml(document)
        except Exception as error:
            raise InstanceValidationError(f"document is not well-formed XML: {error}") from error
    root = _resolve_instance(document, {})
    validator = _Validator(schema_set, engine)
    decl = schema_set.find_global_element(root.qname)
    if decl is None:
        return [
            ValidationProblem(
                f"/{root.qname.local}",
                f"no global element declaration for {root.qname.clark()}",
            )
        ]
    validator.validate_element(root, decl, schema_set.schema_for(root.qname.namespace), f"/{root.qname.local}")
    return validator.problems


def assert_valid(schema_set: SchemaSet, document: XmlElement | str) -> None:
    """Raise :class:`InstanceValidationError` when the document is invalid."""
    problems = validate_instance(schema_set, document)
    if problems:
        details = "; ".join(str(problem) for problem in problems[:10])
        raise InstanceValidationError(f"{len(problems)} validation problem(s): {details}")


class _Validator:
    """Stateful tree walker accumulating :class:`ValidationProblem` items."""

    def __init__(self, schema_set: SchemaSet, engine: Engine) -> None:
        self.schema_set = schema_set
        self.engine = engine
        self.problems: list[ValidationProblem] = []

    def _report(self, path: str, message: str) -> None:
        self.problems.append(ValidationProblem(path, message))

    # -- elements ----------------------------------------------------------------

    def validate_element(
        self, element: _ResolvedElement, decl: ElementDecl, schema: Schema, path: str
    ) -> None:
        if decl.is_ref:
            # Resolve in place instead of recursing: the walk already spends
            # three frames per document level, and MAX_INSTANCE_DEPTH levels
            # of a recursive type must fit the interpreter's stack.  The
            # target is named, so it is never a reference itself.
            target = self.schema_set.find_global_element(decl.ref)
            if target is None:
                self._report(path, f"dangling element reference {decl.ref.clark()}")
                return
            decl = target
        if decl.type is None:
            return  # anyType: accept anything
        self.validate_against_type(element, decl.type, path)

    def validate_against_type(self, element: _ResolvedElement, type_name: QName, path: str) -> None:
        if type_name.namespace == XSD_NS:
            self._validate_simple(element, type_name, [], path)
            return
        definition = self.schema_set.find_type(type_name)
        if definition is None:
            self._report(path, f"unresolved type {type_name.clark()}")
            return
        if isinstance(definition, SimpleType):
            self._validate_simple(element, type_name, [], path)
            return
        if definition.simple_content is not None:
            self._validate_simple_content(element, definition, path)
            return
        self._validate_complex(element, definition, type_name, path)

    def _validate_simple(
        self, element: _ResolvedElement, type_name: QName, facets: list[Facet], path: str
    ) -> None:
        """An element whose type is a built-in or a global simple type."""
        if element.children:
            self._report(path, f"simple-typed element must not have children")
        self._check_attributes(element, [], path)
        self._validate_simple_value(element.text, type_name, facets, path)

    # -- complex content --------------------------------------------------------------

    def _validate_complex(
        self, element: _ResolvedElement, definition: ComplexType, type_name: QName, path: str
    ) -> None:
        schema = self.schema_set.schema_for(type_name.namespace)
        if element.text.strip():
            self._report(path, f"unexpected character content in complex type {definition.name!r}")
        self._check_attributes(element, definition.attributes, path)
        tokens = [child.qname for child in element.children]
        if definition.particle is None:
            if tokens:
                self._report(path, f"type {definition.name!r} allows no children, found {len(tokens)}")
            return
        result = self._match(definition, schema, tokens)
        if not result.ok:
            self._report(path, result.describe_failure())
            return
        for child, child_decl in zip(element.children, result.assignments):
            child_path = f"{path}/{child.qname.local}"
            self.validate_element(child, child_decl, schema, child_path)

    def _match(self, definition: ComplexType, schema: Schema, tokens: list[QName]) -> MatchResult:
        if self.engine == "backtracking":
            return match_backtracking(
                definition.particle, tokens, lambda decl: self.schema_set.symbol_of(decl, schema)
            )
        return self.schema_set.compiled_model(definition, schema).match(tokens)

    # -- simple content -------------------------------------------------------------------

    def _validate_simple_content(
        self, element: _ResolvedElement, definition: ComplexType, path: str
    ) -> None:
        if element.children:
            self._report(path, f"type {definition.name!r} has simple content but children were found")
        base, attributes, facets = self._flatten_simple_content(definition, path)
        self._check_attributes(element, attributes, path)
        if base is not None:
            self._validate_simple_value(element.text, base, facets, path)

    def _flatten_simple_content(
        self, definition: ComplexType, path: str
    ) -> tuple[QName | None, list[AttributeDecl], list[Facet]]:
        """Walk the simpleContent derivation chain; returns (base, attrs, facets)."""
        content = definition.simple_content
        assert content is not None
        base = content.base
        facets = list(content.facets)
        if base.namespace == XSD_NS:
            return base, list(content.attributes), facets
        base_definition = self.schema_set.find_type(base)
        if base_definition is None:
            self._report(path, f"unresolved simpleContent base {base.clark()}")
            return None, list(content.attributes), facets
        if isinstance(base_definition, SimpleType):
            return base, list(content.attributes), facets
        if base_definition.simple_content is None:
            self._report(path, f"simpleContent base {base.clark()} is not a simple-content type")
            return None, list(content.attributes), facets
        inherited_base, inherited_attrs, inherited_facets = self._flatten_simple_content(
            base_definition, path
        )
        if content.derivation == "extension":
            merged = inherited_attrs + content.attributes
        else:
            by_name = {attribute.name: attribute for attribute in inherited_attrs}
            for attribute in content.attributes:
                by_name[attribute.name] = attribute
            merged = list(by_name.values())
        return inherited_base, merged, inherited_facets + facets

    # -- simple values ----------------------------------------------------------------------

    def _validate_simple_value(
        self, value: str, type_name: QName, extra_facets: list[Facet], path: str
    ) -> None:
        base, facets = self._flatten_simple_type(type_name, path)
        facets = facets + extra_facets
        if base is None:
            return
        normalized = datatypes.normalize_whitespace(base, value)
        if not datatypes.check_builtin(base, normalized):
            self._report(path, f"value {value!r} is not a valid {base.local}")
            return
        for problem in datatypes.check_facets(facets, normalized, base):
            self._report(path, problem)

    def _flatten_simple_type(self, type_name: QName, path: str) -> tuple[QName | None, list[Facet]]:
        """Resolve a simple type to its built-in base plus accumulated facets."""
        if type_name.namespace == XSD_NS:
            return type_name, []
        definition = self.schema_set.find_type(type_name)
        if definition is None:
            self._report(path, f"unresolved simple type {type_name.clark()}")
            return None, []
        if isinstance(definition, ComplexType):
            self._report(path, f"type {type_name.clark()} is complex where a simple type is required")
            return None, []
        base, facets = self._flatten_simple_type(definition.base, path)
        return base, facets + list(definition.facets)

    # -- attributes --------------------------------------------------------------------------

    def _check_attributes(
        self, element: _ResolvedElement, declared: list[AttributeDecl], path: str
    ) -> None:
        by_name = {attribute.name: attribute for attribute in declared}
        seen: set[str] = set()
        for qname, value in element.attributes.items():
            if qname.namespace in _IGNORED_ATTR_NAMESPACES:
                continue
            declaration = by_name.get(qname.local) if not qname.namespace else None
            if declaration is None:
                self._report(path, f"undeclared attribute {qname.clark()!r}")
                continue
            if declaration.use is AttributeUse.PROHIBITED:
                self._report(path, f"attribute {qname.local!r} is prohibited here")
                continue
            seen.add(qname.local)
            self._validate_simple_value(value, declaration.type, [], f"{path}/@{qname.local}")
        for attribute in declared:
            if attribute.use is AttributeUse.REQUIRED and attribute.name not in seen:
                self._report(path, f"missing required attribute {attribute.name!r}")
