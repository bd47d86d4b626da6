"""RDF Schema model: the four semantic relationships of Table 1.

An :class:`RDFSchema` is a set of statements of the forms

* ``(c1, rdfs:subClassOf, c2)``
* ``(p1, rdfs:subPropertyOf, p2)``
* ``(p, rdfs:domain, c)``
* ``(p, rdfs:range, c)``

with accessors for both the *direct* statements (what Algorithm 1
iterates over) and their *transitive closures* (what saturation needs).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from repro.rdf import vocabulary
from repro.rdf.terms import URI
from repro.rdf.triples import Triple


class SchemaKind(Enum):
    """The four RDFS relationship kinds of Table 1."""

    SUBCLASS = "rdfs:subClassOf"
    SUBPROPERTY = "rdfs:subPropertyOf"
    DOMAIN = "rdfs:domain"
    RANGE = "rdfs:range"


_KIND_TO_PROPERTY = {
    SchemaKind.SUBCLASS: vocabulary.RDFS_SUBCLASSOF,
    SchemaKind.SUBPROPERTY: vocabulary.RDFS_SUBPROPERTYOF,
    SchemaKind.DOMAIN: vocabulary.RDFS_DOMAIN,
    SchemaKind.RANGE: vocabulary.RDFS_RANGE,
}
_PROPERTY_TO_KIND = {uri: kind for kind, uri in _KIND_TO_PROPERTY.items()}


@dataclass(frozen=True, slots=True)
class SchemaStatement:
    """One RDFS statement, e.g. ``painting rdfs:subClassOf picture``."""

    kind: SchemaKind
    left: URI
    right: URI

    def as_triple(self) -> Triple:
        """The statement as an RDF triple."""
        return Triple(self.left, _KIND_TO_PROPERTY[self.kind], self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.kind.value} {self.right}"


class RDFSchema:
    """A set of RDFS statements with direct and transitive accessors."""

    def __init__(self, statements: Iterable[SchemaStatement] = ()) -> None:
        self._statements: list[SchemaStatement] = []
        self._seen: set[SchemaStatement] = set()
        # Direct adjacency, per kind, left -> rights ...
        self._sub_class: dict[URI, set[URI]] = {}
        self._sub_property: dict[URI, set[URI]] = {}
        self._domain: dict[URI, set[URI]] = {}
        self._range: dict[URI, set[URI]] = {}
        # ... and its inverse, right -> lefts, so the accessors Algorithm
        # 1 calls once per candidate are dictionary reads, not scans.
        self._subclasses_of: dict[URI, set[URI]] = {}
        self._subproperties_of: dict[URI, set[URI]] = {}
        self._domain_of: dict[URI, set[URI]] = {}
        self._range_of: dict[URI, set[URI]] = {}
        # Everything mentioned in a class / property position.
        self._classes: set[URI] = set()
        self._properties: set[URI] = set()
        for statement in statements:
            self.add(statement)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add(self, statement: SchemaStatement) -> bool:
        """Add a statement; returns False if it was already present."""
        if statement in self._seen:
            return False
        self._seen.add(statement)
        self._statements.append(statement)
        kind, left, right = statement.kind, statement.left, statement.right
        table, inverse = {
            SchemaKind.SUBCLASS: (self._sub_class, self._subclasses_of),
            SchemaKind.SUBPROPERTY: (self._sub_property, self._subproperties_of),
            SchemaKind.DOMAIN: (self._domain, self._domain_of),
            SchemaKind.RANGE: (self._range, self._range_of),
        }[kind]
        table.setdefault(left, set()).add(right)
        inverse.setdefault(right, set()).add(left)
        if kind is SchemaKind.SUBCLASS:
            self._classes.update((left, right))
        elif kind is SchemaKind.SUBPROPERTY:
            self._properties.update((left, right))
        else:
            self._properties.add(left)
            self._classes.add(right)
        return True

    def add_subclass(self, sub: URI, sup: URI) -> bool:
        """Declare ``sub rdfs:subClassOf sup``."""
        return self.add(SchemaStatement(SchemaKind.SUBCLASS, sub, sup))

    def add_subproperty(self, sub: URI, sup: URI) -> bool:
        """Declare ``sub rdfs:subPropertyOf sup``."""
        return self.add(SchemaStatement(SchemaKind.SUBPROPERTY, sub, sup))

    def add_domain(self, prop: URI, cls: URI) -> bool:
        """Declare ``prop rdfs:domain cls``."""
        return self.add(SchemaStatement(SchemaKind.DOMAIN, prop, cls))

    def add_range(self, prop: URI, cls: URI) -> bool:
        """Declare ``prop rdfs:range cls``."""
        return self.add(SchemaStatement(SchemaKind.RANGE, prop, cls))

    @classmethod
    def from_triples(cls, triples: Iterable[Triple]) -> "RDFSchema":
        """Build a schema from the RDFS statements found in ``triples``.

        Non-schema triples are ignored, so a full dataset can be passed.
        """
        schema = cls()
        for triple in triples:
            kind = _PROPERTY_TO_KIND.get(triple.p)  # type: ignore[arg-type]
            if kind is None:
                continue
            if isinstance(triple.s, URI) and isinstance(triple.o, URI):
                schema.add(SchemaStatement(kind, triple.s, triple.o))
        return schema

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of statements — the |S| of Theorem 4.1."""
        return len(self._statements)

    def __iter__(self) -> Iterator[SchemaStatement]:
        return iter(self._statements)

    def __contains__(self, statement: SchemaStatement) -> bool:
        return statement in self._seen

    def statements(self, kind: SchemaKind | None = None) -> list[SchemaStatement]:
        """All statements, optionally filtered by kind."""
        if kind is None:
            return list(self._statements)
        return [st for st in self._statements if st.kind == kind]

    @property
    def classes(self) -> set[URI]:
        """All classes mentioned anywhere in the schema."""
        return set(self._classes)

    @property
    def properties(self) -> set[URI]:
        """All properties mentioned anywhere in the schema."""
        return set(self._properties)

    # Direct accessors (what Algorithm 1's rule conditions consult).

    def direct_superclasses(self, cls: URI) -> set[URI]:
        """Classes ``c2`` with a direct ``cls rdfs:subClassOf c2`` statement."""
        return set(self._sub_class.get(cls, ()))

    def direct_subclasses(self, cls: URI) -> set[URI]:
        """Classes ``c1`` with a direct ``c1 rdfs:subClassOf cls`` statement."""
        return set(self._subclasses_of.get(cls, ()))

    def direct_superproperties(self, prop: URI) -> set[URI]:
        """Properties ``p2`` with a direct ``prop rdfs:subPropertyOf p2``."""
        return set(self._sub_property.get(prop, ()))

    def direct_subproperties(self, prop: URI) -> set[URI]:
        """Properties ``p1`` with a direct ``p1 rdfs:subPropertyOf prop``."""
        return set(self._subproperties_of.get(prop, ()))

    def domains(self, prop: URI) -> set[URI]:
        """Classes declared as domain of ``prop``."""
        return set(self._domain.get(prop, ()))

    def ranges(self, prop: URI) -> set[URI]:
        """Classes declared as range of ``prop``."""
        return set(self._range.get(prop, ()))

    def properties_with_domain(self, cls: URI) -> set[URI]:
        """Properties whose declared domain includes ``cls``."""
        return set(self._domain_of.get(cls, ()))

    def properties_with_range(self, cls: URI) -> set[URI]:
        """Properties whose declared range includes ``cls``."""
        return set(self._range_of.get(cls, ()))

    # Transitive accessors (what saturation consumes).

    def superclasses(self, cls: URI) -> set[URI]:
        """Strict transitive closure of ``rdfs:subClassOf`` above ``cls``."""
        return _reachable(cls, self._sub_class)

    def subclasses(self, cls: URI) -> set[URI]:
        """All classes transitively below ``cls`` (strict)."""
        return _reachable(cls, self._subclasses_of)

    def superproperties(self, prop: URI) -> set[URI]:
        """Strict transitive closure of ``rdfs:subPropertyOf`` above ``prop``."""
        return _reachable(prop, self._sub_property)

    def subproperties(self, prop: URI) -> set[URI]:
        """All properties transitively below ``prop`` (strict)."""
        return _reachable(prop, self._subproperties_of)

    def triples(self) -> list[Triple]:
        """All statements rendered as RDF triples."""
        return [statement.as_triple() for statement in self._statements]


def _reachable(start: URI, adjacency: dict[URI, set[URI]]) -> set[URI]:
    """Nodes strictly reachable from ``start`` following ``adjacency``."""
    found: set[URI] = set()
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for successor in adjacency.get(node, ()):
            if successor not in found:
                found.add(successor)
                frontier.append(successor)
    return found
