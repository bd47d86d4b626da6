"""Conjunctive queries over the triple table ``t(s, p, o)`` (Definition 2.1).

A query term is a :class:`Variable` or an RDF term (URI / literal / blank
node) acting as a constant. Blank nodes in queries behave exactly like
existential variables (Section 2), so parsers translate them to variables;
the model itself treats any RDF term as an opaque constant.

Heads are tuples of variables or constants: reformulation (Section 4.2,
Table 2) binds head variables to constants, e.g. ``q4(X1, isLocatIn)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Union

from repro.rdf.terms import Term, is_term

ATTRIBUTES = ("s", "p", "o")


@dataclass(frozen=True, slots=True)
class Variable:
    """A query variable; free (head) or existential depending on usage."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be non-empty")

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


QueryTerm = Union[Variable, Term]

_FRESH_COUNTER = itertools.count()


def fresh_variable(prefix: str = "F") -> Variable:
    """A globally fresh variable, used by transitions and reformulation."""
    return Variable(f"{prefix}{next(_FRESH_COUNTER)}")


def is_variable(term: object) -> bool:
    """True when ``term`` is a query variable."""
    return isinstance(term, Variable)


@dataclass(frozen=True, slots=True)
class Atom:
    """A triple atom ``t(s, p, o)`` whose terms are variables or constants."""

    s: QueryTerm
    p: QueryTerm
    o: QueryTerm

    def __post_init__(self) -> None:
        for term in (self.s, self.p, self.o):
            if not isinstance(term, Variable) and not is_term(term):
                raise TypeError(f"atom term must be a Variable or RDF term: {term!r}")

    def terms(self) -> tuple[QueryTerm, QueryTerm, QueryTerm]:
        """The three terms in ``(s, p, o)`` order."""
        return (self.s, self.p, self.o)

    def __iter__(self) -> Iterator[QueryTerm]:
        return iter((self.s, self.p, self.o))

    def term_at(self, attribute: str) -> QueryTerm:
        """Term at attribute ``'s'`` / ``'p'`` / ``'o'``."""
        return self.terms()[ATTRIBUTES.index(attribute)]

    def variables(self) -> set[Variable]:
        """The variables occurring in this atom."""
        return {term for term in self if isinstance(term, Variable)}

    def constants(self) -> set[Term]:
        """The constants occurring in this atom."""
        return {term for term in self if not isinstance(term, Variable)}

    def substitute(self, mapping: Mapping[Variable, QueryTerm]) -> "Atom":
        """Apply a variable substitution to all three positions."""
        return Atom(*(mapping.get(t, t) if isinstance(t, Variable) else t for t in self))

    def replace_at(self, attribute: str, term: QueryTerm) -> "Atom":
        """A copy with the term at ``attribute`` replaced by ``term``."""
        parts = list(self.terms())
        parts[ATTRIBUTES.index(attribute)] = term
        return Atom(*parts)

    def __str__(self) -> str:
        return f"t({', '.join(_render_term(t) for t in self)})"


def _render_term(term: QueryTerm) -> str:
    if isinstance(term, Variable):
        return term.name
    return term.n3()


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query: a head and a conjunction of triple atoms.

    Queries must be *safe*: every head variable occurs in the body.
    Minimality and connectedness are not enforced at construction (the
    transitions need intermediate forms); use :func:`repro.query.containment.minimize`
    and :meth:`is_connected` where the paper's assumptions matter.

    ``non_literal`` lists variables that must never bind to literals.
    Reformulation rule 4 needs it: the rewritten atom ``t(X, p, o)``
    stands for the subject ``o`` of an entailed type triple, and a
    literal can never be the subject of a well-formed triple. The
    evaluators enforce the restriction; it is part of query identity.
    """

    head: tuple[QueryTerm, ...]
    atoms: tuple[Atom, ...]
    name: str = field(default="q", compare=False)
    non_literal: frozenset[Variable] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("a conjunctive query needs at least one atom")
        body_vars = self.variables()
        for term in self.head:
            if isinstance(term, Variable) and term not in body_vars:
                raise ValueError(
                    f"unsafe query {self.name}: head variable {term} not in body"
                )
        if self.non_literal - body_vars:
            # Restrictions on absent variables are meaningless; keeping
            # them would also break canonical forms.
            object.__setattr__(
                self, "non_literal", frozenset(self.non_literal & body_vars)
            )

    def __hash__(self) -> int:
        # Queries key every prepared-plan cache and get re-hashed on
        # each lookup; memoizing keeps batch-sized cache keys O(1).
        # Mirrors the generated dataclass hash (``name`` compares False).
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.head, self.atoms, self.non_literal))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> dict:
        # The underscore entries of ``__dict__`` memoize derivations of
        # this object for this process (its hash; the selection layer's
        # canonical token, adjacency and body signature). A token names
        # an entry of the process's intern table, so none of them may
        # travel to a worker with the pickled query.
        return {
            name: value
            for name, value in self.__dict__.items()
            if not name.startswith("_")
        }

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of atoms — ``len(v)`` in the paper's cost formulas."""
        return len(self.atoms)

    def variables(self) -> set[Variable]:
        """All variables occurring in the body."""
        found: set[Variable] = set()
        for atom in self.atoms:
            found.update(atom.variables())
        return found

    def head_variables(self) -> set[Variable]:
        """The variables occurring in the head (free variables)."""
        return {term for term in self.head if isinstance(term, Variable)}

    def existential_variables(self) -> set[Variable]:
        """Body variables not exported by the head."""
        return self.variables() - self.head_variables()

    def constants(self) -> set[Term]:
        """All constants occurring in the body."""
        found: set[Term] = set()
        for atom in self.atoms:
            found.update(atom.constants())
        return found

    def constant_occurrences(self) -> list[tuple[int, str, Term]]:
        """All ``(atom index, attribute, constant)`` occurrences in the body."""
        occurrences = []
        for index, atom in enumerate(self.atoms):
            for attribute, term in zip(ATTRIBUTES, atom):
                if not isinstance(term, Variable):
                    occurrences.append((index, attribute, term))
        return occurrences

    def join_graph_edges(self) -> list[tuple[int, str, int, str]]:
        """Join edges ``(i, ai, j, aj)``, i < j, for every pair of positions
        in distinct atoms holding the same variable (Definition 3.1)."""
        edges = []
        for i, j in itertools.combinations(range(len(self.atoms)), 2):
            for ai, term_i in zip(ATTRIBUTES, self.atoms[i]):
                if not isinstance(term_i, Variable):
                    continue
                for aj, term_j in zip(ATTRIBUTES, self.atoms[j]):
                    if term_i == term_j:
                        edges.append((i, ai, j, aj))
        return edges

    def is_connected(self) -> bool:
        """True when the join graph is connected (no Cartesian products)."""
        if len(self.atoms) <= 1:
            return True
        adjacency: dict[int, set[int]] = {i: set() for i in range(len(self.atoms))}
        for i, _, j, _ in self.join_graph_edges():
            adjacency[i].add(j)
            adjacency[j].add(i)
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for neighbour in adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return len(seen) == len(self.atoms)

    def connected_components(self) -> list[list[int]]:
        """Atom-index components of the join graph, in first-atom order."""
        adjacency: dict[int, set[int]] = {i: set() for i in range(len(self.atoms))}
        for i, _, j, _ in self.join_graph_edges():
            adjacency[i].add(j)
            adjacency[j].add(i)
        seen: set[int] = set()
        components: list[list[int]] = []
        for start in range(len(self.atoms)):
            if start in seen:
                continue
            component = [start]
            seen.add(start)
            frontier = [start]
            while frontier:
                node = frontier.pop()
                for neighbour in adjacency[node]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        component.append(neighbour)
                        frontier.append(neighbour)
            components.append(sorted(component))
        return components

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------

    def substitute(self, mapping: Mapping[Variable, QueryTerm]) -> "ConjunctiveQuery":
        """Apply a substitution to head and body.

        A non-literal restriction follows the variable it constrains; a
        restricted variable substituted by another variable transfers
        the restriction, one substituted by a constant drops it (the
        constant either is a literal — the query is unsatisfiable and
        evaluation handles it — or trivially satisfies it).
        """
        new_head = tuple(
            mapping.get(t, t) if isinstance(t, Variable) else t for t in self.head
        )
        new_atoms = tuple(atom.substitute(mapping) for atom in self.atoms)
        restricted = frozenset(
            image
            for variable in self.non_literal
            for image in (mapping.get(variable, variable),)
            if isinstance(image, Variable)
        )
        return ConjunctiveQuery(
            new_head, new_atoms, name=self.name, non_literal=restricted
        )

    def replace_atom(self, index: int, atom: Atom) -> "ConjunctiveQuery":
        """A copy with the atom at ``index`` replaced."""
        atoms = list(self.atoms)
        atoms[index] = atom
        return ConjunctiveQuery(
            self.head, tuple(atoms), name=self.name, non_literal=self.non_literal
        )

    def with_name(self, name: str) -> "ConjunctiveQuery":
        """A copy carrying a different name (names do not affect equality)."""
        return ConjunctiveQuery(
            self.head, self.atoms, name=name, non_literal=self.non_literal
        )

    def with_head(self, head: Iterable[QueryTerm]) -> "ConjunctiveQuery":
        """A copy with a different head."""
        return ConjunctiveQuery(
            tuple(head), self.atoms, name=self.name, non_literal=self.non_literal
        )

    def with_non_literal(self, variables: Iterable[Variable]) -> "ConjunctiveQuery":
        """A copy with additional non-literal binding restrictions."""
        return ConjunctiveQuery(
            self.head,
            self.atoms,
            name=self.name,
            non_literal=self.non_literal | frozenset(variables),
        )

    def rename_apart(self, taken: set[Variable]) -> "ConjunctiveQuery":
        """A copy whose variables are disjoint from ``taken``."""
        mapping: dict[Variable, Variable] = {}
        for variable in sorted(self.variables(), key=lambda v: v.name):
            if variable in taken:
                mapping[variable] = fresh_variable(variable.name + "_")
        if not mapping:
            return self
        return self.substitute(mapping)

    def __str__(self) -> str:
        head = ", ".join(_render_term(t) for t in self.head)
        body = ", ".join(str(atom) for atom in self.atoms)
        return f"{self.name}({head}) :- {body}"


class UnionQuery:
    """A union of conjunctive queries sharing one head arity.

    Reformulation (Algorithm 1) outputs unions; pre-reformulation states
    use them as views and rewritings.

    A union built by :meth:`deferred` — what
    :func:`repro.reformulation.reformulate` returns — also carries the
    ``source`` query and ``schema`` it stands for, and expands its
    ``disjuncts`` only on first access. The engine's interpreted route
    evaluates such a union from its source, factorised, and never
    expands it. Both forms follow the schema as it is when they are
    read: a schema only grows, and the expansion is redone when its
    size has moved. Equality and hashing compare disjuncts; ``name``,
    ``source`` and ``schema`` take no part in them.
    """

    __slots__ = ("_disjuncts", "_expand", "_size", "name", "source", "schema")

    def __init__(
        self, disjuncts: Iterable[ConjunctiveQuery], name: str = "q"
    ) -> None:
        disjuncts = tuple(disjuncts)
        if not disjuncts:
            raise ValueError("a union query needs at least one disjunct")
        arities = {len(cq.head) for cq in disjuncts}
        if len(arities) != 1:
            raise ValueError(f"union disjuncts disagree on head arity: {arities}")
        self._disjuncts: tuple[ConjunctiveQuery, ...] | None = disjuncts
        self._expand = None
        self._size = 0
        self.name = name
        self.source: ConjunctiveQuery | None = None
        self.schema = None

    @classmethod
    def deferred(cls, source: ConjunctiveQuery, schema, expand) -> "UnionQuery":
        """The union ``expand(source, schema)`` returns, not yet expanded."""
        union = cls.__new__(cls)
        union._disjuncts = None
        union._expand = expand
        union._size = 0
        union.name = source.name
        union.source = source
        union.schema = schema
        return union

    @property
    def disjuncts(self) -> tuple[ConjunctiveQuery, ...]:
        """The disjuncts, expanded on first access for a deferred union."""
        if self._expand is not None and (
            self._disjuncts is None or self._size != len(self.schema)
        ):
            self._size = len(self.schema)
            self._disjuncts = tuple(self._expand(self.source, self.schema))
        return self._disjuncts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnionQuery):
            return NotImplemented
        return self.disjuncts == other.disjuncts

    def __hash__(self) -> int:
        return hash(self.disjuncts)

    def __repr__(self) -> str:
        return f"UnionQuery(disjuncts={self.disjuncts!r}, name={self.name!r})"

    @property
    def arity(self) -> int:
        """Common head arity of the disjuncts."""
        if self.source is not None:
            return len(self.source.head)
        return len(self.disjuncts[0].head)

    def __len__(self) -> int:
        """Number of disjuncts."""
        return len(self.disjuncts)

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        return iter(self.disjuncts)

    def total_atoms(self) -> int:
        """Total number of atoms across disjuncts (``#a`` in Table 3)."""
        return sum(len(cq) for cq in self.disjuncts)

    def total_constants(self) -> int:
        """Total constant occurrences across disjuncts (``#c`` in Table 3)."""
        return sum(len(cq.constant_occurrences()) for cq in self.disjuncts)

    def __str__(self) -> str:
        return "\n  UNION ".join(str(cq) for cq in self.disjuncts)
