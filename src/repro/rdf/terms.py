"""RDF term model: URIs, literals, and blank nodes.

Terms are small immutable value objects. They are hashable so they can be
dictionary-encoded (:mod:`repro.rdf.dictionary`) and used as keys in the
store indexes (:mod:`repro.rdf.store`).

A term computes its hash once, when it is built: answer sets hash every
term of every answer tuple. The value is the one a frozen dataclass
generates — the hash of the tuple of its fields — so sets of terms
iterate in the same order as they would without the cache. A term
pickles through its constructor, so the receiving process (which may
run under another ``PYTHONHASHSEED``) computes the hash anew:

>>> import pickle
>>> a, b = URI("http://e/a"), URI("http://e/a")
>>> a == b and hash(a) == hash(b) == hash(("http://e/a",))
True
>>> back = pickle.loads(pickle.dumps(a))
>>> back == a and hash(back) == hash(a)
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union


@dataclass(frozen=True, slots=True)
class URI:
    """A Uniform Resource Identifier reference.

    The ``value`` is kept verbatim; no IRI normalization is attempted
    (the paper's datasets use opaque URIs).
    """

    value: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.value:
            raise ValueError("URI value must be a non-empty string")
        object.__setattr__(self, "_hash", hash((self.value,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return URI, (self.value,)

    def n3(self) -> str:
        """Render in N-Triples syntax."""
        return f"<{self.value}>"

    def __str__(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return f"URI({self.value!r})"


@dataclass(frozen=True, slots=True)
class Literal:
    """An RDF literal (a value), optionally tagged with a datatype URI.

    Language tags are supported through ``language``; a literal has at most
    one of ``datatype`` / ``language`` per the RDF specification.
    """

    lexical: str
    datatype: URI | None = None
    language: str | None = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.datatype is not None and self.language is not None:
            raise ValueError("a literal cannot have both a datatype and a language tag")
        object.__setattr__(
            self, "_hash", hash((self.lexical, self.datatype, self.language))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Literal, (self.lexical, self.datatype, self.language)

    def n3(self) -> str:
        """Render in N-Triples syntax."""
        escaped = (
            self.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        rendered = f'"{escaped}"'
        if self.language is not None:
            return f"{rendered}@{self.language}"
        if self.datatype is not None:
            return f"{rendered}^^{self.datatype.n3()}"
        return rendered

    def __str__(self) -> str:
        return self.lexical

    def __repr__(self) -> str:
        extras = ""
        if self.datatype is not None:
            extras = f", datatype={self.datatype!r}"
        elif self.language is not None:
            extras = f", language={self.language!r}"
        return f"Literal({self.lexical!r}{extras})"


@dataclass(frozen=True, slots=True)
class BlankNode:
    """A blank node: a placeholder for an unknown URI or literal.

    From a database perspective blank nodes behave as existential
    variables in the data (Section 2 of the paper): two triples referring
    to the same blank node label join on it.
    """

    label: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("blank node label must be a non-empty string")
        object.__setattr__(self, "_hash", hash((self.label,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return BlankNode, (self.label,)

    def n3(self) -> str:
        """Render in N-Triples syntax."""
        return f"_:{self.label}"

    def __str__(self) -> str:
        return f"_:{self.label}"

    def __repr__(self) -> str:
        return f"BlankNode({self.label!r})"


Term = Union[URI, Literal, BlankNode]


def is_term(value: object) -> bool:
    """Return True if ``value`` is an RDF term."""
    return isinstance(value, (URI, Literal, BlankNode))


def term_to_parts(term: Term) -> tuple[str, str, str | None, str | None]:
    """Flatten a term to ``(kind, value, datatype, language)`` parts.

    The canonical structural codec: exact for every term (no rendering
    or parsing involved). Store snapshots persist dictionary entries
    through it; extend it (and :func:`term_from_parts`) first when a
    term type grows a new attribute.
    """
    if isinstance(term, URI):
        return ("uri", term.value, None, None)
    if isinstance(term, Literal):
        datatype = term.datatype.value if term.datatype is not None else None
        return ("literal", term.lexical, datatype, term.language)
    if isinstance(term, BlankNode):
        return ("bnode", term.label, None, None)
    raise ValueError(f"cannot serialize non-term value {term!r}")


def term_from_parts(
    kind: str, value: str, datatype: str | None, language: str | None
) -> Term:
    """Rebuild a term from its parts (exact inverse of term_to_parts)."""
    if kind == "uri":
        return URI(value)
    if kind == "literal":
        return Literal(
            value,
            datatype=URI(datatype) if datatype is not None else None,
            language=language,
        )
    if kind == "bnode":
        return BlankNode(value)
    raise ValueError(f"unknown term kind {kind!r}")
