"""RDF term model: URIs, literals, and blank nodes.

Terms are small immutable value objects. They are hashable so they can be
dictionary-encoded (:mod:`repro.rdf.dictionary`) and used as keys in the
store indexes (:mod:`repro.rdf.store`).

A term is a ``tuple`` of its fields: ``(value,)`` for a URI,
``(lexical, datatype, language)`` for a literal, ``(label,)`` for a
blank node. Answer sets hash every term of every answer tuple, and a
term hashes as that tuple, in C, with no Python frame. The value is the
one a frozen dataclass of the same fields generates, so sets of terms
iterate in the same order as they did when terms were dataclasses.

The tuple is how a term is stored, not what it means. The fields are
read-only properties; a term equals only a term of its own class with
equal fields, never a plain tuple; and terms have no order. A term
pickles through its constructor, so the receiving process (which may
run under another ``PYTHONHASHSEED``) hashes it anew:

>>> import pickle
>>> a, b = URI("http://e/a"), URI("http://e/a")
>>> a == b and hash(a) == hash(b) == hash(("http://e/a",))
True
>>> a == ("http://e/a",) or a == BlankNode("http://e/a")
False
>>> back = pickle.loads(pickle.dumps(a))
>>> back == a and hash(back) == hash(a)
True
"""

from __future__ import annotations

from operator import itemgetter
from typing import Union


def _field(index: int, doc: str) -> property:
    """A read-only field: position ``index`` of the term's tuple."""
    return property(itemgetter(index), doc=doc)


def _require_str(value: object, what: str) -> None:
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a str, not {type(value).__name__}")


# Bound once: looking them up on ``tuple`` in every comparison is
# measurably slower.
_tuple_eq, _tuple_ne = tuple.__eq__, tuple.__ne__


class _Term(tuple):
    """The base of the three term classes: a tuple of the fields that
    compares by exact class, hashes as the tuple and has no order.

    ``__hash__`` names tuple's own slot, so CPython installs the C
    function itself; ``__eq__`` stays a Python method, which set and
    dict probes skip when the two objects are one.
    """

    __slots__ = ()

    __hash__ = tuple.__hash__

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and _tuple_eq(self, other)

    def __ne__(self, other: object) -> bool:
        return type(other) is not type(self) or _tuple_ne(self, other)

    def _unordered(self, other: object):
        # As on a dataclass without ``order``; tuple's own order would
        # also hold against plain tuples.
        raise TypeError(f"{type(self).__name__} terms have no order")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered
    del _unordered

    def __reduce__(self):
        return type(self), tuple(self)


class URI(_Term):
    """A Uniform Resource Identifier reference.

    The ``value`` is kept verbatim; no IRI normalization is attempted
    (the paper's datasets use opaque URIs).
    """

    __slots__ = ()

    value = _field(0, "The URI string.")

    def __new__(cls, value: str) -> URI:
        _require_str(value, "URI value")
        if not value:
            raise ValueError("URI value must be a non-empty string")
        return tuple.__new__(cls, (value,))

    def n3(self) -> str:
        """Render in N-Triples syntax."""
        return f"<{self.value}>"

    def __str__(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return f"URI({self.value!r})"


class Literal(_Term):
    """An RDF literal (a value), optionally tagged with a datatype URI.

    Language tags are supported through ``language``; a literal has at most
    one of ``datatype`` / ``language`` per the RDF specification.
    """

    __slots__ = ()

    lexical = _field(0, "The lexical form.")
    datatype = _field(1, "The datatype URI, or None.")
    language = _field(2, "The language tag, or None.")

    def __new__(
        cls, lexical: str, datatype: URI | None = None, language: str | None = None
    ) -> Literal:
        _require_str(lexical, "literal lexical form")
        if datatype is not None and not isinstance(datatype, URI):
            raise TypeError(
                f"literal datatype must be a URI, not {type(datatype).__name__}"
            )
        if language is not None:
            _require_str(language, "literal language tag")
            if datatype is not None:
                raise ValueError(
                    "a literal cannot have both a datatype and a language tag"
                )
            if not language:
                raise ValueError("literal language tag must be non-empty")
        return tuple.__new__(cls, (lexical, datatype, language))

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


class BlankNode(_Term):
    """A blank node: a placeholder for an unknown URI or literal.

    From a database perspective blank nodes behave as existential
    variables in the data (Section 2 of the paper): two triples referring
    to the same blank node label join on it.
    """

    __slots__ = ()

    label = _field(0, "The blank node label.")

    def __new__(cls, label: str) -> BlankNode:
        _require_str(label, "blank node label")
        if not label:
            raise ValueError("blank node label must be a non-empty string")
        return tuple.__new__(cls, (label,))

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
    return isinstance(value, _Term)


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
