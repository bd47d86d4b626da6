"""Dictionary encoding of RDF terms.

The paper stores data "in a dictionary-encoded triple table, using a
distinct integer for each distinct URI or literal" (Section 6). This module
provides that bidirectional mapping. The encoding dictionary also records
the average rendered size per position-agnostic term, which the cost model
uses to estimate view storage space.
"""

from __future__ import annotations

from typing import Sequence

from repro.rdf.terms import Literal, Term, is_term


class Dictionary:
    """Bidirectional term <-> integer code mapping.

    Codes are dense non-negative integers assigned in first-seen order,
    which keeps encodings deterministic for a fixed insertion sequence.
    """

    def __init__(self) -> None:
        self._term_to_code: dict[Term, int] = {}
        self._code_to_term: list[Term] = []
        self._literal_codes: set[int] = set()
        self._total_size = 0

    def __len__(self) -> int:
        return len(self._code_to_term)

    def __contains__(self, term: Term) -> bool:
        return term in self._term_to_code

    def encode(self, term: Term) -> int:
        """Return the code for ``term``, assigning a fresh one if unseen."""
        code = self._term_to_code.get(term)
        if code is not None:
            return code
        if not is_term(term):
            raise TypeError(f"cannot encode non-term value {term!r}")
        code = len(self._code_to_term)
        self._term_to_code[term] = code
        self._code_to_term.append(term)
        if isinstance(term, Literal):
            self._literal_codes.add(code)
        self._total_size += len(term.n3())
        return code

    def is_literal_code(self, code: int) -> bool:
        """True when ``code`` encodes a literal (O(1), no decode)."""
        return code in self._literal_codes

    def literal_codes(self) -> set[int]:
        """The codes of every encoded literal.

        The live set, not a copy: a scan filters a whole column against
        it in C (``isdisjoint``, ``filterfalse(codes.__contains__, …)``)
        instead of calling :meth:`is_literal_code` per row. Read it;
        only :meth:`encode` may add to it.
        """
        return self._literal_codes

    def lookup(self, term: Term) -> int | None:
        """Return the code for ``term`` or None if the term is unknown."""
        return self._term_to_code.get(term)

    def decode(self, code: int) -> Term:
        """Return the term for ``code``; raises KeyError for unknown codes."""
        if 0 <= code < len(self._code_to_term):
            return self._code_to_term[code]
        raise KeyError(f"unknown dictionary code {code}")

    def code_list(self) -> Sequence[Term]:
        """Every encoded term, at the index of its code.

        The live list, not a copy: a decoder maps a whole column of
        codes through ``code_list().__getitem__`` in C. Read it; only
        :meth:`encode` may append to it.
        """
        return self._code_to_term

    def items(self, start: int = 0):
        """``(code, term)`` pairs in code order, from code ``start`` on.

        The snapshot writer serializes the dictionary through this;
        codes are dense, so re-encoding the terms in this order on an
        empty dictionary reproduces every assignment exactly — and
        because codes are append-only, ``start`` lets an incremental
        sync serialize just the terms added since the last save.
        """
        return enumerate(self._code_to_term[start:], start)

    def copy(self) -> "Dictionary":
        """An independent clone preserving every code assignment.

        Used by :meth:`repro.rdf.store.TripleStore.copy` so cloned stores
        keep identical encodings without re-encoding any term.
        """
        clone = Dictionary()
        clone._term_to_code = dict(self._term_to_code)
        clone._code_to_term = list(self._code_to_term)
        clone._literal_codes = set(self._literal_codes)
        clone._total_size = self._total_size
        return clone

    def average_term_size(self) -> float:
        """Average rendered (N-Triples) byte size over all encoded terms.

        Used by the cost model as the per-attribute width when estimating
        view space occupancy. Returns a nominal width for an empty
        dictionary so cost formulas stay well-defined.
        """
        if not self._code_to_term:
            return 8.0
        return self._total_size / len(self._code_to_term)
