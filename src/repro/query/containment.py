"""Containment mappings, minimization, equivalence, isomorphism, and
canonical forms for conjunctive queries.

Containment of conjunctive queries is decided through containment
mappings (Chandra & Merlin): ``q2`` is contained in ``q1`` iff there is a
homomorphism from ``q1`` to ``q2`` mapping head to head and every atom of
``q1`` onto an atom of ``q2``. Equivalence testing is what View Fusion
needs; the paper notes it is NP-complete in our setting, and we implement
it with pruned backtracking (views are small).

Canonical forms give each isomorphism class of queries a unique hashable
key; the search strategies use them to detect duplicate states.
"""

from __future__ import annotations


from repro.query.cq import Atom, ConjunctiveQuery, QueryTerm, Variable


def _match_term(
    pattern: QueryTerm,
    target: QueryTerm,
    mapping: dict[Variable, QueryTerm],
) -> dict[Variable, QueryTerm] | None:
    """Try to unify one pattern term against a target term.

    Constants must match exactly; variables extend ``mapping``
    consistently. Returns the extended mapping, or None on clash.
    """
    if isinstance(pattern, Variable):
        bound = mapping.get(pattern)
        if bound is None:
            extended = dict(mapping)
            extended[pattern] = target
            return extended
        return mapping if bound == target else None
    return mapping if pattern == target else None


def _match_atom(
    pattern: Atom, target: Atom, mapping: dict[Variable, QueryTerm]
) -> dict[Variable, QueryTerm] | None:
    """Extend ``mapping`` so that ``pattern`` maps onto ``target``."""
    current: dict[Variable, QueryTerm] | None = mapping
    for pattern_term, target_term in zip(pattern, target):
        current = _match_term(pattern_term, target_term, current)
        if current is None:
            return None
    return current


def containment_mapping(
    source: ConjunctiveQuery, target: ConjunctiveQuery
) -> dict[Variable, QueryTerm] | None:
    """A containment mapping from ``source`` to ``target``, or None.

    The mapping sends every atom of ``source`` to some atom of ``target``
    and the head of ``source`` positionally onto the head of ``target``.
    Its existence proves ``target``'s answers are contained in
    ``source``'s on every database.
    """
    if len(source.head) != len(target.head):
        return None
    mapping: dict[Variable, QueryTerm] | None = {}
    for source_term, target_term in zip(source.head, target.head):
        mapping = _match_term(source_term, target_term, mapping)
        if mapping is None:
            return None
    # Order source atoms most-constrained-first for pruning.
    ordered = sorted(
        source.atoms,
        key=lambda atom: -sum(1 for t in atom if not isinstance(t, Variable)),
    )
    return _search_mapping(ordered, 0, target.atoms, mapping)


def _search_mapping(
    pattern_atoms: list[Atom] | tuple[Atom, ...],
    index: int,
    target_atoms: tuple[Atom, ...],
    mapping: dict[Variable, QueryTerm],
) -> dict[Variable, QueryTerm] | None:
    if index == len(pattern_atoms):
        return mapping
    pattern = pattern_atoms[index]
    for target in target_atoms:
        extended = _match_atom(pattern, target, mapping)
        if extended is None:
            continue
        result = _search_mapping(pattern_atoms, index + 1, target_atoms, extended)
        if result is not None:
            return result
    return None


def is_contained_in(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """True when ``q1``'s answers are a subset of ``q2``'s on any database."""
    return containment_mapping(q2, q1) is not None


def equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """True when the two queries have the same answers on any database."""
    return is_contained_in(q1, q2) and is_contained_in(q2, q1)


def minimize(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The core of ``query``: a minimal equivalent subquery (Section 2).

    Repeatedly drops an atom when a containment mapping from the original
    query into the reduced one exists; the result has the property that
    the only containment mapping from it to itself is the identity.
    """
    current = query
    changed = True
    while changed and len(current.atoms) > 1:
        changed = False
        for index in range(len(current.atoms)):
            reduced_atoms = current.atoms[:index] + current.atoms[index + 1 :]
            remaining_vars = set()
            for atom in reduced_atoms:
                remaining_vars.update(atom.variables())
            if any(
                isinstance(t, Variable) and t not in remaining_vars
                for t in current.head
            ):
                continue  # removal would make the query unsafe
            reduced = ConjunctiveQuery(current.head, reduced_atoms, name=current.name)
            if containment_mapping(current, reduced) is not None:
                current = reduced
                changed = True
                break
    return current


def is_minimal(query: ConjunctiveQuery) -> bool:
    """True when no atom can be dropped without changing the semantics."""
    return len(minimize(query).atoms) == len(query.atoms)


# ----------------------------------------------------------------------
# Isomorphism (View Fusion needs bodies equivalent up to renaming)
# ----------------------------------------------------------------------


def find_isomorphism(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    match_heads: bool = False,
) -> dict[Variable, Variable] | None:
    """A bijective variable renaming sending ``q2``'s body onto ``q1``'s.

    This is the ``<2->1>`` renaming of Definition 3.5. With
    ``match_heads=True`` the heads must also correspond positionally.
    Returns None when the bodies are not isomorphic.
    """
    if len(q1.atoms) != len(q2.atoms):
        return None
    if match_heads and len(q1.head) != len(q2.head):
        return None
    mapping: dict[Variable, QueryTerm] = {}
    if match_heads:
        for term2, term1 in zip(q2.head, q1.head):
            if isinstance(term2, Variable):
                if term2 in mapping and mapping[term2] != term1:
                    return None
                if not isinstance(term1, Variable):
                    return None
                mapping[term2] = term1
            elif term2 != term1:
                return None
    used: set[int] = set()
    result = _search_bijection(q2.atoms, 0, q1.atoms, mapping, used)
    return result  # type: ignore[return-value]


def _search_bijection(
    pattern_atoms: tuple[Atom, ...],
    index: int,
    target_atoms: tuple[Atom, ...],
    mapping: dict[Variable, QueryTerm],
    used: set[int],
) -> dict[Variable, QueryTerm] | None:
    if index == len(pattern_atoms):
        return mapping
    pattern = pattern_atoms[index]
    for target_index, target in enumerate(target_atoms):
        if target_index in used:
            continue
        extended = _match_atom(pattern, target, mapping)
        if extended is None:
            continue
        # An isomorphism renames variables to variables, injectively.
        images = list(extended.values())
        if not all(isinstance(image, Variable) for image in images):
            continue
        if len(set(images)) != len(images):
            continue
        used.add(target_index)
        result = _search_bijection(
            pattern_atoms, index + 1, target_atoms, extended, used
        )
        if result is not None:
            return result
        used.discard(target_index)
    return None


def is_isomorphic(
    q1: ConjunctiveQuery, q2: ConjunctiveQuery, match_heads: bool = False
) -> bool:
    """True when the two query bodies are equal up to variable renaming."""
    return find_isomorphism(q1, q2, match_heads=match_heads) is not None


# ----------------------------------------------------------------------
# Canonical forms (state deduplication)
# ----------------------------------------------------------------------

_Token = tuple[str, object]
_EncodedAtom = tuple[_Token, _Token, _Token]


def _encode_atom(
    atom: Atom, assignment: dict[Variable, int], next_index: int
) -> tuple[_EncodedAtom, dict[Variable, int], int]:
    """Encode an atom under (a copy of) the variable-index assignment."""
    tokens: list[_Token] = []
    extended = assignment
    copied = False
    for term in atom:
        if isinstance(term, Variable):
            if term not in extended:
                if not copied:
                    extended = dict(extended)
                    copied = True
                extended[term] = next_index
                next_index += 1
            tokens.append(("v", extended[term]))
        else:
            tokens.append(("c", term.n3()))
    return (tokens[0], tokens[1], tokens[2]), extended, next_index


_CANONICAL_CACHE: dict[tuple[ConjunctiveQuery, bool], tuple] = {}


def canonical_form(query: ConjunctiveQuery, include_head: bool = True):
    """A hashable key identifying ``query`` up to variable renaming.

    Two queries have equal canonical forms iff they are isomorphic
    (including head correspondence when ``include_head`` is True). The
    key is computed by branch-and-bound canonical labeling over atom
    orders: at each step only atoms with the lexicographically least
    encoding are expanded. Results are memoized — the search recomputes
    state keys constantly, and views are immutable.
    """
    cache_key = (query, include_head)
    cached = _CANONICAL_CACHE.get(cache_key)
    if cached is not None:
        return cached
    best: list[tuple] = []

    def recurse(
        remaining: frozenset[int],
        assignment: dict[Variable, int],
        next_index: int,
        prefix: list[_EncodedAtom],
    ) -> None:
        if not remaining:
            restricted = tuple(
                sorted(assignment[v] for v in query.non_literal if v in assignment)
            )
            if include_head:
                head_tokens: list[_Token] = []
                for term in query.head:
                    if isinstance(term, Variable):
                        head_tokens.append(("v", assignment[term]))
                    else:
                        head_tokens.append(("c", term.n3()))
                candidate = (tuple(prefix), tuple(head_tokens), restricted)
            else:
                candidate = (tuple(prefix), (), restricted)
            if not best or candidate < best[0]:
                best[:] = [candidate]
            return
        encodings = []
        for index in remaining:
            encoded, extended, nxt = _encode_atom(
                query.atoms[index], assignment, next_index
            )
            encodings.append((encoded, index, extended, nxt))
        least = min(encoding[0] for encoding in encodings)
        for encoded, index, extended, nxt in encodings:
            if encoded != least:
                continue
            prefix.append(encoded)
            recurse(remaining - {index}, extended, nxt, prefix)
            prefix.pop()

    recurse(frozenset(range(len(query.atoms))), {}, 0, [])
    if len(_CANONICAL_CACHE) > 1_000_000:
        _CANONICAL_CACHE.clear()  # unbounded searches should not leak memory
    _CANONICAL_CACHE[cache_key] = best[0]
    return best[0]


def canonical_rename(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """An equivalent query with canonically named variables ``V0, V1, ...``.

    Useful for deduplicating reformulation outputs that differ only in
    fresh-variable names.
    """
    atom_encodings, head_tokens, restricted = canonical_form(query, include_head=True)

    def decode_token(token: _Token) -> QueryTerm:
        kind, payload = token
        if kind == "v":
            return Variable(f"V{payload}")
        return _parse_n3_constant(str(payload))

    atoms = tuple(
        Atom(*(decode_token(token) for token in encoded))
        for encoded in atom_encodings
    )
    head = tuple(decode_token(token) for token in head_tokens)
    non_literal = frozenset(Variable(f"V{index}") for index in restricted)
    return ConjunctiveQuery(head, atoms, name=query.name, non_literal=non_literal)


def _parse_n3_constant(text: str) -> QueryTerm:
    from repro.rdf.ntriples import _parse_term

    term, _ = _parse_term(text, 0)
    return term
