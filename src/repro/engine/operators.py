"""Physical operators of the execution engine.

Every operator exposes a ``schema`` (a tuple of column names) and **one**
pull-based execution contract, :meth:`Operator.column_batches`: the
operator produces :class:`~repro.engine.columnar.ColumnBatch` objects —
one value sequence per schema column, all of one length, never empty.
Single-column join keys are read as vectors (no per-row key tuple), and
join outputs assemble per column over a selection vector. The per-batch
row target ``size`` is *advisory*: scans honour it, and joins may emit
batches larger than ``size`` (fan-out) rather than pay a repacking pass.

Values are dictionary codes (ints) of a :class:`TripleStore`. Every
atom is a *union* of one-atom queries (a reformulation's alternatives,
or a conjunctive query's atom alone): :class:`UnionScan` reads one
through an :class:`IndexScan` per distinct atom, :class:`UnionProbe`
probes one per key (a whole batch of probes per ``match_many_encoded``
call — one SQL statement per batch on the SQLite backend), and a
Cartesian step is a :class:`HashJoin`. :class:`ExtentScan` is a leaf of
given code rows: view maintenance swaps in the rows an update binds.
Rewritings over decoded view extents do not run here; see
:func:`repro.query.algebra.execute`.

The planner (:mod:`repro.engine.planner`) decides which operators to
instantiate; nothing here chooses join orders or algorithms. The join
algorithms and execution paths that used to sit beside these (the
index-nested-loop join, merge and partitioned hash joins, row-list
batches, tuple-at-a-time iteration, morsel-parallel scans, the
operators that ran rewritings over view extents) lost on every
measured workload or ran in none; their last verdicts are kept in
docs/benchmarks.md, "Retired paths".
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

from repro.engine.columnar import ColumnBatch
from repro.query.cq import Atom, Variable
from repro.rdf.store import TripleStore
from repro.rdf.vocabulary import RDF_TYPE
from repro.storage.base import DEFAULT_BATCH_SIZE

#: A physical row: a tuple of dictionary codes (a head constant the
#: dictionary lacks rides along as its term).
PhysicalRow = tuple


def _projector(positions: Sequence[int]) -> Callable[[PhysicalRow], tuple]:
    """A C-speed row projector that *always* returns a tuple.

    ``itemgetter`` returns a bare value for a single position, so the
    one- and zero-column cases get explicit lambdas; join keys and
    projected rows must be tuples in every arity.
    """
    positions = tuple(positions)
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        position = positions[0]
        return lambda row: (row[position],)
    return itemgetter(*positions)


class Operator:
    """Base class: a schema plus a stream of column batches."""

    schema: tuple[str, ...] = ()

    def column_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[ColumnBatch]:
        """The operator's output as non-empty :class:`ColumnBatch` objects.

        ``size`` is the advisory row target per batch (see the module
        docstring); every operator pulls its children through the same
        method with the same ``size``.
        """
        raise NotImplementedError

    def explain(self, depth: int = 0) -> str:
        """An indented one-line-per-operator rendering of the subtree."""
        lines = [("  " * depth) + self._describe()]
        for child in self._children():
            lines.append(child.explain(depth + 1))
        return "\n".join(lines)

    def _describe(self) -> str:
        return f"{type(self).__name__}{list(self.schema)}"

    def _children(self) -> tuple["Operator", ...]:
        return ()


class ExtentScan(Operator):
    """Scan a given sequence of rows.

    View maintenance's swappable leaf (``maintenance._Tree``): a delta
    tree is compiled once on top of it, and each update replaces its
    rows with the ones it binds, in dictionary codes.
    """

    def __init__(self, name: str, rows: Sequence[PhysicalRow], schema: tuple[str, ...]) -> None:
        self.name = name
        self._rows = rows
        self.schema = schema

    def column_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[ColumnBatch]:
        rows = self._rows
        width = len(self.schema)
        for start in range(0, len(rows), size):
            yield ColumnBatch.from_rows(rows[start : start + size], width)

    def _describe(self) -> str:
        return f"ExtentScan({self.name}){list(self.schema)}"


def _compile_atom(
    atom: Atom,
    store: TripleStore,
    non_literal: frozenset[Variable],
    bound: dict[str, int] | None = None,
):
    """Shared atom compilation for index scans and union probes.

    Returns ``(template, fills, out, eqs, nl, impossible)``:

    * ``template`` — the encoded pattern with constants filled in;
    * ``fills`` — ``(position, input column)`` pairs for variables bound
      by the left input (empty when compiling a leaf scan);
    * ``out`` — ``(position, name)`` for newly bound variables;
    * ``eqs`` — intra-atom equality checks for repeated new variables;
    * ``nl`` — positions whose new variable must not bind a literal;
    * ``impossible`` — True when a constant is absent from the data.
    """
    template: list[int | None] = []
    fills: list[tuple[int, int]] = []
    out: list[tuple[int, str]] = []
    eqs: list[tuple[int, int]] = []
    nl: list[int] = []
    first_seen: dict[Variable, int] = {}
    filled: set[Variable] = set()
    impossible = False
    for position, term in enumerate(atom):
        if isinstance(term, Variable):
            template.append(None)
            if term in filled:
                # Bound by the input at an earlier position too: fill
                # both pattern slots, the probe stays consistent.
                fills.append((position, (bound or {})[term.name]))
            elif term in first_seen:
                eqs.append((first_seen[term], position))
            elif bound is not None and term.name in bound:
                fills.append((position, bound[term.name]))
                filled.add(term)
            else:
                first_seen[term] = position
                out.append((position, term.name))
                if term in non_literal:
                    nl.append(position)
        else:
            code = store.encode_term(term)
            if code is None:
                impossible = True
            template.append(code)
    return template, tuple(fills), tuple(out), tuple(eqs), tuple(nl), impossible


class IndexScan(Operator):
    """Match one triple atom through the store's pattern indexes.

    Output columns are the atom's distinct variables in ``(s, p, o)``
    order; repeated variables become intra-atom equality filters, and
    ``non_literal`` variables reject literal codes at binding time (the
    reformulation rule-4 semantics).
    """

    def __init__(
        self,
        store: TripleStore,
        atom: Atom,
        non_literal: frozenset[Variable] = frozenset(),
    ) -> None:
        self.store = store
        self.atom = atom
        self.non_literal = non_literal
        template, _, out, eqs, nl, impossible = _compile_atom(atom, store, non_literal)
        self.pattern = (template[0], template[1], template[2])
        self._out = out
        self._eqs = eqs
        self._nl = nl
        self.impossible = impossible
        self.schema = tuple(name for _, name in out)

    def column_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[ColumnBatch]:
        if self.impossible:
            return
        out_positions = tuple(position for position, _ in self._out)
        eqs, nl = self._eqs, self._nl
        source = self.store.match_encoded_columns(self.pattern, size)
        if not eqs and not nl:
            # The vectorized fast path: pick 0–3 of the backend's s/p/o
            # columns per batch — no per-row tuple is ever built.
            for columns in source:
                yield ColumnBatch(
                    tuple(columns[p] for p in out_positions), len(columns[0])
                )
            return
        dictionary = self.store.dictionary
        is_literal = dictionary.is_literal_code
        for columns in source:
            length = len(columns[0])
            keep: Sequence[int] = range(length)
            for i, j in eqs:
                column_i, column_j = columns[i], columns[j]
                keep = [k for k in keep if column_i[k] == column_j[k]]
            for position in nl:
                column = columns[position]
                if dictionary.any_literal(column):
                    keep = [k for k in keep if not is_literal(column[k])]
            kept = len(keep)
            if not kept:
                continue
            if kept == length:
                yield ColumnBatch(
                    tuple(columns[p] for p in out_positions), length
                )
            else:
                yield ColumnBatch(
                    tuple([columns[p][k] for k in keep] for p in out_positions),
                    kept,
                )

    def _describe(self) -> str:
        return f"IndexScan({self.atom}){list(self.schema)}"


def _head_value(term, store: TripleStore):
    """A head constant as it enters a row: its dictionary code, or the
    term itself when the data never mentions it (as in head images)."""
    code = store.encode_term(term)
    return term if code is None else code


def _atom_shape(atom: Atom, non_literal: frozenset[Variable]) -> tuple:
    """An atom with its restriction, up to variable renaming: each
    variable becomes the position of its first occurrence."""
    terms = atom.terms()
    return (
        tuple(terms.index(t) if isinstance(t, Variable) else t for t in terms),
        frozenset(terms.index(v) for v in non_literal if v in terms),
    )


class UnionScan(Operator):
    """Scan a union of one-atom queries as one duplicate-free relation.

    ``alternatives`` are one-atom queries whose head position ``j`` is
    output column ``j`` of ``schema``. Every distinct atom among them
    (up to variable renaming, with its ``non_literal`` restriction) is
    read once through an :class:`IndexScan`, and every alternative over
    it emits its head from that scan's columns. So an index bucket that
    several head constants need (a subclass's instances under each of
    its ancestors) is read once.

    Rows are kept per *head template*: an alternative's head with its
    constants in place — a code, or the term itself when the data never
    mentions it — and ``None`` at each column. Each scan adds the
    columns it picks to the value set of every template that reads
    them (see :meth:`partitions`), so a constant-headed match costs a
    C-speed ``set.update`` and builds no row tuple. The output — a set,
    because alternatives overlap and every consumer wants distinct rows
    — fills the templates in (:func:`fill_template`).
    """

    def __init__(
        self,
        store: TripleStore,
        schema: tuple[str, ...],
        alternatives: Sequence,
        source: Atom | None = None,
    ) -> None:
        self.store = store
        self.schema = tuple(schema)
        self.alternatives = tuple(alternatives)
        self.source = source
        groups: dict[tuple, tuple[IndexScan, dict] | None] = {}
        for alternative in self.alternatives:
            atom = alternative.atoms[0]
            shape = _atom_shape(atom, alternative.non_literal)
            if shape not in groups:
                scan = IndexScan(store, atom, alternative.non_literal)
                groups[shape] = None if scan.impossible else (scan, {})
            group = groups[shape]
            if group is None:
                continue
            # The scan's columns are the atom's distinct variables in
            # first-occurrence order, whatever each alternative calls them.
            column = {
                variable: index
                for index, variable in enumerate(dict.fromkeys(
                    term for term in atom if isinstance(term, Variable)
                ))
            }
            template = tuple(
                None if isinstance(term, Variable) else _head_value(term, store)
                for term in alternative.head
            )
            picks = tuple(
                column[term] for term in alternative.head if isinstance(term, Variable)
            )
            group[1][template, picks] = None
        # Per distinct atom: its scan, the scan columns the templates
        # read, the templates with columns (and the positions in that
        # column list they read), and the all-constant templates one
        # match is enough for.
        self._groups = []
        for scan, reads in filter(None, groups.values()):
            used = sorted({p for _, picks in reads for p in picks})
            varying = [
                (template, tuple(used.index(p) for p in picks))
                for template, picks in reads
                if picks
            ]
            constant = [template for template, picks in reads if not picks]
            self._groups.append((scan, used, varying, constant))
        #: ``(scan, picks)`` when one alternative reads every column of
        #: its scan into a constant-free head: the scan's rows are then
        #: distinct already, and :meth:`column_batches` streams them.
        self._stream = None
        if len(self._groups) == 1:
            scan, used, varying, constant = self._groups[0]
            if not constant and len(varying) == 1 and len(used) == len(
                scan.schema
            ):
                template, picks = varying[0]
                if template.count(None) == len(template):
                    self._stream = (scan, picks)

    def partitions(self) -> dict[tuple, set]:
        """The output, per head template: ``{template: values}``.

        ``values`` holds the distinct values of the template's ``None``
        columns — bare values when it has one, tuples in column order
        otherwise (the empty tuple for an all-constant template that
        matched). Templates overlap only where one's constant is
        another's column value; :meth:`distinct` and
        :func:`~repro.engine.planner.decode_images` merge them.
        """
        parts: dict[tuple, set] = {}
        for scan, used, varying, constant in self._groups:
            size = _UNION_SCAN_BATCH if len(varying) > 1 else DEFAULT_BATCH_SIZE
            for cb in scan.column_batches(size):
                if varying:
                    picked = [cb.columns[k] for k in used]
                    if len(varying) > 1:
                        # Several templates read this match (a bucket
                        # under each of its classes' ancestors): project
                        # it to distinct values once, before the fan-out.
                        picked = (
                            [set(picked[0])] if len(picked) == 1
                            else list(zip(*set(zip(*picked))))
                        )
                    for template, picks in varying:
                        values = parts.setdefault(template, set())
                        if len(picks) == 1:
                            values.update(picked[picks[0]])
                        else:
                            values.update(zip(*(picked[k] for k in picks)))
                if constant:
                    for template in constant:
                        parts[template] = {()}
                    if not self.schema:
                        return parts  # boolean: one match settles it
                    if not varying:
                        break
        return parts

    def distinct(self) -> set[tuple]:
        """The output rows, as a set of tuples."""
        rows: set[tuple] = set()
        for template, values in self.partitions().items():
            rows.update(fill_template(template, template_columns(template, values)))
        return rows

    def column_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[ColumnBatch]:
        if self._stream is not None:
            scan, picks = self._stream
            for cb in scan.column_batches(size):
                yield ColumnBatch(tuple(cb.columns[p] for p in picks), len(cb))
            return
        rows = list(self.distinct())
        width = len(self.schema)
        for start in range(0, len(rows), size):
            yield ColumnBatch.from_rows(rows[start : start + size], width)

    def _describe(self) -> str:
        atom = "" if self.source is None else f"{self.source}, "
        return (
            f"UnionScan({atom}{len(self.alternatives)} alternatives)"
            f"{list(self.schema)}"
        )


def template_columns(template: tuple, values) -> list:
    """The columns of one :meth:`UnionScan.partitions` entry, one per
    ``None`` of ``template`` in order — a one-column entry's value set
    as it is, without a transpose."""
    holes = template.count(None)
    if holes == 1:
        return [values]
    return list(zip(*values)) if holes else []


def fill_template(template: tuple, columns: Sequence) -> Iterator[tuple]:
    """The rows of ``template`` with its ``None`` positions read, in
    order, from ``columns`` and its constants repeated; an all-constant
    template is the one row."""
    if None not in template:
        return iter((template,))
    taken = iter(columns)
    return zip(*[
        next(taken) if part is None else repeat(part) for part in template
    ])


#: Rows per index read inside a :class:`UnionScan` whose matches fan
#: out to several head templates: each read is projected to distinct
#: values once before the fan-out, so a bigger read projects more rows
#: at once. A read feeding one template is folded as it comes, in
#: ``DEFAULT_BATCH_SIZE`` rows: a large read buys it nothing, and on
#: SQLite it costs the fold and the decode after it cache locality.
_UNION_SCAN_BATCH = 1 << 16


class _Lookup:
    """One index lookup a :class:`UnionProbe` makes per probe key, and
    the alternatives that read its matches.

    ``template`` holds the lookup's constants, ``fills`` the
    ``(position, key component)`` pairs filled per key. ``eqs`` / ``nl``
    filter a matched triple (repeated variables, rule-4 restrictions),
    ``key_nl`` the key components that must not be literals. Members are
    ``(checks, tail)`` pairs: ``checks`` are ``(key component, value)``
    equalities (a head constant at a bound column) and ``tail`` builds
    the new columns from a triple. ``unfiltered`` members read every
    match; ``by_code`` maps a triple position to the members that need
    a given code there — alternatives that differ in one constant share
    the lookup and pay a dictionary read per triple instead.
    """

    __slots__ = (
        "template", "fills", "eqs", "nl", "key_nl", "unfiltered", "by_code",
        "simple", "injective",
    )

    def __init__(self, template, fills, eqs, nl, key_nl) -> None:
        self.template = template
        self.fills = fills
        self.eqs = eqs
        self.nl = nl
        self.key_nl = key_nl
        self.unfiltered: dict[tuple, None] = {}
        self.by_code: dict[int, dict[int, dict[tuple, None]]] = {}
        #: The tail of the one member when nothing filters a match.
        self.simple = None
        #: Whether ``simple`` reads every position the key and the
        #: constants leave open, so distinct matches of one key give
        #: distinct tails (an atom with no variable local to it).
        self.injective = False

    def patterns(self, keys: list, scalar: bool, is_literal) -> tuple[list, list]:
        """The probe keys that can match — not one holding a constant
        the data never mentions, nor a literal where the alternatives
        need a non-literal — and their encoded patterns. A ``scalar``
        key is the bare value of a one-column key."""
        template, fills = self.template, self.fills
        if scalar and len(fills) == 1 and not self.key_nl:
            # The common shape: the key fills one slot of the pattern.
            position = fills[0][0]
            before, after = template[:position], template[position + 1:]
            kept = [key for key in keys if type(key) is int]
            return kept, [before + (key,) + after for key in kept]
        kept, patterns = [], []
        for key in keys:
            components = (key,) if scalar else key
            pattern = list(template)
            for position, component in fills:
                pattern[position] = components[component]
            if all(type(pattern[p]) is int for p, _ in fills) and not any(
                is_literal(components[c]) for c in self.key_nl
            ):
                kept.append(key)
                patterns.append(tuple(pattern))
        return kept, patterns

    def collect(self, matches, key: tuple, tails: set, is_literal, first: bool) -> None:
        """Add the tails the members make of ``matches`` to ``tails``;
        with ``first``, stop at the first one (a semi-join). The caller
        folds a ``simple`` lookup's matches itself."""
        eqs, nl = self.eqs, self.nl
        unfiltered, by_code = self.unfiltered, self.by_code
        for triple in matches:
            if eqs and any(triple[i] != triple[j] for i, j in eqs):
                continue
            if nl and any(is_literal(triple[p]) for p in nl):
                continue
            members = unfiltered
            for position, table in by_code:
                found = table.get(triple[position])
                if found:
                    members = members + found
            for checks, tail in members:
                if checks and any(key[c] != value for c, value in checks):
                    continue
                tails.add(tail(triple))
                if first:
                    return


def _members(members) -> tuple:
    """``(checks, parts)`` members as ``(checks, tail)`` pairs."""
    return tuple((checks, _make_tail(parts)) for checks, parts in members)


def _make_tail(parts: tuple):
    """A triple -> new-columns function: ``parts`` are triple positions
    or 1-tuples holding a constant. One new column is a bare value,
    several are a tuple."""
    if len(parts) == 1:
        part = parts[0]
        if type(part) is int:
            return itemgetter(part)
        fixed = part[0]
        return lambda triple: fixed
    if all(type(part) is tuple for part in parts):
        fixed = tuple(part[0] for part in parts)
        return lambda triple: fixed
    if all(type(part) is int for part in parts):
        return _projector(parts)
    return lambda triple: tuple(
        triple[part] if type(part) is int else part[0] for part in parts
    )


class UnionProbe(Operator):
    """Join the input with a union of one-atom queries by index probes.

    ``columns`` name the union's head positions (as in
    :class:`UnionScan`); those the input already binds form the probe
    key, the rest are appended. Per distinct key, every alternative
    whose head agrees with the key is matched through the store's
    indexes; alternatives differing only in the predicate (or in the
    class of an ``rdf:type`` atom) share one lookup and a code filter
    (:class:`_Lookup`). The new columns of one key are deduplicated,
    and a union adding no column is a semi-join that stops at the
    first match.
    """

    def __init__(
        self,
        child: Operator,
        store: TripleStore,
        columns: tuple[str, ...],
        alternatives: Sequence,
        source: Atom | None = None,
    ) -> None:
        self.child = child
        self.store = store
        self.alternatives = tuple(alternatives)
        self.source = source
        position = {name: index for index, name in enumerate(child.schema)}
        component = {}
        fresh = []
        for index, name in enumerate(columns):
            if name in position:
                component[index] = len(component)
            else:
                fresh.append(index)
        self._key_columns = tuple(
            position[columns[index]] for index in component
        )
        self.schema = child.schema + tuple(columns[index] for index in fresh)
        self._width = len(fresh)
        compiled = [
            found
            for alternative in self.alternatives
            for found in (_compile_probe(alternative, store, component, fresh),)
            if found is not None
        ]
        # Relax a constant into a code filter only where that merges two
        # or more distinct lookups into one.
        merged: dict[tuple, set] = {}
        for relaxed, exact, *_rest in compiled:
            merged.setdefault(relaxed, set()).add(exact)
        lookups: dict[tuple, _Lookup] = {}
        for relaxed, exact, relax, checks, parts in compiled:
            key = relaxed if len(merged[relaxed]) > 1 else exact
            lookup = lookups.get(key)
            if lookup is None:
                lookup = lookups[key] = _Lookup(*key)
            if relax is None or key is exact:
                lookup.unfiltered[checks, parts] = None
            else:
                at, code = relax
                table = lookup.by_code.setdefault(at, {})
                table.setdefault(code, {})[checks, parts] = None
        for lookup in lookups.values():
            # A filtered member an unfiltered one repeats adds nothing
            # (each class's instances next to ``t(X, rdf:type, Y)``).
            for table in lookup.by_code.values():
                for code, members in list(table.items()):
                    kept = _members(m for m in members if m not in lookup.unfiltered)
                    if kept:
                        table[code] = kept
                    else:
                        del table[code]
            members = tuple(lookup.unfiltered)
            lookup.unfiltered = _members(members)
            lookup.by_code = tuple(
                (at, table) for at, table in lookup.by_code.items() if table
            )
            if not (lookup.eqs or lookup.nl or lookup.by_code) and len(
                members
            ) == 1 and not members[0][0]:
                lookup.simple = lookup.unfiltered[0][1]
                open_positions = {
                    p for p, code in enumerate(lookup.template) if code is None
                } - {p for p, _ in lookup.fills}
                lookup.injective = open_positions <= set(members[0][1])
        self._lookups = tuple(lookups.values())

    def column_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[ColumnBatch]:
        store = self.store
        match_many = store.match_many_encoded
        is_literal = store.dictionary.is_literal_code
        key_columns = self._key_columns
        scalar_key = len(key_columns) == 1
        width = self._width
        semi = not width
        lookups = self._lookups
        # One lookup whose matches give distinct tails: a key's tails
        # are its matches' tails as they are, with no set built.
        direct = not semi and len(lookups) == 1 and lookups[0].injective
        for in_cb in self.child.column_batches(size):
            if scalar_key:
                keys: Iterable = in_cb.columns[key_columns[0]]
            else:
                keys = zip(*(in_cb.columns[c] for c in key_columns))
            groups: dict = {}
            for index, key in enumerate(keys):
                group = groups.get(key)
                if group is None:
                    groups[key] = [index]
                else:
                    group.append(index)
            # Per key with a match, the distinct new-column tails.
            found: dict = {}
            probe = list(groups)
            for lookup in lookups:
                probed, patterns = lookup.patterns(probe, scalar_key, is_literal)
                if not patterns:
                    continue
                simple = lookup.simple
                for key, matches in zip(probed, match_many(patterns)):
                    if not matches:
                        continue
                    if simple is not None and (semi or direct):
                        # Nothing filters a match: it settles a semi-join
                        # key, or the matches' tails are the key's tails.
                        found[key] = True if semi else list(map(simple, matches))
                        continue
                    tails = found.get(key)
                    if tails is None:
                        tails = found[key] = set()
                    if simple is not None:
                        tails.update(map(simple, matches))
                    else:
                        components = (key,) if scalar_key else key
                        lookup.collect(matches, components, tails, is_literal, semi)
                if semi and lookup is not lookups[-1]:
                    # One match settles a semi-join key.
                    probe = [key for key in probe if not found.get(key)]
            sel: list[int] = []
            flat_tails: list = []
            for key, tails in found.items():
                if not tails:
                    continue  # matches, but none an alternative accepts
                indexes = groups[key]
                if semi:
                    sel.extend(indexes)
                    continue
                if not direct:
                    tails = list(tails)
                fanout = len(tails)
                if fanout == 1:
                    sel.extend(indexes)
                else:
                    for index in indexes:
                        sel.extend([index] * fanout)
                count = len(indexes)
                flat_tails.extend(tails if count == 1 else tails * count)
            if not sel:
                continue
            columns = [
                list(map(column.__getitem__, sel)) for column in in_cb.columns
            ]
            if width == 1:
                columns.append(flat_tails)
            elif width:
                columns.extend(zip(*flat_tails))
            yield ColumnBatch(tuple(columns), len(sel))

    def _describe(self) -> str:
        atom = "" if self.source is None else f"{self.source}, "
        return (
            f"UnionProbe({atom}{len(self.alternatives)} alternatives, "
            f"{len(self._lookups)} lookups){list(self.schema)}"
        )

    def _children(self) -> tuple[Operator, ...]:
        return (self.child,)


def _compile_probe(alternative, store: TripleStore, component: dict, fresh: list):
    """One alternative of a :class:`UnionProbe`, compiled.

    Returns ``(relaxed, exact, relax, checks, parts)`` — the lookup key
    with and without the relaxed constant (:class:`_Lookup`'s
    constructor arguments), the relaxed ``(position, code)`` or None,
    the key checks and the new columns' parts (see
    :func:`_make_tail`) — or None when a constant of the atom is
    absent from the data.
    """
    atom, head = alternative.atoms[0], alternative.head
    restricted = alternative.non_literal
    keyed: dict[str, int] = {}
    checks = []
    key_nl = []
    for index, c in component.items():
        term = head[index]
        if isinstance(term, Variable):
            keyed[term.name] = c
            if term in restricted:
                key_nl.append(c)
        else:
            checks.append((c, _head_value(term, store)))
    # The key components play the input columns of an index probe.
    template, fills, out, eqs, nl, impossible = _compile_atom(
        atom, store, restricted, keyed
    )
    if impossible:
        return None
    first = {name: position for position, name in out}
    parts = tuple(
        first[head[index].name] if isinstance(head[index], Variable)
        else (_head_value(head[index], store),)
        for index in fresh
    )
    rest = (fills, eqs, nl, tuple(key_nl))
    exact = (tuple(template),) + rest
    # The constant alternatives differ in: a class under rdf:type, else
    # the predicate — if a filled or constant position still remains.
    p, o = template[1], template[2]
    at = None
    if p is not None and o is not None and p == store.encode_term(RDF_TYPE):
        at = 2
    elif p is not None:
        at = 1
    if at is not None:
        relaxed_template = list(template)
        relaxed_template[at] = None
        if fills or any(code is not None for code in relaxed_template):
            relaxed = (tuple(relaxed_template),) + rest
            return relaxed, exact, (at, template[at]), tuple(checks), parts
    return exact, exact, None, tuple(checks), parts


class HashJoin(Operator):
    """Equi-join: build a hash table on the right input, stream the left.

    ``pairs`` are ``(left position, right position)`` key pairs;
    ``keep_right`` lists the right positions appended to each output row
    (natural-join semantics drop the right copy of shared columns).
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        pairs: Sequence[tuple[int, int]],
        keep_right: Sequence[int],
    ) -> None:
        self.left = left
        self.right = right
        self._left_keys = tuple(lp for lp, _ in pairs)
        self._right_keys = tuple(rp for _, rp in pairs)
        self._keep_right = tuple(keep_right)
        self.schema = left.schema + tuple(right.schema[p] for p in self._keep_right)

    @staticmethod
    def _key_vector(cb: ColumnBatch, positions: tuple[int, ...]):
        """The probe/build keys of one column batch: a bare column for a
        one-column key, else one tuple per row."""
        if len(positions) == 1:
            return cb.columns[positions[0]]
        if not positions:
            return [()] * len(cb)
        return zip(*(cb.columns[p] for p in positions))

    def column_batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[ColumnBatch]:
        """Columnar build and probe.

        When the join key is one column, the hash table is keyed on
        bare values read straight off the key vectors — no per-row key
        tuple on either side. Output columns assemble over a selection
        vector into the left batch plus the transposed build tails;
        rows come out in left order, then build order per key.
        """
        keep = self._keep_right
        table: dict = {}
        get = table.get
        for right_cb in self.right.column_batches(size):
            build_keys = self._key_vector(right_cb, self._right_keys)
            if keep:
                if len(keep) == 1:
                    build_tails: Iterable = [
                        (value,) for value in right_cb.columns[keep[0]]
                    ]
                else:
                    build_tails = zip(*(right_cb.columns[p] for p in keep))
            else:
                build_tails = [()] * len(right_cb)
            for key, tail in zip(build_keys, build_tails):
                tails = get(key)
                if tails is None:
                    table[key] = [tail]
                else:
                    tails.append(tail)
        for left_cb in self.left.column_batches(size):
            probe_keys = self._key_vector(left_cb, self._left_keys)
            sel: list[int] = []
            flat_tails: list[tuple] = []
            for index, key in enumerate(probe_keys):
                matches = get(key)
                if matches:
                    sel.extend([index] * len(matches))
                    flat_tails.extend(matches)
            if not sel:
                continue
            columns = [[column[i] for i in sel] for column in left_cb.columns]
            if keep:
                columns.extend(zip(*flat_tails))
            yield ColumnBatch(tuple(columns), len(sel))

    def _describe(self) -> str:
        condition = ",".join(
            f"{self.left.schema[lp]}={self.right.schema[rp]}"
            for lp, rp in zip(self._left_keys, self._right_keys)
        )
        return f"HashJoin[{condition}]{list(self.schema)}"

    def _children(self) -> tuple[Operator, ...]:
        return (self.left, self.right)
