"""Persistence of recommended view sets and their extents.

The introduction's deployment story: "if the views are stored at the
client, no connection is needed and the application can run off-line,
independently from the database server." This module serializes a
:class:`~repro.selection.state.State` (views plus executable rewriting
plans) together with materialized extents into a single JSON document,
and restores both — so a client can answer every workload query with
nothing but that file.

The format is self-describing and version-tagged; terms, atoms, queries,
plan nodes and head templates all round-trip exactly.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from repro.query.algebra import (
    EqualsColumn,
    EqualsConstant,
    Join,
    Plan,
    Project,
    Rename,
    Scan,
    Select,
)
from repro.query.cq import Atom, ConjunctiveQuery, QueryTerm, Variable
from repro.rdf.terms import BlankNode, Literal, Term, URI
from repro.selection.state import RewritingDisjunct, State

FORMAT_VERSION = 1


class PersistenceError(ValueError):
    """Raised on malformed or incompatible serialized documents."""


# ----------------------------------------------------------------------
# Terms
# ----------------------------------------------------------------------


def encode_term(term: QueryTerm) -> Any:
    if isinstance(term, Variable):
        return {"v": term.name}
    if isinstance(term, URI):
        return {"u": term.value}
    if isinstance(term, BlankNode):
        return {"b": term.label}
    if isinstance(term, Literal):
        encoded: dict[str, Any] = {"l": term.lexical}
        if term.language is not None:
            encoded["lang"] = term.language
        if term.datatype is not None:
            encoded["dt"] = term.datatype.value
        return encoded
    raise PersistenceError(f"cannot encode term {term!r}")


def decode_term(data: Any) -> QueryTerm:
    if not isinstance(data, dict):
        raise PersistenceError(f"malformed term {data!r}")
    if "v" in data:
        return Variable(data["v"])
    if "u" in data:
        return URI(data["u"])
    if "b" in data:
        return BlankNode(data["b"])
    if "l" in data:
        datatype = URI(data["dt"]) if "dt" in data else None
        return Literal(data["l"], datatype=datatype, language=data.get("lang"))
    raise PersistenceError(f"malformed term {data!r}")


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------


def encode_query(query: ConjunctiveQuery) -> Any:
    return {
        "name": query.name,
        "head": [encode_term(t) for t in query.head],
        "atoms": [[encode_term(t) for t in atom] for atom in query.atoms],
        "non_literal": sorted(v.name for v in query.non_literal),
    }


def decode_query(data: Any) -> ConjunctiveQuery:
    try:
        head = tuple(decode_term(t) for t in data["head"])
        atoms = tuple(
            Atom(*(decode_term(t) for t in atom)) for atom in data["atoms"]
        )
        restricted = frozenset(Variable(n) for n in data.get("non_literal", ()))
        return ConjunctiveQuery(
            head, atoms, name=data["name"], non_literal=restricted
        )
    except (KeyError, TypeError) as exc:
        raise PersistenceError(f"malformed query: {exc}") from exc


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------


def encode_plan(plan: Plan) -> Any:
    query = encode_query(plan.query) if plan.query is not None else None
    if isinstance(plan, Scan):
        return {"op": "scan", "view": plan.view, "schema": list(plan.schema),
                "query": query}
    if isinstance(plan, Select):
        conditions = []
        for condition in plan.conditions:
            if isinstance(condition, EqualsConstant):
                conditions.append(
                    {"kind": "const", "column": condition.column,
                     "value": encode_term(condition.value)}
                )
            else:
                conditions.append(
                    {"kind": "col", "left": condition.left, "right": condition.right}
                )
        return {"op": "select", "child": encode_plan(plan.child),
                "conditions": conditions, "query": query}
    if isinstance(plan, Project):
        return {"op": "project", "child": encode_plan(plan.child),
                "columns": list(plan.columns), "query": query}
    if isinstance(plan, Rename):
        return {"op": "rename", "child": encode_plan(plan.child),
                "columns": list(plan.columns), "query": query}
    if isinstance(plan, Join):
        return {"op": "join", "left": encode_plan(plan.left),
                "right": encode_plan(plan.right),
                "pairs": [list(pair) for pair in plan.pairs], "query": query}
    raise PersistenceError(f"cannot encode plan node {plan!r}")


def decode_plan(data: Any) -> Plan:
    try:
        query = decode_query(data["query"]) if data.get("query") else None
        operator = data["op"]
        if operator == "scan":
            return Scan(data["view"], tuple(data["schema"]), query=query)
        if operator == "select":
            conditions = []
            for condition in data["conditions"]:
                if condition["kind"] == "const":
                    conditions.append(
                        EqualsConstant(condition["column"], decode_term(condition["value"]))
                    )
                else:
                    conditions.append(EqualsColumn(condition["left"], condition["right"]))
            return Select(decode_plan(data["child"]), tuple(conditions), query=query)
        if operator == "project":
            return Project(decode_plan(data["child"]), tuple(data["columns"]), query=query)
        if operator == "rename":
            return Rename(decode_plan(data["child"]), tuple(data["columns"]), query=query)
        if operator == "join":
            return Join(
                decode_plan(data["left"]),
                decode_plan(data["right"]),
                tuple(tuple(pair) for pair in data["pairs"]),
                query=query,
            )
    except PersistenceError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError: a node's constructor rejected its columns.
        raise PersistenceError(f"malformed plan: {exc}") from exc
    raise PersistenceError(f"unknown plan operator {data.get('op')!r}")


# ----------------------------------------------------------------------
# States and extents
# ----------------------------------------------------------------------


def encode_state(state: State) -> Any:
    return {
        "views": [encode_query(view) for view in state.views],
        "rewritings": {
            name: [
                {
                    "plan": encode_plan(disjunct.plan),
                    "head_template": (
                        [encode_term(t) for t in disjunct.head_template]
                        if disjunct.head_template is not None
                        else None
                    ),
                }
                for disjunct in rewriting
            ]
            for name, rewriting in state.rewritings.items()
        },
    }


def decode_state(data: Any) -> State:
    try:
        views = tuple(decode_query(view) for view in data["views"])
        rewritings = {}
        for name, disjuncts in data["rewritings"].items():
            rewritings[name] = tuple(
                RewritingDisjunct(
                    decode_plan(entry["plan"]),
                    (
                        tuple(decode_term(t) for t in entry["head_template"])
                        if entry.get("head_template") is not None
                        else None
                    ),
                )
                for entry in disjuncts
            )
        return State(views, rewritings)
    except PersistenceError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # ValueError: the state's invariants rejected its views.
        raise PersistenceError(f"malformed state: {exc}") from exc


def dumps(
    state: State,
    extents: Mapping[str, Sequence[tuple[Term, ...]]] | None = None,
    indent: int | None = None,
) -> str:
    """Serialize a state (and optionally its extents) to JSON text."""
    document: dict[str, Any] = {
        "format": "repro-viewset",
        "version": FORMAT_VERSION,
        "state": encode_state(state),
    }
    if extents is not None:
        document["extents"] = {
            name: [[encode_term(term) for term in row] for row in rows]
            for name, rows in extents.items()
        }
    return json.dumps(document, indent=indent, sort_keys=True)


def loads(text: str) -> tuple[State, dict[str, list[tuple[Term, ...]]] | None]:
    """Restore a state (and extents, when present) from JSON text."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"not JSON: {exc}") from exc
    if document.get("format") != "repro-viewset":
        raise PersistenceError("not a repro view-set document")
    if document.get("version") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported format version {document.get('version')!r}"
        )
    state = decode_state(document["state"])
    extents = None
    if "extents" in document:
        extents = {
            name: [tuple(decode_term(term) for term in row) for row in rows]
            for name, rows in document["extents"].items()
        }
    return state, extents


def save(path, state: State, extents=None, indent: int | None = None) -> None:
    """Write a state (+ extents) to a file."""
    from pathlib import Path

    Path(path).write_text(dumps(state, extents, indent=indent))


def load(path) -> tuple[State, dict | None]:
    """Read a state (+ extents) back from a file."""
    from pathlib import Path

    return loads(Path(path).read_text())
