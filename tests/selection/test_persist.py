"""Unit tests for view-set persistence (the offline-client format)."""

import json

import pytest

from repro.query.cq import Variable
from repro.query.evaluation import evaluate
from repro.query.parser import parse_query
from repro.rdf.terms import BlankNode, Literal, URI
from repro.selection import persist
from repro.selection.costs import CostModel
from repro.selection.materialize import answer_query, materialize_views
from repro.selection.search import SearchBudget, run_search
from repro.selection.state import ViewNamer, initial_state
from repro.selection.statistics import StoreStatistics
from repro.selection.transitions import TransitionEnumerator


class TestTermRoundtrip:
    @pytest.mark.parametrize(
        "term",
        [
            URI("http://a#x"),
            BlankNode("b7"),
            Literal("plain"),
            Literal("tagged", language="fr"),
            Literal("7", datatype=URI("http://int")),
            Variable("X"),
        ],
    )
    def test_roundtrip(self, term):
        assert persist.decode_term(persist.encode_term(term)) == term

    def test_malformed_rejected(self):
        with pytest.raises(persist.PersistenceError):
            persist.decode_term({"weird": 1})
        with pytest.raises(persist.PersistenceError):
            persist.decode_term("not-a-dict")


class TestQueryRoundtrip:
    def test_plain_query(self, q_painters):
        assert persist.decode_query(persist.encode_query(q_painters)) == q_painters

    def test_non_literal_restriction_preserved(self):
        query = parse_query("q(X) :- t(Y, p, X)").with_non_literal([Variable("X")])
        decoded = persist.decode_query(persist.encode_query(query))
        assert decoded.non_literal == frozenset({Variable("X")})


class TestStateRoundtrip:
    def make_searched_state(self, museum_store):
        queries = [
            parse_query("q1(X) :- t(X, hasPainted, starryNight)"),
            parse_query("q2(X, Y) :- t(X, hasPainted, Y), t(X, rdf:type, painter)"),
        ]
        namer = ViewNamer()
        enumerator = TransitionEnumerator(namer, vb_mode="overlapping")
        model = CostModel(StoreStatistics(museum_store))
        state = initial_state(queries, namer)
        result = run_search(
            state, model, "dfs", enumerator, SearchBudget(time_limit=2.0)
        )
        return queries, result.best_state

    def test_state_key_survives_roundtrip(self, museum_store):
        _, state = self.make_searched_state(museum_store)
        restored, _ = persist.loads(persist.dumps(state))
        assert restored.key == state.key
        assert {v.name for v in restored.views} == {v.name for v in state.views}

    def test_offline_answers_from_restored_document(self, museum_store):
        """The headline property: a restored state + extents answers the
        workload with no store access."""
        queries, state = self.make_searched_state(museum_store)
        extents = materialize_views(state, museum_store)
        text = persist.dumps(state, extents)
        restored_state, restored_extents = persist.loads(text)
        assert restored_extents is not None
        for query in queries:
            assert answer_query(
                restored_state, query.name, restored_extents
            ) == evaluate(query, museum_store)

    def test_file_roundtrip(self, museum_store, tmp_path):
        queries, state = self.make_searched_state(museum_store)
        extents = materialize_views(state, museum_store)
        path = tmp_path / "viewset.json"
        persist.save(path, state, extents, indent=2)
        restored_state, restored_extents = persist.load(path)
        assert restored_state.key == state.key
        assert restored_extents.keys() == extents.keys()


def _scan(state):
    """The scan plan of a one-query S0 document's one rewriting."""
    (rewriting,) = state["rewritings"].values()
    return rewriting[0]["plan"]


def _wrap_scan(op, **fields):
    """A corruption putting an ``op`` node with ``fields`` over the scan."""

    def corrupt(state):
        plan = _scan(state)
        child = dict(plan)
        plan.clear()
        plan.update(op=op, child=child, query=None, **fields)

    return corrupt


#: Corruptions of a valid document's state, one per way it can be
#: malformed.
MALFORMED = {
    "project-unknown-column": _wrap_scan("project", columns=["nowhere"]),
    "duplicate-scan-column": lambda state: _scan(state).update(schema=["X", "X"]),
    "missing-views": lambda state: state.pop("views"),
    "unknown-view": lambda state: _scan(state).update(view="unknown"),
    "select-unknown-column": _wrap_scan(
        "select", conditions=[{"kind": "col", "left": "nowhere", "right": "nowhere"}]
    ),
}


class TestFormatValidation:
    def test_not_json(self):
        with pytest.raises(persist.PersistenceError):
            persist.loads("definitely not json")

    def test_wrong_format_tag(self):
        with pytest.raises(persist.PersistenceError):
            persist.loads('{"format": "other", "version": 1}')

    def test_wrong_version(self):
        with pytest.raises(persist.PersistenceError):
            persist.loads('{"format": "repro-viewset", "version": 99}')

    @pytest.mark.parametrize("corrupt", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_state_raises_persistence_error(self, q_painters, corrupt):
        """Every malformed document fails in ``loads``, with the one
        error type the format promises: never a stray ``KeyError``, and
        never a plan that fails only when it runs."""
        document = json.loads(persist.dumps(initial_state([q_painters])))
        corrupt(document["state"])
        with pytest.raises(persist.PersistenceError):
            persist.loads(json.dumps(document))

    def test_extents_optional(self, q_painters):
        state = initial_state([q_painters])
        restored, extents = persist.loads(persist.dumps(state))
        assert extents is None
        assert restored.key == state.key
