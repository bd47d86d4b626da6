"""Property-based contracts of the incremental search core.

(a) Incremental costing: along any random transition sequence, the
    memoized ``CostModel.cost`` of every successor equals a full
    recompute by a fresh cost model *exactly* (bitwise float equality —
    the memo layers are designed to be indistinguishable from
    recomputation), and pricing a successor misses the memo only on the
    views and plans its transition touched.
(b) Delta-derived state structures: a successor's key and users index,
    derived from its parent's, equal their recomputation from scratch.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.selection.costs import CostModel
from repro.selection.state import State, ViewNamer, canonical_token, initial_state
from repro.selection.statistics import StoreStatistics, ZipfStatistics
from repro.selection.transitions import TransitionEnumerator

from tests.property import strategies as us

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@COMMON
@given(
    store=us.stores(max_size=20),
    q1=us.connected_queries(max_atoms=3, allow_property_variable=False),
    q2=us.connected_queries(max_atoms=2, allow_property_variable=False),
    picks=st.lists(st.integers(0, 1_000), min_size=1, max_size=5),
)
def test_incremental_costs_match_full_recompute_oracle(store, q1, q2, picks):
    """(a) Chained incremental breakdowns == fresh-model recompute, exactly."""
    queries = [q1.with_name("q1"), q2.with_name("q2")]
    namer = ViewNamer()
    enumerator = TransitionEnumerator(namer, vb_mode="overlapping")
    statistics = StoreStatistics(store)
    model = CostModel(statistics)
    state = initial_state(queries, namer)
    assert model.cost(state) == CostModel(statistics, incremental=False).cost(state)
    for pick in picks:
        transitions = list(enumerator.transitions(state))
        if not transitions:
            break
        transition = transitions[pick % len(transitions)]
        # The full-recompute oracle: a fresh, memo-less model.
        oracle = CostModel(statistics, incremental=False).cost(transition.result)
        assert model.cost(transition.result) == oracle  # bitwise — no approx
        # And a fresh *incremental* model agrees too (cold == warm).
        assert CostModel(statistics).cost(transition.result) == oracle
        state = transition.result


@COMMON
@given(
    q1=us.connected_queries(max_atoms=3, allow_property_variable=False),
    picks=st.lists(st.integers(0, 1_000), min_size=1, max_size=4),
)
def test_repricing_is_bounded_by_the_transition(q1, picks):
    """(a) The incremental model re-prices at most the touched components:
    its memo misses grow by at most the added views and the rewriting
    plans the substitution replaced (found by plan identity)."""
    namer = ViewNamer()
    enumerator = TransitionEnumerator(namer, vb_mode="overlapping")
    model = CostModel(ZipfStatistics(seed=11))
    state = initial_state([q1.with_name("q1")], namer)
    model.cost(state)
    counters = model.counters
    for pick in picks:
        transitions = list(enumerator.transitions(state))
        if not transitions:
            break
        transition = transitions[pick % len(transitions)]
        before = {
            id(disjunct.plan)
            for rewriting in state.rewritings.values()
            for disjunct in rewriting
        }
        result = transition.result
        rewritten = sum(
            id(disjunct.plan) not in before
            for rewriting in result.rewritings.values()
            for disjunct in rewriting
        )
        views, plans = counters["view_misses"], counters["plan_misses"]
        model.cost(result)
        assert counters["view_misses"] - views <= len(transition.added)
        assert counters["plan_misses"] - plans <= rewritten
        state = result


@COMMON
@given(
    q1=us.connected_queries(max_atoms=3, allow_property_variable=False),
    q2=us.connected_queries(max_atoms=3, allow_property_variable=False),
    picks=st.lists(st.integers(0, 1_000), min_size=1, max_size=5),
)
def test_derived_keys_and_users_equal_recomputation(q1, q2, picks):
    """(b) Along any transition sequence, every successor's key derived
    from its parent's equals the key recomputed from its views, and its
    derived users index equals the one recomputed from the rewritings."""
    namer = ViewNamer()
    enumerator = TransitionEnumerator(namer, vb_mode="overlapping")
    state = initial_state([q1.with_name("q1"), q2.with_name("q2")], namer)
    for pick in picks:
        transitions = list(enumerator.transitions(state))
        if not transitions:
            break
        for transition in transitions:
            result = transition.result
            recomputed = tuple(sorted(canonical_token(v) for v in result.views))
            assert transition.key == recomputed
            assert result.key == recomputed
            fresh = State(result.views, result.rewritings)
            assert result.users() == fresh.users()
        state = transitions[pick % len(transitions)].result
