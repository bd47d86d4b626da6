"""Property-based contracts of the incremental search core.

(a) Incremental costing: along any random transition sequence, the
    :class:`CostDelta` breakdowns produced by
    :meth:`CostModel.transition_cost` equal a full recompute by a fresh
    cost model *exactly* (bitwise float equality — the memo layers are
    designed to be indistinguishable from recomputation).
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
def test_incremental_cost_deltas_match_full_recompute_oracle(store, q1, q2, picks):
    """(a) Chained incremental breakdowns == fresh-model recompute, exactly."""
    queries = [q1.with_name("q1"), q2.with_name("q2")]
    namer = ViewNamer()
    enumerator = TransitionEnumerator(namer, vb_mode="overlapping")
    statistics = StoreStatistics(store)
    model = CostModel(statistics)
    state = initial_state(queries, namer)
    breakdown = model.cost(state)
    assert breakdown == CostModel(statistics, incremental=False).cost(state)
    for pick in picks:
        transitions = list(enumerator.transitions(state))
        if not transitions:
            break
        transition = transitions[pick % len(transitions)]
        delta = model.transition_cost(breakdown, transition)
        # The full-recompute oracle: a fresh, memo-less model.
        oracle = CostModel(statistics, incremental=False).cost(transition.result)
        assert delta.breakdown == oracle  # bitwise — no approx
        # And a fresh *incremental* model agrees too (cold == warm).
        assert CostModel(statistics).cost(transition.result) == oracle
        state, breakdown = transition.result, delta.breakdown


@COMMON
@given(
    q1=us.connected_queries(max_atoms=3, allow_property_variable=False),
    picks=st.lists(st.integers(0, 1_000), min_size=1, max_size=4),
)
def test_repricing_is_bounded_by_the_state_delta(q1, picks):
    """(a) The incremental model re-prices at most the touched components."""
    namer = ViewNamer()
    enumerator = TransitionEnumerator(namer, vb_mode="overlapping")
    model = CostModel(ZipfStatistics(seed=11))
    state = initial_state([q1.with_name("q1")], namer)
    breakdown = model.cost(state)
    for pick in picks:
        transitions = list(enumerator.transitions(state))
        if not transitions:
            break
        transition = transitions[pick % len(transitions)]
        delta = model.transition_cost(breakdown, transition)
        assert delta.repriced_views <= len(transition.delta.added)
        assert delta.repriced_plans <= len(transition.delta.plan_changes)
        state, breakdown = transition.result, delta.breakdown


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
