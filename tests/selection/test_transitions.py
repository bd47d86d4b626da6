"""Unit tests for the four transitions (Definitions 3.2–3.5).

Beyond structural checks, every transition is validated *semantically*:
materializing the new views and executing the new rewriting must yield
exactly the same answers as the original query on the test store.
"""

import pytest

from repro.query.evaluation import evaluate
from repro.query.parser import parse_query
from repro.selection.materialize import answer_query, materialize_views
from repro.selection.state import ViewNamer, initial_state
from repro.selection.transitions import (
    TransitionEnumerator,
    TransitionKind,
    view_adjacency,
)


def check_rewriting_equivalence(state, queries, store):
    """Execute all rewritings over materialized views; compare to direct
    evaluation — the soundness contract of every transition."""
    extents = materialize_views(state, store)
    for query in queries:
        assert answer_query(state, query.name, extents) == evaluate(query, store), (
            f"rewriting of {query.name} is not equivalent\n{state.describe()}"
        )


@pytest.fixture()
def enum():
    return TransitionEnumerator(ViewNamer(), vb_mode="overlapping")


class TestSelectionCut:
    def test_constant_becomes_head_variable(self, q_painters, enum):
        state = initial_state([q_painters], enum.namer)
        view = state.views[0]
        transition = enum.apply_sc(state, view.name, 0, "o")
        new_view = transition.result.views[0]
        assert transition.kind is TransitionKind.SC
        assert len(new_view.head) == len(view.head) + 1
        assert len(new_view.constant_occurrences()) == len(view.constant_occurrences()) - 1

    def test_semantics_preserved(self, q_painters, museum_store, enum):
        state = initial_state([q_painters], enum.namer)
        view = state.views[0]
        for atom_index, attribute, _ in enum.sc_candidates(view):
            transition = enum.apply_sc(state, view.name, atom_index, attribute)
            check_rewriting_equivalence(transition.result, [q_painters], museum_store)

    def test_cut_on_variable_position_rejected(self, q_painters, enum):
        state = initial_state([q_painters], enum.namer)
        with pytest.raises(ValueError):
            enum.apply_sc(state, state.views[0].name, 0, "s")

    def test_candidates_enumerate_all_constants(self, q_painters, enum):
        # q1 has 3 property constants + 1 object constant.
        assert len(enum.sc_candidates(q_painters)) == 4

    def test_chained_cuts(self, q_painters, museum_store, enum):
        state = initial_state([q_painters], enum.namer)
        view_name = state.views[0].name
        state = enum.apply_sc(state, view_name, 0, "o").result
        view_name = state.views[0].name
        state = enum.apply_sc(state, view_name, 0, "p").result
        check_rewriting_equivalence(state, [q_painters], museum_store)


class TestJoinCut:
    def test_disconnecting_cut_splits_view(self, q_painters, enum):
        state = initial_state([q_painters], enum.namer)
        view = state.views[0]
        # Cutting Y at atom 1 (isParentOf object) separates atom 2's side?
        # Y links atoms 1 and 2 only; cutting its occurrence in atom 1
        # disconnects {0,1} from {2}.
        transition = enum.apply_jc(state, view.name, 1, "o")
        assert len(transition.result.views) == 2

    def test_non_disconnecting_cut_keeps_one_view(self, enum):
        # X occurs three times; cutting one occurrence keeps the rest joined.
        query = parse_query("q(X) :- t(X, p, Y), t(X, q, Z), t(X, r, W)")
        state = initial_state([query], enum.namer)
        transition = enum.apply_jc(state, state.views[0].name, 0, "s")
        assert len(transition.result.views) == 2  # star center: atom 0 detaches

    def test_triangle_cut_stays_connected(self, enum):
        query = parse_query("q(X) :- t(X, p, Y), t(Y, q, Z), t(Z, r, X)")
        state = initial_state([query], enum.namer)
        transition = enum.apply_jc(state, state.views[0].name, 0, "s")
        assert len(transition.result.views) == 1
        new_view = transition.result.views[0]
        assert len(new_view.head) == len(query.head) + 1  # X already in head, +fresh

    def test_semantics_preserved_all_cuts(self, q_painters, museum_store, enum):
        state = initial_state([q_painters], enum.namer)
        view = state.views[0]
        for atom_index, attribute in enum.jc_candidates(view):
            transition = enum.apply_jc(state, view.name, atom_index, attribute)
            check_rewriting_equivalence(transition.result, [q_painters], museum_store)

    def test_cut_on_constant_rejected(self, q_painters, enum):
        state = initial_state([q_painters], enum.namer)
        with pytest.raises(ValueError):
            enum.apply_jc(state, state.views[0].name, 0, "p")

    def test_cut_on_lone_variable_rejected(self, enum):
        query = parse_query("q(X) :- t(X, p, Y), t(X, q, Z)")
        state = initial_state([query], enum.namer)
        # Y occurs once: not a join variable.
        with pytest.raises(ValueError):
            enum.apply_jc(state, state.views[0].name, 0, "o")

    def test_candidates_only_join_occurrences(self, q_painters, enum):
        # Join variables of q1: X (atoms 0,1), Y (atoms 1,2); Z occurs once.
        candidates = enum.jc_candidates(q_painters)
        assert (0, "s") in candidates and (1, "s") in candidates
        assert (1, "o") in candidates and (2, "s") in candidates
        assert (2, "o") not in candidates
        assert len(candidates) == 4


class TestViewBreak:
    def test_two_atom_view_rejected(self, enum):
        query = parse_query("q(X, Z) :- t(X, p, Y), t(Y, q, Z)")
        state = initial_state([query], enum.namer)
        with pytest.raises(ValueError):
            enum.apply_vb(state, state.views[0].name, [0], [1])

    def test_disjoint_break(self, q_painters, museum_store, enum):
        state = initial_state([q_painters], enum.namer)
        transition = enum.apply_vb(state, state.views[0].name, [0, 1], [2])
        assert len(transition.result.views) == 2
        check_rewriting_equivalence(transition.result, [q_painters], museum_store)

    def test_overlapping_break_like_figure_1(self, q_painters, museum_store, enum):
        # Figure 1: Nv1 = {n1, n2}, Nv2 = {n2, n3}.
        state = initial_state([q_painters], enum.namer)
        transition = enum.apply_vb(state, state.views[0].name, [0, 1], [1, 2])
        v1, v2 = transition.result.views
        assert len(v1) == 2 and len(v2) == 2
        check_rewriting_equivalence(transition.result, [q_painters], museum_store)

    def test_included_parts_rejected(self, q_painters, enum):
        state = initial_state([q_painters], enum.namer)
        with pytest.raises(ValueError):
            enum.apply_vb(state, state.views[0].name, [0, 1, 2], [1])

    def test_non_covering_parts_rejected(self, q_painters, enum):
        state = initial_state([q_painters], enum.namer)
        with pytest.raises(ValueError):
            enum.apply_vb(state, state.views[0].name, [0], [1])

    def test_disconnected_part_rejected(self, q_painters, enum):
        # Atoms 0 and 2 of q1 share no variable.
        state = initial_state([q_painters], enum.namer)
        with pytest.raises(ValueError):
            enum.apply_vb(state, state.views[0].name, [0, 2], [1])

    def test_all_candidate_breaks_preserve_semantics(
        self, q_painters, museum_store, enum
    ):
        state = initial_state([q_painters], enum.namer)
        view = state.views[0]
        candidates = enum.vb_candidates(view)
        assert candidates, "expected at least one VB candidate"
        for part1, part2 in candidates:
            transition = enum.apply_vb(state, view.name, part1, part2)
            check_rewriting_equivalence(transition.result, [q_painters], museum_store)

    def test_candidates_are_connected_covers_of_the_join_graph(self, q_painters):
        # q1 is a chain: X joins atoms 0-1, Y joins atoms 1-2.
        assert view_adjacency(q_painters) == {0: {1}, 1: {0, 2}, 2: {1}}
        disjoint = TransitionEnumerator(vb_mode="disjoint")
        assert disjoint.vb_candidates(q_painters) == [((0,), (1, 2)), ((0, 1), (2,))]

    def test_star_view_breaks_anywhere(self):
        # Star queries have clique join graphs (Section 6.2): every
        # two-block split of the atoms is a pair of connected parts.
        query = parse_query("q(X) :- t(X, p, c), t(X, q, d), t(X, r, e), t(X, s, f)")
        adjacency = view_adjacency(query)
        assert all(adjacency[i] == {0, 1, 2, 3} - {i} for i in range(4))
        assert len(TransitionEnumerator().vb_candidates(query)) == 2 ** 3 - 1

    def test_disjoint_mode_yields_fewer_candidates(self, q_painters):
        disjoint = TransitionEnumerator(vb_mode="disjoint")
        overlapping = TransitionEnumerator(vb_mode="overlapping")
        assert len(disjoint.vb_candidates(q_painters)) <= len(
            overlapping.vb_candidates(q_painters)
        )


class TestViewFusion:
    def test_identical_views_fuse(self, museum_store, enum):
        q1 = parse_query("q1(X) :- t(X, hasPainted, Y)")
        q2 = parse_query("q2(Z) :- t(Z, hasPainted, W)")
        state = initial_state([q1, q2], enum.namer)
        pairs = enum.vf_candidates(state)
        assert len(pairs) == 1
        transition = enum.apply_vf(state, *pairs[0])
        assert len(transition.result.views) == 1
        check_rewriting_equivalence(transition.result, [q1, q2], museum_store)

    def test_fused_head_is_union(self, enum):
        q1 = parse_query("q1(X) :- t(X, hasPainted, Y)")
        q2 = parse_query("q2(W) :- t(Z, hasPainted, W)")  # projects the object
        state = initial_state([q1, q2], enum.namer)
        transition = enum.apply_vf(state, *enum.vf_candidates(state)[0])
        fused = transition.result.views[0]
        assert len(fused.head) == 2  # subject and object both exported

    def test_non_isomorphic_views_rejected(self, enum):
        q1 = parse_query("q1(X) :- t(X, hasPainted, Y)")
        q2 = parse_query("q2(X) :- t(X, isParentOf, Y)")
        state = initial_state([q1, q2], enum.namer)
        assert enum.vf_candidates(state) == []
        names = [v.name for v in state.views]
        with pytest.raises(ValueError):
            enum.apply_vf(state, *names)

    def test_fusion_after_cuts(self, museum_store, enum):
        # Two different selections over the same pattern: after SC both
        # relax to the same all-variable-object view and can fuse.
        q1 = parse_query("q1(X) :- t(X, hasPainted, starryNight)")
        q2 = parse_query("q2(X) :- t(X, hasPainted, babel)")
        state = initial_state([q1, q2], enum.namer)
        state = enum.apply_sc(state, state.views[0].name, 0, "o").result
        target = next(v for v in state.views if "q2" not in v.name and len(v.head) == 1)
        state = enum.apply_sc(state, target.name, 0, "o").result
        pairs = enum.vf_candidates(state)
        assert pairs
        fused = enum.apply_vf(state, *pairs[0]).result
        assert len(fused.views) == 1
        check_rewriting_equivalence(fused, [q1, q2], museum_store)


class TestEnumeration:
    def test_transitions_cover_all_kinds(self, q_painters, enum):
        q2 = parse_query("q2(A, B) :- t(A, hasPainted, B), t(A, hasPainted, C)")
        state = initial_state([q_painters, q2], enum.namer)
        kinds = {t.kind for t in enum.transitions(state)}
        assert TransitionKind.SC in kinds
        assert TransitionKind.JC in kinds
        assert TransitionKind.VB in kinds

    def test_transition_filter(self, q_painters, enum):
        state = initial_state([q_painters], enum.namer)
        only_sc = list(enum.transitions(state, [TransitionKind.SC]))
        assert only_sc and all(t.kind is TransitionKind.SC for t in only_sc)

    def test_every_enumerated_transition_is_sound(
        self, q_painters, museum_store, enum
    ):
        state = initial_state([q_painters], enum.namer)
        for transition in enum.transitions(state):
            check_rewriting_equivalence(transition.result, [q_painters], museum_store)
