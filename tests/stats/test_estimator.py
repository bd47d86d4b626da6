"""Unit tests for the shared System-R cardinality estimator."""

import pytest

from repro.query.parser import parse_query
from repro.rdf.store import TripleStore
from repro.rdf.triples import Triple
from repro.stats import CardinalityEstimator, CatalogStatistics, FixedStatistics

from tests.conftest import ex


def store_estimator(store: TripleStore) -> CardinalityEstimator:
    return CardinalityEstimator(CatalogStatistics(store.stats))


class TestConjunctionCardinality:
    def test_single_atom_is_exact(self, museum_store):
        estimator = store_estimator(museum_store)
        query = parse_query("v(X, Y) :- t(X, hasPainted, Y)")
        assert estimator.conjunction_cardinality(query.atoms) == pytest.approx(6.0)

    def test_join_variable_applies_selectivity(self, museum_store):
        estimator = store_estimator(museum_store)
        join = parse_query("v(X, Z) :- t(X, hasPainted, Y), t(Y, rdf:type, Z)")
        left = parse_query("v1(X, Y) :- t(X, hasPainted, Y)")
        right = parse_query("v2(Y, Z) :- t(Y, rdf:type, Z)")
        product = estimator.conjunction_cardinality(
            left.atoms
        ) * estimator.conjunction_cardinality(right.atoms)
        assert estimator.conjunction_cardinality(join.atoms) < product

    def test_estimate_clamped_to_one_row(self):
        estimator = CardinalityEstimator(FixedStatistics(total=10, selectivity=1e-9))
        query = parse_query("v(X) :- t(X, p, c), t(X, q, d)")
        assert estimator.conjunction_cardinality(query.atoms) >= 1.0

    def test_memo_refreshes_on_store_mutation(self):
        store = TripleStore()
        store.add(Triple(ex("a"), ex("p"), ex("b")))
        estimator = store_estimator(store)
        query = parse_query("v(X, Y) :- t(X, p, Y)")
        assert estimator.conjunction_cardinality(query.atoms) == pytest.approx(1.0)
        store.add(Triple(ex("c"), ex("p"), ex("d")))
        assert estimator.conjunction_cardinality(query.atoms) == pytest.approx(2.0)


class TestJoinOrder:
    def test_starts_from_rarest_atom(self, museum_store):
        estimator = store_estimator(museum_store)
        query = parse_query(
            "q(X, Z) :- t(X, hasPainted, Y), t(X, hasPainted, starryNight), "
            "t(X, isParentOf, Z)"
        )
        order = estimator.join_order(query.atoms)
        assert order[0] == 1  # the single-match constant atom leads

    def test_prefers_connected_expansion(self, museum_store):
        estimator = store_estimator(museum_store)
        # Atom 1 is rare but disconnected from atom 0's variables; the
        # connected atom 2 must come before the Cartesian step.
        query = parse_query(
            "q(X) :- t(X, hasPainted, starryNight), "
            "t(W, isExposedIn, brussels), t(X, isParentOf, Z)"
        )
        order = estimator.join_order(query.atoms)
        assert order.index(2) < order.index(1)

    def test_order_is_a_permutation(self, museum_store):
        estimator = store_estimator(museum_store)
        query = parse_query(
            "q(X, W) :- t(X, isParentOf, Y), t(Y, hasPainted, Z), "
            "t(Z, rdf:type, W)"
        )
        assert sorted(estimator.join_order(query.atoms)) == [0, 1, 2]

    def test_bound_variables_lead_with_a_connected_atom(self, museum_store):
        from repro.query.cq import Variable

        estimator = store_estimator(museum_store)
        # Unbound, the single-match constant atom 1 leads; with Z bound
        # by an input row, atom 2 is the only connected first step.
        query = parse_query(
            "q(X) :- t(X, hasPainted, Y), t(W, isExposedIn, brussels), "
            "t(X, isParentOf, Z)"
        )
        assert estimator.join_order(query.atoms)[0] == 1
        assert estimator.join_order(query.atoms, bound=[Variable("Z")]) == [2, 0, 1]
        # Nothing connected to the bound variables: the unbound order.
        assert estimator.join_order(
            query.atoms, bound=[Variable("Elsewhere")]
        ) == estimator.join_order(query.atoms)

    def test_unbound_order_is_the_one_before_bound_existed(
        self, barton_store, barton_schema
    ):
        """``join_order(atoms)`` over the ad-hoc benchmark's four query
        classes and every disjunct of their reformulations equals the
        greedy loop as it stood before ``bound`` was added."""
        from repro.reformulation import reformulate
        from repro.workload import (
            QueryShape, SatisfiableWorkloadGenerator, WorkloadSpec,
        )

        def before(estimator, atoms):
            counts = [estimator.atom_cardinality(atom) for atom in atoms]
            remaining = set(range(len(atoms)))
            order, bound = [], set()
            while remaining:
                if bound:
                    connected = [i for i in remaining if atoms[i].variables() & bound]
                    pool = connected or sorted(remaining)
                else:
                    pool = sorted(remaining)
                best = min(pool, key=lambda i: (counts[i], i))
                order.append(best)
                remaining.discard(best)
                bound |= atoms[best].variables()
            return order

        estimator = store_estimator(barton_store)
        generator = SatisfiableWorkloadGenerator(barton_store, seed=0)
        specs = [
            WorkloadSpec(6, 1, QueryShape.STAR, "low", constant_probability=0.0),
            WorkloadSpec(6, 4, QueryShape.STAR, "low", constant_probability=0.0),
            WorkloadSpec(6, 3, QueryShape.CHAIN, "low", constant_probability=0.0),
            WorkloadSpec(6, 4, QueryShape.STAR, "low", constant_probability=0.5),
        ]
        bodies = {
            disjunct.atoms
            for spec in specs
            for query in generator.generate(spec)
            for disjunct in reformulate(query, barton_schema).disjuncts
        }
        assert len(bodies) > 100
        for atoms in bodies:
            assert estimator.join_order(atoms) == before(estimator, atoms)

    def test_prefix_cardinalities_match_direct_formula(self, museum_store):
        estimator = store_estimator(museum_store)
        query = parse_query(
            "q(X, W) :- t(X, isParentOf, Y), t(Y, hasPainted, Z), "
            "t(Z, rdf:type, W), t(X, hasPainted, V)"
        )
        order = estimator.join_order(query.atoms)
        prefixes = estimator.prefix_cardinalities(query.atoms, order)
        for end, value in enumerate(prefixes, start=1):
            direct = estimator.conjunction_cardinality(
                [query.atoms[i] for i in order[:end]]
            )
            assert value == pytest.approx(direct)

    def test_prefix_cardinalities_monotone_shapes(self, museum_store):
        estimator = store_estimator(museum_store)
        query = parse_query(
            "q(X, W) :- t(X, isParentOf, Y), t(Y, hasPainted, Z), "
            "t(Z, rdf:type, W)"
        )
        order = estimator.join_order(query.atoms)
        prefixes = estimator.prefix_cardinalities(query.atoms, order)
        assert len(prefixes) == 3
        assert all(value >= 1.0 for value in prefixes)


class TestDegenerateStores:
    """Satellite regression: no division by zero on empty/degenerate data."""

    def test_empty_store_estimates_are_finite(self):
        estimator = store_estimator(TripleStore())
        query = parse_query("q(X, Z) :- t(X, p, Y), t(Y, q, Z)")
        estimate = estimator.conjunction_cardinality(query.atoms)
        assert estimate == pytest.approx(1.0)  # clamped, not NaN/inf

    def test_empty_store_selectivity_guard(self):
        estimator = store_estimator(TripleStore())
        assert estimator.join_selectivity(("s", "o")) == pytest.approx(1.0)
        assert estimator.join_selectivity(()) == pytest.approx(1.0)

    def test_empty_store_join_order_and_prefixes(self):
        estimator = store_estimator(TripleStore())
        query = parse_query("q(X, Z) :- t(X, p, Y), t(Y, q, Z)")
        order = estimator.join_order(query.atoms)
        assert sorted(order) == [0, 1]
        prefixes = estimator.prefix_cardinalities(query.atoms, order)
        assert all(value >= 1.0 for value in prefixes)

    def test_empty_store_average_term_size_nominal(self):
        statistics = CatalogStatistics(TripleStore().stats)
        assert statistics.average_term_size() > 0
