"""Unit tests for statistics providers (Sections 3.3 and 4.3)."""

from repro.query.cq import Atom, Variable
from repro.rdf.entailment import saturate
from repro.selection.statistics import (
    FixedStatistics,
    ReformulationAwareStatistics,
    StoreStatistics,
)

from tests.conftest import ex

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


class TestStoreStatistics:
    def test_atom_count_is_exact(self, museum_store):
        stats = StoreStatistics(museum_store)
        assert stats.atom_count(Atom(X, ex("hasPainted"), Y)) == 6
        assert stats.atom_count(Atom(X, ex("hasPainted"), ex("starryNight"))) == 1
        assert stats.atom_count(Atom(X, Y, Z)) == len(museum_store)

    def test_unknown_constant_counts_zero(self, museum_store):
        stats = StoreStatistics(museum_store)
        assert stats.atom_count(Atom(X, ex("neverSeen"), Y)) == 0

    def test_caching_returns_same_values(self, museum_store):
        stats = StoreStatistics(museum_store)
        atom = Atom(X, ex("hasPainted"), Y)
        assert stats.atom_count(atom) == stats.atom_count(atom)

    def test_column_distincts_delegate_to_store(self, museum_store):
        stats = StoreStatistics(museum_store)
        for column in ("s", "p", "o"):
            assert stats.distinct_values(column) == museum_store.distinct_values(column)

    def test_totals(self, museum_store):
        stats = StoreStatistics(museum_store)
        assert stats.total_triples() == len(museum_store)
        assert stats.average_term_size() > 0


class TestReformulationAwareStatistics:
    def test_counts_match_saturated_store(self, museum_store, museum_schema):
        """The Section 4.3 claim: post-reformulation statistics equal the
        statistics of the saturated database."""
        saturated = StoreStatistics(saturate(museum_store, museum_schema))
        aware = ReformulationAwareStatistics(museum_store, museum_schema)
        atoms = [
            Atom(X, vocab_type(), ex("picture")),
            Atom(X, vocab_type(), ex("painting")),
            Atom(X, ex("isLocatedIn"), Y),
            Atom(X, ex("hasPainted"), Y),
            Atom(X, vocab_type(), Y),
            Atom(X, Y, Z),
        ]
        for atom in atoms:
            assert aware.atom_count(atom) == saturated.atom_count(atom), atom

    def test_implicit_triples_increase_counts(self, museum_store, museum_schema):
        plain = StoreStatistics(museum_store)
        aware = ReformulationAwareStatistics(museum_store, museum_schema)
        picture_atom = Atom(X, vocab_type(), ex("picture"))
        assert plain.atom_count(picture_atom) == 0  # only implicit
        assert aware.atom_count(picture_atom) > 0

    def test_cache_hit_path(self, museum_store, museum_schema):
        aware = ReformulationAwareStatistics(museum_store, museum_schema)
        atom = Atom(X, ex("isLocatedIn"), Y)
        assert aware.atom_count(atom) == aware.atom_count(atom)


    def test_count_does_not_depend_on_pricing_order(
        self, museum_store, museum_schema
    ):
        """``t(X, p, X)`` and ``t(X, p, Y)`` share the pattern
        ``(None, p, None)`` the count is memoized under, so they must
        share the count — whichever is priced first. The probe is built
        from the pattern, not from the first atom to arrive."""
        loop, open_ = Atom(X, ex("isParentOf"), X), Atom(X, ex("isParentOf"), Y)
        counts = []
        for order in ((loop, open_), (open_, loop)):
            aware = ReformulationAwareStatistics(museum_store.copy(), museum_schema)
            counts.append([aware.atom_count(atom) for atom in order])
        saturated = StoreStatistics(saturate(museum_store, museum_schema))
        assert counts == [[saturated.atom_count(open_)] * 2] * 2
        assert counts[0][0] > 0


class TestReformulatedCountMemo:
    """The counts live on the store's catalog, not on the provider."""

    @staticmethod
    def _misses(function):
        from repro.obs import metrics

        _, snapshot = metrics.collect(function)
        counters = snapshot["counters"]
        return (
            counters.get("selection.stats.reformulated.miss", 0),
            counters.get("selection.stats.reformulated.hit", 0),
        )

    def test_second_provider_starts_warm(self, museum_store, museum_schema):
        store = museum_store.copy()
        atoms = [Atom(X, vocab_type(), Y), Atom(X, ex("isLocatedIn"), Y)]
        first = ReformulationAwareStatistics(store, museum_schema)
        assert self._misses(lambda: [first.atom_count(a) for a in atoms]) == (2, 0)
        second = ReformulationAwareStatistics(store, museum_schema)
        assert self._misses(lambda: [second.atom_count(a) for a in atoms]) == (0, 2)
        assert [second.atom_count(a) for a in atoms] == [
            first.atom_count(a) for a in atoms
        ]

    def test_second_selector_starts_warm(
        self, museum_store, museum_schema, q_painters, q_pictures
    ):
        from repro.selection import SearchBudget, ViewSelector

        store = museum_store.copy()

        def recommend(strategy):
            return ViewSelector(
                store, museum_schema, strategy=strategy,
                entailment="post_reformulation",
                budget=SearchBudget(max_states=40),
            ).recommend([q_painters, q_pictures])

        cold_misses, _ = self._misses(lambda: recommend("dfs"))
        warm_misses, warm_hits = self._misses(lambda: recommend("gstr"))
        assert cold_misses > 0
        assert warm_misses == 0 and warm_hits > 0

    def test_add_and_remove_flush_the_memo(self, museum_store, museum_schema):
        from repro.rdf.triples import Triple

        store = museum_store.copy()
        aware = ReformulationAwareStatistics(store, museum_schema)
        atom = Atom(X, vocab_type(), ex("picture"))
        before = aware.atom_count(atom)
        extra = Triple(ex("guernica"), vocab_type(), ex("painting"))
        store.add(extra)
        assert aware.atom_count(atom) == before + 1
        store.remove(extra)
        assert self._misses(lambda: aware.atom_count(atom)) == (1, 0)
        assert aware.atom_count(atom) == before

    def test_copy_does_not_share_the_memo(self, museum_store, museum_schema):
        store = museum_store.copy()
        atom = Atom(X, vocab_type(), Y)
        ReformulationAwareStatistics(store, museum_schema).atom_count(atom)
        clone = store.copy()
        cloned = ReformulationAwareStatistics(clone, museum_schema)
        assert self._misses(lambda: cloned.atom_count(atom)) == (1, 0)

    def test_schema_growth_is_not_served_a_stale_count(self, museum_store):
        from repro.rdf.schema import RDFSchema

        store = museum_store.copy()
        schema = RDFSchema()
        aware = ReformulationAwareStatistics(store, schema)
        atom = Atom(X, vocab_type(), ex("picture"))
        assert aware.atom_count(atom) == 0
        schema.add_subclass(ex("painting"), ex("picture"))
        saturated = StoreStatistics(saturate(store, schema))
        assert aware.atom_count(atom) == saturated.atom_count(atom) > 0

    def test_schemas_are_told_apart(self, museum_store, museum_schema):
        from repro.rdf.schema import RDFSchema

        store = museum_store.copy()
        atom = Atom(X, vocab_type(), ex("picture"))
        with_schema = ReformulationAwareStatistics(store, museum_schema)
        without = ReformulationAwareStatistics(store, RDFSchema())
        assert with_schema.atom_count(atom) > 0
        assert without.atom_count(atom) == 0
        assert with_schema.atom_count(atom) > 0


class TestFixedStatistics:
    def test_more_constants_means_fewer_matches(self):
        stats = FixedStatistics(total=1000, selectivity=0.1)
        unconstrained = stats.atom_count(Atom(X, Y, Z))
        one = stats.atom_count(Atom(X, ex("p"), Z))
        two = stats.atom_count(Atom(X, ex("p"), ex("c")))
        assert unconstrained > one > two >= 1

    def test_configurable_distincts(self):
        stats = FixedStatistics(distinct={"s": 5, "p": 7, "o": 9})
        assert stats.distinct_values("p") == 7


def vocab_type():
    from repro.rdf.vocabulary import RDF_TYPE

    return RDF_TYPE
