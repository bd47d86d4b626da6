"""Unit tests for incremental view maintenance."""

import pytest

from repro.query.evaluation import evaluate
from repro.query.parser import parse_query
from repro.rdf.entailment import saturate
from repro.rdf.store import TripleStore
from repro.rdf.terms import URI, Literal
from repro.rdf.triples import Triple
from repro.rdf.vocabulary import RDF_TYPE
from repro.selection.maintenance import MaterializedViewSet
from repro.selection.state import initial_state

from tests.conftest import ex


@pytest.fixture()
def fresh_store(museum_store):
    return museum_store.copy()


@pytest.fixture()
def workload():
    return [
        parse_query("q1(X, Y) :- t(X, hasPainted, Y)"),
        parse_query(
            "q2(X, Z) :- t(X, hasPainted, starryNight), t(X, isParentOf, Y), "
            "t(Y, hasPainted, Z)"
        ),
    ]


def check_consistency(maintained, state, store, workload):
    """Maintained extents and answers must equal full re-materialization."""
    for view in state.views:
        assert maintained.extent(view.name) == evaluate(view, store), view.name
    for query in workload:
        assert maintained.answer(query.name) == evaluate(query, store)


class TestInsertion:
    def test_insert_extends_single_atom_view(self, fresh_store, workload):
        state = initial_state(workload)
        maintained = MaterializedViewSet(state, fresh_store)
        added = maintained.insert(
            Triple(ex("monet"), ex("hasPainted"), ex("waterLilies"))
        )
        assert sum(added.values()) >= 1
        check_consistency(maintained, state, fresh_store, workload)

    def test_insert_completes_join_view(self, fresh_store, workload):
        state = initial_state(workload)
        maintained = MaterializedViewSet(state, fresh_store)
        before = maintained.answer("q2")
        # vincentW gains a second painting: a new q2 answer appears.
        maintained.insert(Triple(ex("vincentW"), ex("hasPainted"), ex("irises")))
        after = maintained.answer("q2")
        assert (ex("vanGogh"), ex("irises")) in after - before
        check_consistency(maintained, state, fresh_store, workload)

    def test_duplicate_insert_is_noop(self, fresh_store, workload):
        state = initial_state(workload)
        maintained = MaterializedViewSet(state, fresh_store)
        existing = Triple(ex("vanGogh"), ex("hasPainted"), ex("starryNight"))
        assert maintained.insert(existing) == {v.name: 0 for v in state.views}

    def test_irrelevant_insert_changes_nothing(self, fresh_store, workload):
        state = initial_state(workload)
        maintained = MaterializedViewSet(state, fresh_store)
        added = maintained.insert(Triple(ex("a"), ex("unrelated"), ex("b")))
        assert sum(added.values()) == 0
        check_consistency(maintained, state, fresh_store, workload)


class TestDeletion:
    def test_remove_drops_rows(self, fresh_store, workload):
        state = initial_state(workload)
        maintained = MaterializedViewSet(state, fresh_store)
        removed = maintained.remove(
            Triple(ex("vanGogh"), ex("hasPainted"), ex("starryNight"))
        )
        assert sum(removed.values()) >= 1
        check_consistency(maintained, state, fresh_store, workload)
        assert maintained.answer("q2") == set()

    def test_remove_keeps_alternatively_derived_rows(self):
        # Two derivations for the same projected row: removing one
        # derivation must keep the row.
        store = TripleStore()
        store.add(Triple(ex("a"), ex("p"), ex("b1")))
        store.add(Triple(ex("a"), ex("p"), ex("b2")))
        query = parse_query("q(X) :- t(X, p, Y)")
        state = initial_state([query])
        maintained = MaterializedViewSet(state, store)
        maintained.remove(Triple(ex("a"), ex("p"), ex("b1")))
        assert maintained.answer("q") == {(ex("a"),)}

    def test_remove_absent_triple_is_noop(self, fresh_store, workload):
        state = initial_state(workload)
        maintained = MaterializedViewSet(state, fresh_store)
        removed = maintained.remove(Triple(ex("ghost"), ex("hasPainted"), ex("x")))
        assert sum(removed.values()) == 0


class TestEntailmentAwareMaintenance:
    def test_insert_propagates_implicit_rows(self, museum_store, museum_schema):
        store = museum_store.copy()
        query = parse_query("q(X) :- t(X, rdf:type, picture)")
        state = initial_state([query])
        maintained = MaterializedViewSet(state, store, schema=museum_schema)
        before = maintained.answer("q")
        # A new hasPainted assertion entails its object is a picture
        # (range typing + subclassing), with no explicit type triple.
        maintained.insert(Triple(ex("monet"), ex("hasPainted"), ex("waterLilies")))
        after = maintained.answer("q")
        assert (ex("waterLilies"),) in after - before
        # Cross-check against saturation of the updated store.
        saturated = saturate(store, museum_schema)
        assert after == evaluate(query, saturated)

    def test_remove_retracts_implicit_rows(self, museum_store, museum_schema):
        store = museum_store.copy()
        query = parse_query("q(X) :- t(X, rdf:type, picture)")
        state = initial_state([query])
        maintained = MaterializedViewSet(state, store, schema=museum_schema)
        maintained.insert(Triple(ex("monet"), ex("hasPainted"), ex("waterLilies")))
        maintained.remove(Triple(ex("monet"), ex("hasPainted"), ex("waterLilies")))
        saturated = saturate(store, museum_schema)
        assert maintained.answer("q") == evaluate(query, saturated)


class TestAgainstRematerialization:
    def test_random_update_sequence(self, barton_store, workload):
        import random

        store = TripleStore()
        # A slice of the museum domain plus noise.
        rng = random.Random(5)
        triples = sorted(barton_store, key=lambda t: t.n3())[:300]
        store.add_all(triples)
        query = parse_query("q(X, P, Y) :- t(X, P, Y)")
        state = initial_state([query])
        maintained = MaterializedViewSet(state, store)
        pool = triples + [
            Triple(ex(f"s{i}"), ex(f"p{i % 3}"), ex(f"o{i}")) for i in range(20)
        ]
        for _ in range(60):
            victim = pool[rng.randrange(len(pool))]
            if rng.random() < 0.5:
                maintained.insert(victim)
            else:
                maintained.remove(victim)
        assert maintained.extent(state.views[0].name) == evaluate(
            state.views[0], store
        )


# ----------------------------------------------------------------------
# What an update runs: indexed, prepared, factorised delta rules
# ----------------------------------------------------------------------

BARTON = "http://simile.mit.edu/barton#"


def counters_of(update, triple) -> dict:
    """The ``selection.maintain.*`` / ``engine.*`` counters one update
    leaves in a fresh registry."""
    from repro.obs import metrics

    _, dump = metrics.collect(update, triple)
    return dump["counters"]


def maintain(counters: dict, name: str) -> int:
    return counters[f"selection.maintain.{name}"]


class TestNoOpUpdates:
    def test_absent_remove_and_present_insert_probe_nothing(
        self, fresh_store, workload
    ):
        maintained = MaterializedViewSet(initial_state(workload), fresh_store)
        absent = Triple(ex("ghost"), ex("hasPainted"), ex("x"))
        present = Triple(ex("vanGogh"), ex("hasPainted"), ex("starryNight"))
        version = fresh_store.version
        for counters in (
            counters_of(maintained.remove, absent),
            counters_of(maintained.insert, present),
        ):
            assert maintain(counters, "updates") == 1
            assert maintain(counters, "rules_matched") == 0
            assert maintain(counters, "plans_run") == 0
            assert maintain(counters, "plans_compiled") == 0
            assert not any(name.startswith("engine.") for name in counters)
        assert fresh_store.version == version

    def test_real_updates_do_run_plans(self, fresh_store, workload):
        maintained = MaterializedViewSet(initial_state(workload), fresh_store)
        triple = Triple(ex("vincentW"), ex("hasPainted"), ex("irises"))
        inserted = counters_of(maintained.insert, triple)
        assert maintain(inserted, "rules_matched") >= 2
        assert maintain(inserted, "plans_run") >= 1
        assert maintain(inserted, "rows_added") >= 2
        removed = counters_of(maintained.remove, triple)
        assert maintain(removed, "rederive_checks") >= 2
        assert maintain(removed, "rows_dropped") == maintain(inserted, "rows_added")
        # Prepared once: the second update compiles nothing new for the
        # delta rules, only the re-derivation trees it runs first here.
        again = counters_of(maintained.insert, triple)
        assert maintain(again, "plans_compiled") == 0


class TestLiteralRestriction:
    """``range(p) = C`` gives ``v(X) :- t(X, rdf:type, C)`` the rule-4
    alternative ``t(R0, p, X)`` with ``non_literal={X}``: a literal
    object of ``p`` is not typed ``C``."""

    @pytest.fixture()
    def typed(self):
        from repro.rdf.schema import RDFSchema

        schema = RDFSchema()
        schema.add_range(ex("p"), ex("C"))
        store = TripleStore()
        store.add(Triple(ex("b"), ex("p"), ex("c")))
        store.add(Triple(ex("d"), ex("q"), Literal("lit")))
        state = initial_state([parse_query("v(X) :- t(X, rdf:type, C)")])
        (view,) = state.views
        maintained = MaterializedViewSet(state, store, schema=schema)
        assert maintained.extent(view.name) == {(ex("c"),)}
        return maintained, store, view.name

    def test_delta_rules_derive_no_literal_row(self, typed):
        maintained, store, name = typed
        # Bound from the triple: the restricted alternative rejects it.
        assert maintained.insert(Triple(ex("b"), ex("p"), Literal("lit"))) == {name: 0}
        assert maintained.insert(Triple(ex("b"), ex("p"), ex("e"))) == {name: 1}
        assert maintained.extent(name) == {(ex("c"),), (ex("e"),)}

    def test_delta_probe_rejects_a_literal_key(self):
        """The literal reaches the restricted alternative as a join key
        (``X`` bound by the ``q`` atom) and is rejected there too."""
        from repro.rdf.schema import RDFSchema

        schema = RDFSchema()
        schema.add_range(ex("p"), ex("C"))
        store = TripleStore()
        store.add(Triple(ex("b"), ex("p"), Literal("lit")))
        store.add(Triple(ex("b"), ex("p"), ex("c")))
        state = initial_state(
            [parse_query("v(X) :- t(Y, q, X), t(X, rdf:type, C)")]
        )
        (view,) = state.views
        maintained = MaterializedViewSet(state, store, schema=schema)
        assert maintained.insert(Triple(ex("a"), ex("q"), Literal("lit"))) == {
            view.name: 0
        }
        assert maintained.insert(Triple(ex("a"), ex("q"), ex("c"))) == {view.name: 1}
        assert maintained.extent(view.name) == {(ex("c"),)}

    def test_recheck_keeps_no_literal_row_alive(self, typed):
        """The deletion re-check of a literal row fails although a ``p``
        triple has that literal as its object."""
        maintained, store, name = typed
        assert maintained.insert(Triple(ex("b"), ex("p"), Literal("lit"))) == {name: 0}
        binding, tree = maintained._rederive[name]

        def derives(value) -> bool:
            root = tree.run([binding.row((value,), store)], len(store))
            return next(iter(root.column_batches()), None) is not None

        assert derives(ex("c"))
        assert not derives(Literal("lit"))


class TestRederivation:
    def test_row_holding_a_constant_the_store_never_saw(self):
        """``p0 ⊑ p2`` puts ``(a, p2)`` in the extent of ``v(X, P) :-
        t(X, P, X)`` though no triple mentions ``p2``; when its support
        goes, the row must not be re-derived by binding the unseen term
        to the property variable of the original disjunct."""
        from repro.rdf.schema import RDFSchema

        schema = RDFSchema()
        schema.add_subproperty(ex("p0"), ex("p2"))
        store = TripleStore()
        other = Triple(ex("a"), ex("p1"), ex("a"))
        store.add(other)
        state = initial_state([parse_query("v(X, P) :- t(X, P, X)")])
        (view,) = state.views
        maintained = MaterializedViewSet(state, store, schema=schema)
        support = Triple(ex("a"), ex("p0"), ex("a"))
        assert maintained.insert(support) == {view.name: 2}
        assert (ex("a"), ex("p2")) in maintained.extent(view.name)
        assert maintained.remove(support) == {view.name: 2}
        assert maintained.extent(view.name) == {(ex("a"), ex("p1"))}


    def test_row_holding_a_constant_the_store_never_saw_is_kept(self):
        """``domain(p) = Agent`` puts ``(a, Agent)`` in the extent of
        ``v(X, C) :- t(X, rdf:type, C)`` though no triple mentions
        ``Agent``; with a second ``p`` triple left, removing one keeps
        the row — the re-check binds ``C`` to the unseen term itself."""
        from repro.rdf.schema import RDFSchema

        schema = RDFSchema()
        schema.add_domain(ex("p"), ex("Agent"))
        store = TripleStore()
        store.add(Triple(ex("a"), ex("p"), ex("b")))
        store.add(Triple(ex("a"), ex("p"), ex("b2")))
        state = initial_state([parse_query("v(X, C) :- t(X, rdf:type, C)")])
        (view,) = state.views
        maintained = MaterializedViewSet(state, store, schema=schema)
        assert maintained.extent(view.name) == {(ex("a"), ex("Agent"))}
        removed = Triple(ex("a"), ex("p"), ex("b"))
        assert maintained.remove(removed) == {view.name: 0}
        assert maintained.extent(view.name) == {(ex("a"), ex("Agent"))}
        # Once a triple mentions `Agent`, rows carry its code: the trees
        # compiled while it was unknown are compiled anew.
        maintained.insert(removed)
        assert maintained.insert(Triple(ex("z"), RDF_TYPE, ex("Agent"))) == {view.name: 1}
        assert maintained.remove(removed) == {view.name: 0}
        assert maintained.remove(Triple(ex("a"), ex("p"), ex("b2"))) == {view.name: 1}
        assert maintained.extent(view.name) == {(ex("z"), ex("Agent"))}


class TestNoFlatForm:
    def test_only_one_atom_queries_reach_the_fixpoint(self, monkeypatch):
        """Construction and updates reformulate atom by atom
        (``factorise``); the flat union of a view is never built."""
        import importlib

        from repro.rdf.schema import RDFSchema

        # The package re-exports the function under the module's name.
        module = importlib.import_module("repro.reformulation.reformulate")
        reached = []
        fixpoint = module._fixpoint

        def recording(query, schema):
            reached.append(len(query.atoms))
            return fixpoint(query, schema)

        monkeypatch.setattr(module, "_fixpoint", recording)
        schema = RDFSchema()
        schema.add_subclass(ex("painting"), ex("work"))
        schema.add_range(ex("hasPainted"), ex("painting"))
        schema.add_subproperty(ex("hasSketched"), ex("hasPainted"))
        store = TripleStore()
        store.add(Triple(ex("a"), ex("hasPainted"), ex("b")))
        query = parse_query("v(X, Y) :- t(X, hasPainted, Y), t(Y, rdf:type, work)")
        state = initial_state([query])
        (view,) = state.views
        maintained = MaterializedViewSet(state, store, schema=schema)
        assert maintained.insert(Triple(ex("c"), ex("hasSketched"), ex("d"))) == {
            view.name: 1
        }
        assert maintained.remove(Triple(ex("a"), ex("hasPainted"), ex("b"))) == {
            view.name: 1
        }
        assert reached and set(reached) == {1}


class TestPreparedRules:
    @pytest.fixture()
    def item_view(self, barton_store, barton_schema):
        """A view whose reformulation rewrites the type atom 99 ways and
        leaves the other two atoms one alternative each."""
        from repro.reformulation.reformulate import factorise

        view = parse_query(
            f"v(X, Y) :- t(X, rdf:type, <{BARTON}Item>), t(X, issued, Y), "
            "t(X, volume, Z)",
            namespace=BARTON,
        )
        unions = factorise(view, barton_schema)
        assert [len(part.alternatives) for part in unions] == [99, 1, 1]
        store = barton_store.copy()
        maintained = MaterializedViewSet(initial_state([view]), store, barton_schema)
        return maintained, store

    def test_unmentioned_predicate_runs_no_plan(self, item_view):
        maintained, store = item_view
        triple = Triple(URI(BARTON + "e1"), URI(BARTON + "unheardOf"), URI(BARTON + "e2"))
        for update in (maintained.insert, maintained.remove):
            counters = counters_of(update, triple)
            assert maintain(counters, "rules_matched") == 0
            assert maintain(counters, "plans_run") == 0
            assert maintain(counters, "plans_compiled") == 0

    def test_one_tree_per_matched_atom(self, item_view):
        """An ``issued`` triple binds the one alternative of its atom and
        runs that (view, atom)'s one tree, which probes the 99-way type
        union and the ``volume`` atom — whatever the alternative count."""
        maintained, store = item_view
        volume = URI(BARTON + "volume")
        subject = next(
            t.s for t in sorted(store, key=lambda t: t.n3())
            if next(iter(store.match(s=t.s, p=volume)), None) is None
        )
        issued = Triple(subject, URI(BARTON + "issued"), URI(BARTON + "e5"))
        counters = counters_of(maintained.insert, issued)
        assert maintain(counters, "rules_matched") == 1
        assert maintain(counters, "plans_run") == 1
        assert maintain(counters, "rows_added") == 0
        # With the volume atom satisfied the row appears, still one tree.
        maintained.insert(Triple(subject, volume, URI(BARTON + "e6")))
        maintained.remove(issued)
        counters = counters_of(maintained.insert, issued)
        assert maintain(counters, "rules_matched") == 1
        assert maintain(counters, "plans_run") == 1
        assert maintain(counters, "rows_added") == 1

    def test_matches_rematerialization_after_hits(self, item_view, barton_schema):
        from repro.query.evaluation import evaluate_union
        from repro.reformulation.reformulate import reformulate

        maintained, store = item_view
        view = maintained.state.views[0]
        subject = URI(BARTON + "brandNew")
        updates = [
            Triple(subject, URI(BARTON + "issued"), URI(BARTON + "e5")),
            Triple(subject, URI(BARTON + "volume"), URI(BARTON + "e6")),
            Triple(subject, RDF_TYPE, URI(BARTON + "Article")),
        ]
        before = maintained.extent(view.name)
        for triple in updates:
            maintained.insert(triple)
        assert (subject, URI(BARTON + "e5")) in maintained.extent(view.name)
        assert maintained.extent(view.name) == evaluate_union(
            reformulate(view, barton_schema), store, shared=False
        )
        for triple in updates:
            maintained.remove(triple)
        assert maintained.extent(view.name) == before

    def test_constant_unknown_at_compile_time_is_revalidated(self):
        """A tree compiled while a constant of its atoms was absent from
        the dictionary is provably empty only until the constant shows
        up."""
        store = TripleStore()
        store.add(Triple(ex("a"), ex("p"), ex("b")))
        # Enough unrelated triples that the store never doubles below:
        # only the new constant may trigger the recompilation.
        store.add_all(Triple(ex(f"s{i}"), ex("q"), ex(f"o{i}")) for i in range(8))
        state = initial_state([parse_query("v(X) :- t(X, p, Y), t(X, rdf:type, rare)")])
        (view,) = state.views
        maintained = MaterializedViewSet(state, store)
        # Compiles the remainder `t(X, rdf:type, rare)` with `rare` unknown.
        first = counters_of(maintained.insert, Triple(ex("c"), ex("p"), ex("d")))
        assert maintain(first, "plans_compiled") == 1
        assert maintain(first, "rows_added") == 0
        maintained.insert(Triple(ex("a"), RDF_TYPE, ex("rare")))
        assert maintained.extent(view.name) == {(ex("a"),)}
        maintained.insert(Triple(ex("c"), RDF_TYPE, ex("rare")))
        # The prepared tree of the `p` rule must see `rare` now.
        again = counters_of(maintained.insert, Triple(ex("e"), ex("p"), ex("f")))
        assert maintain(again, "plans_compiled") == 1
        maintained.insert(Triple(ex("e"), RDF_TYPE, ex("rare")))
        maintained.remove(Triple(ex("e"), ex("p"), ex("f")))
        maintained.insert(Triple(ex("e"), ex("p"), ex("g")))
        assert maintained.extent(view.name) == evaluate(view, store)
        assert maintained.extent(view.name) == {(ex("a"),), (ex("c"),), (ex("e"),)}

    def test_orders_are_rederived_only_when_the_store_doubles(self):
        from repro.selection.maintenance import _REPLAN_FACTOR

        store = TripleStore()
        store.add_all(
            Triple(ex(f"s{i}"), ex("q"), ex(f"o{i}")) for i in range(8)
        )
        state = initial_state([parse_query("v(X, Z) :- t(X, p, Y), t(Y, q, Z)")])
        (view,) = state.views
        maintained = MaterializedViewSet(state, store)

        def hit(index: int) -> dict:
            return counters_of(
                maintained.insert, Triple(ex(f"a{index}"), ex("p"), ex(f"s{index}"))
            )

        assert maintain(hit(0), "plans_compiled") == 1
        compiled_at = len(store)
        while len(store) + 1 <= compiled_at * _REPLAN_FACTOR:
            assert maintain(hit(len(store)), "plans_compiled") == 0
        assert maintain(hit(len(store)), "plans_compiled") == 1
        assert maintained.extent(view.name) == evaluate(view, store)


class TestObservability:
    def test_update_span_and_quiet_default(self, fresh_store, workload):
        import io
        import json

        from repro.obs import metrics, tracing

        maintained = MaterializedViewSet(initial_state(workload), fresh_store)
        triple = Triple(ex("monet"), ex("hasPainted"), ex("waterLilies"))
        metrics.reset()
        maintained.insert(triple)
        assert not metrics.registry().counters  # off by default
        buffer = io.StringIO()
        tracing.configure(buffer)
        try:
            maintained.remove(triple)
        finally:
            tracing.configure(None)
        spans = [json.loads(line) for line in buffer.getvalue().splitlines()]
        (update,) = [s for s in spans if s["name"] == "selection.maintain.update"]
        assert update["attrs"] == {"kind": "remove"}
