"""Unit tests for Algorithm 1 (Reformulate), rule by rule, plus the
paper's Table 2 example, the Theorem 4.1 bound, and the union's two
forms (flat and factorised)."""

import hashlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import metrics
from repro.query.cq import Variable
from repro.query.containment import is_isomorphic
from repro.query.evaluation import evaluate, evaluate_union
from repro.query.parser import parse_query
from repro.rdf.entailment import saturate
from repro.rdf.schema import RDFSchema
from repro.rdf.vocabulary import RDF_TYPE
from repro.reformulation.reformulate import reformulate, reformulation_bound

from tests.conftest import ex

X, Y = Variable("X1"), Variable("X2")
ROOT = Path(__file__).resolve().parents[2]
#: The module (the package re-exports its function under the same name).
reformulate_module = importlib.import_module("repro.reformulation.reformulate")

#: Digests of the flat disjuncts — order, text, variable names and
#: restrictions — of the e2e ``adhoc`` pool and of Table 3's Q2 (which
#: contains Q1), as Algorithm 1 produced them when ``reformulate`` still
#: built every union eagerly; under PYTHONHASHSEED=0, because the
#: generated catalogs depend on string hashing.
FLAT_DIGESTS = ["33a69a67be34e7f3", "425846fd8d5984dc"]


def adhoc_inputs():
    """The e2e ``adhoc`` workloads' catalog, schema and 24 queries."""
    from benchmarks.e2e.base import POOL_SEED, SCALES, generate_catalog
    from benchmarks.e2e.wl_adhoc import CLASSES
    from repro.workload import SatisfiableWorkloadGenerator

    store, schema = generate_catalog(SCALES["full"])
    generator = SatisfiableWorkloadGenerator(store, seed=POOL_SEED)
    pool = [q for spec in CLASSES.values() for q in generator.generate(spec)]
    return store, schema, pool


def flat_digests() -> list[str]:
    from benchmarks.bench_table3_reformulation_workloads import (
        reformulation_workloads,
    )
    from benchmarks.support import barton

    def digest(queries, schema) -> str:
        h = hashlib.sha256()
        for query in queries:
            for d in reformulate(query, schema).disjuncts:
                restricted = sorted(v.name for v in d.non_literal)
                h.update(f"{d} | {restricted}\n".encode())
        return h.hexdigest()[:16]

    _, schema, pool = adhoc_inputs()
    return [
        digest(pool, schema),
        digest(reformulation_workloads()["Q2"], barton()[1]),
    ]


@pytest.fixture()
def table2_schema():
    """The Section 4.3 example: painting ⊑ picture, isExpIn ⊑ isLocatIn."""
    schema = RDFSchema()
    schema.add_subclass(ex("painting"), ex("picture"))
    schema.add_subproperty(ex("isExpIn"), ex("isLocatIn"))
    return schema


class TestIndividualRules:
    def test_rule1_subclass(self, table2_schema):
        query = parse_query("q1(X1) :- t(X1, rdf:type, picture)")
        union = reformulate(query, table2_schema)
        # Table 2, q1,S: the original plus the painting variant.
        assert len(union) == 2
        bodies = {cq.atoms[0].o for cq in union}
        assert bodies == {ex("picture"), ex("painting")}

    def test_rule2_subproperty(self, table2_schema):
        query = parse_query("q(X1, X2) :- t(X1, isLocatIn, X2)")
        union = reformulate(query, table2_schema)
        assert len(union) == 2
        properties = {cq.atoms[0].p for cq in union}
        assert properties == {ex("isLocatIn"), ex("isExpIn")}

    def test_rule3_domain(self):
        schema = RDFSchema()
        schema.add_domain(ex("hasPainted"), ex("painter"))
        query = parse_query("q(X1) :- t(X1, rdf:type, painter)")
        union = reformulate(query, schema)
        assert len(union) == 2
        variants = [cq for cq in union if cq.atoms[0].p == ex("hasPainted")]
        assert len(variants) == 1
        # The object is a fresh existential variable.
        new_atom = variants[0].atoms[0]
        assert isinstance(new_atom.o, Variable)
        assert new_atom.o not in variants[0].head

    def test_rule4_range(self):
        schema = RDFSchema()
        schema.add_range(ex("hasPainted"), ex("painting"))
        query = parse_query("q(X1) :- t(X1, rdf:type, painting)")
        union = reformulate(query, schema)
        assert len(union) == 2
        variants = [cq for cq in union if cq.atoms[0].p == ex("hasPainted")]
        assert variants[0].atoms[0].o == Variable("X1")  # subject became object
        # X1 now sits in object position but stands for a triple subject:
        # it must never bind to a literal.
        assert Variable("X1") in variants[0].non_literal

    def test_rule4_does_not_over_answer_on_literals(self):
        """Regression: reformulation over data with literal objects must
        not return literal 'subjects' that saturation can never type."""
        from repro.query.evaluation import evaluate, evaluate_union
        from repro.rdf.entailment import saturate
        from repro.rdf.store import TripleStore
        from repro.rdf.terms import Literal
        from repro.rdf.triples import Triple

        schema = RDFSchema()
        schema.add_range(ex("title"), ex("label"))
        store = TripleStore()
        store.add(Triple(ex("book"), ex("title"), Literal("Moby Dick")))
        store.add(Triple(ex("book"), ex("title"), ex("someUri")))
        query = parse_query("q(X) :- t(X, rdf:type, label)")
        union = reformulate(query, schema)
        on_plain = evaluate_union(union, store)
        on_saturated = evaluate(query, saturate(store, schema))
        assert on_plain == on_saturated == {(ex("someUri"),)}

    def test_rule5_class_variable_binding(self, table2_schema):
        query = parse_query("q(X1, X2) :- t(X1, rdf:type, X2)")
        union = reformulate(query, table2_schema)
        # Original + one binding per schema class (picture, painting).
        heads = {cq.head for cq in union}
        assert (Variable("X1"), ex("picture")) in heads
        assert (Variable("X1"), ex("painting")) in heads
        assert (Variable("X1"), Variable("X2")) in heads

    def test_rule6_property_variable_binding(self, table2_schema):
        query = parse_query("q(X1, X2) :- t(X1, X2, picture)")
        union = reformulate(query, table2_schema)
        # Table 2, q4,S: 6 union terms.
        assert len(union) == 6
        heads = {cq.head for cq in union}
        assert (Variable("X1"), ex("isLocatIn")) in heads
        assert (Variable("X1"), ex("isExpIn")) in heads
        assert (Variable("X1"), RDF_TYPE) in heads

    def test_rule6_binds_all_occurrences(self, table2_schema):
        # The σ substitution binds *every* occurrence of the variable:
        # no disjunct may leave one atom's property variable unbound while
        # the other is a constant. (Later rule-2 steps may then specialize
        # the two atoms independently — that is sound, the join on the
        # original variable was resolved at binding time.)
        query = parse_query("q(X1) :- t(X1, X2, picture), t(X1, X2, painting)")
        union = reformulate(query, table2_schema)
        for cq in union:
            p0, p1 = cq.atoms[0].p, cq.atoms[1].p
            assert isinstance(p0, Variable) == isinstance(p1, Variable)
            if isinstance(p0, Variable):
                assert p0 == p1  # the original shared variable, untouched


class TestTable2Example:
    def test_q4_reformulation_terms(self, table2_schema):
        """All six union terms of Table 2's q4,S, up to renaming."""
        query = parse_query("q4(X1, X2) :- t(X1, X2, picture)")
        union = reformulate(query, table2_schema)
        expected = [
            parse_query("e1(X1, X2) :- t(X1, X2, picture)"),
            parse_query("e2(X1, isLocatIn) :- t(X1, isLocatIn, picture)"),
            parse_query("e3(X1, isExpIn) :- t(X1, isExpIn, picture)"),
            parse_query("e4(X1, rdf:type) :- t(X1, rdf:type, picture)"),
            parse_query("e5(X1, isLocatIn) :- t(X1, isExpIn, picture)"),
            parse_query("e6(X1, rdf:type) :- t(X1, rdf:type, painting)"),
        ]
        assert len(union) == len(expected)
        for wanted in expected:
            assert any(
                is_isomorphic(wanted, got, match_heads=True) for got in union
            ), f"missing union term {wanted}"


class TestAlgorithmProperties:
    def test_original_query_always_included(self, table2_schema, q_painters):
        union = reformulate(q_painters, table2_schema)
        assert any(is_isomorphic(q_painters, cq, match_heads=True) for cq in union)

    def test_empty_schema_is_identity(self, q_painters):
        union = reformulate(q_painters, RDFSchema())
        assert len(union) == 1

    def test_no_duplicate_disjuncts(self, museum_schema):
        query = parse_query("q(X) :- t(X, rdf:type, work)")
        union = reformulate(query, museum_schema)
        keys = set()
        from repro.query.containment import canonical_form

        for cq in union:
            key = canonical_form(cq)
            assert key not in keys
            keys.add(key)

    def test_terminates_on_cyclic_schema(self):
        schema = RDFSchema()
        schema.add_subclass(ex("a"), ex("b"))
        schema.add_subclass(ex("b"), ex("a"))
        query = parse_query("q(X) :- t(X, rdf:type, a)")
        union = reformulate(query, schema)
        assert len(union) == 2

    def test_theorem_41_bound(self, museum_schema, barton_schema):
        queries = [
            parse_query("q(X) :- t(X, rdf:type, picture)"),
            parse_query("q(X, Y) :- t(X, isLocatedIn, Y)"),
            parse_query("q(X, Y) :- t(X, rdf:type, picture), t(X, isLocatedIn, Y)"),
            parse_query("q(X, Y) :- t(X, Y, Z)"),
        ]
        for schema in (museum_schema, barton_schema):
            for query in queries:
                union = reformulate(query, schema)
                assert len(union) <= reformulation_bound(schema, query)

    def test_multi_atom_reformulation_multiplies(self, table2_schema):
        one = parse_query("q(X1) :- t(X1, rdf:type, picture)")
        two = parse_query(
            "q(X1, X2) :- t(X1, rdf:type, picture), t(X2, rdf:type, picture), "
            "t(X1, isLocatIn, X2)"
        )
        assert len(reformulate(two, table2_schema)) > len(reformulate(one, table2_schema))


    def test_fresh_variables_do_not_capture_query_variables(self):
        """Rules 3/4 number their existentials per call from ``R0``; a
        query that already says ``R0`` must keep it distinct."""
        schema = RDFSchema()
        schema.add_domain(ex("hasPainted"), ex("painter"))
        schema.add_range(ex("hasPainted"), ex("painting"))
        query = parse_query(
            "q(R0, R1) :- t(R0, rdf:type, painter), t(R1, rdf:type, painting)"
        )
        union = reformulate(query, schema)
        assert len(union) == 4
        for cq in union:
            existential = cq.variables() - set(cq.head)
            assert not existential & query.variables()
            assert cq.head == query.head

    def test_repeated_text_reuses_every_prepared_plan(
        self, museum_store, museum_schema
    ):
        """Asking the same text again adds nothing to the plan cache."""
        store = museum_store.copy()
        text = "q(X, Y) :- t(X, rdf:type, painter), t(Y, rdf:type, picture)"
        first = evaluate_union(reformulate(parse_query(text), museum_schema), store)
        plans = store._engine_plan_cache["plans"]
        cached = set(plans)
        again = evaluate_union(reformulate(parse_query(text), museum_schema), store)
        assert again == first
        assert store._engine_plan_cache["plans"] is plans
        assert set(plans) == cached


class TestTheorem42Correctness:
    """evaluate(q, saturate(D, S)) == evaluate(Reformulate(q, S), D)."""

    def test_on_museum_data(self, museum_store, museum_schema):
        queries = [
            parse_query("q(X) :- t(X, rdf:type, picture)"),
            parse_query("q(X) :- t(X, rdf:type, work)"),
            parse_query("q(X, Y) :- t(X, isLocatedIn, Y)"),
            parse_query("q(X, Y) :- t(X, rdf:type, picture), t(X, isLocatedIn, Y)"),
            parse_query("q(X) :- t(X, rdf:type, painter)"),
            parse_query("q(X, P, Y) :- t(X, P, Y)"),
            parse_query("q(X, C) :- t(X, rdf:type, C)"),
        ]
        saturated = saturate(museum_store, museum_schema)
        for query in queries:
            union = reformulate(query, museum_schema)
            assert evaluate_union(union, museum_store) == evaluate(query, saturated), (
                f"Theorem 4.2 violated for {query}"
            )

    def test_on_barton_data(self, barton_store, barton_schema):
        from repro.workload import SatisfiableWorkloadGenerator, WorkloadSpec, QueryShape

        generator = SatisfiableWorkloadGenerator(barton_store, seed=11)
        queries = generator.generate(
            WorkloadSpec(3, 3, QueryShape.STAR, "low", constant_probability=0.6)
        )
        saturated = saturate(barton_store, barton_schema)
        for query in queries:
            union = reformulate(query, barton_schema)
            assert evaluate_union(union, barton_store) == evaluate(query, saturated)


class TestTwoForms:
    """One union, two forms: the flat disjuncts are exactly Algorithm
    1's, and the interpreted route answers without building them."""

    def test_flat_form_is_unchanged(self):
        environment = {
            **os.environ,
            "PYTHONHASHSEED": "0",
            "REPRO_BENCH_SCALE": "quick",
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        }
        script = (
            "from tests.reformulation.test_reformulate import flat_digests; "
            "print(' '.join(flat_digests()))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script], cwd=ROOT, env=environment,
            capture_output=True, text=True, timeout=300, check=True,
        )
        assert completed.stdout.split() == FLAT_DIGESTS

    def test_memory_route_never_builds_the_flat_form(self, monkeypatch):
        store, schema, pool = adhoc_inputs()
        expanded = []
        fixpoint = reformulate_module._fixpoint

        def counting(query, schema):
            expanded.append(query)
            return fixpoint(query, schema)

        monkeypatch.setattr(reformulate_module, "_fixpoint", counting)
        with metrics.enabled_registry():
            metrics.reset()
            for query in pool:
                evaluate_union(reformulate(query, schema), store)
            counters = metrics.snapshot()["counters"]
        # Only single atoms were reformulated (the per-atom memo), never
        # a pool query's flat union.
        assert expanded and all(len(q.atoms) == 1 for q in expanded)
        assert not any(q is source for q in expanded for source in pool)
        assert counters["engine.route.factorised"] == len(pool)
        assert "mqo.route.shared" not in counters
        assert counters["reformulation.atom_memo.miss"] == len(expanded)

    def test_union_follows_its_schema(self, table2_schema):
        query = parse_query("q1(X1) :- t(X1, rdf:type, picture)")
        union = reformulate(query, table2_schema)
        assert union.source is query and union.schema is table2_schema
        assert len(union.disjuncts) == 2
        table2_schema.add_subclass(ex("fresco"), ex("painting"))
        assert len(union.disjuncts) == 3
        assert union == reformulate(query, table2_schema)
