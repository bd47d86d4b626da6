"""RDF entailment deep-dive: saturation vs reformulation.

Walks through the machinery of Section 4 on the synthetic library
catalog: what saturation adds, what Algorithm 1 produces for queries of
increasing generality, the Theorem 4.2 equivalence, and why
post-reformulation keeps the view-selection search space small
(Table 3 / Figure 7 in miniature).

Run with: python examples/entailment_demo.py
"""

from repro.datagen import BartonConfig, generate_barton
from repro.datagen.barton import BARTON_NS
from repro.query.evaluation import evaluate
from repro.query.parser import parse_query
from repro.rdf.entailment import saturate
from repro.reformulation.reformulate import reformulate, reformulation_bound
from repro.reformulation.workflows import reformulate_workload
from repro.selection.state import initial_state
from repro.reformulation.workflows import pre_reformulation_initial_state
from repro.workload import QueryShape, SatisfiableWorkloadGenerator, WorkloadSpec


def main() -> None:
    store, schema = generate_barton(
        BartonConfig(num_triples=15_000, num_entities=2_500, seed=23)
    )
    saturated = saturate(store, schema)
    print(f"explicit triples : {len(store)}")
    print(f"saturated triples: {len(saturated)} "
          f"(+{len(saturated) - len(store)} implicit)\n")

    queries = [
        parse_query(
            f"q1(X) :- t(X, rdf:type, <{BARTON_NS}Text>)"
        ).with_name("typed"),
        parse_query(
            "q2(X, C) :- t(X, rdf:type, C)", namespace=BARTON_NS
        ).with_name("class-variable"),
        parse_query(
            "q3(X, P, Y) :- t(X, P, Y)", namespace=BARTON_NS
        ).with_name("property-variable"),
    ]
    print("reformulation growth (Algorithm 1 / Theorem 4.1):")
    for query in queries:
        union = reformulate(query, schema)
        bound = reformulation_bound(schema, query)
        print(f"  {query.name:<18} |ucq|={len(union):>5}   bound={bound:.1e}")
    print()

    # One `evaluate` answers a conjunctive query and a reformulation union
    # alike: `repro.engine.plan` decides the route once (here the union
    # runs factorised, its disjuncts never built), and `count_union`,
    # `--explain` and `--analyze` read the same plan. `evaluate_union`,
    # `run_query`, `plan_union_pushdown` and `plan_batch` stay importable
    # only because the end-to-end benchmark imports them.
    print("Theorem 4.2 check — evaluate(q, saturate(D,S)) == evaluate(ucq, D):")
    for query in queries[:2]:
        on_saturated = evaluate(query, saturated)
        on_plain = evaluate(reformulate(query, schema), store)
        verdict = "EQUAL" if on_plain == on_saturated else "DIFFERENT"
        print(f"  {query.name:<18} {len(on_saturated):>6} answers  [{verdict}]")
    print()

    # The Table 3 effect: pre-reformulation blows up the initial state.
    generator = SatisfiableWorkloadGenerator(store, seed=29)
    workload = generator.generate(
        WorkloadSpec(5, 5, QueryShape.MIXED, "high", constant_probability=0.4)
    )
    unions = reformulate_workload(workload, schema)
    plain_state = initial_state(workload)
    pre_state = pre_reformulation_initial_state(workload, schema)
    atoms = sum(len(q) for q in workload)
    reformulated_atoms = sum(u.total_atoms() for u in unions)
    print("pre- vs post-reformulation search inputs (Table 3 in miniature):")
    print(f"  original workload : {len(workload):>4} queries, {atoms:>5} atoms "
          f"-> initial state with {len(plain_state.views)} views")
    print(f"  reformulated      : {sum(len(u) for u in unions):>4} queries, "
          f"{reformulated_atoms:>5} atoms -> initial state with "
          f"{len(pre_state.views)} views")
    print()
    print("post-reformulation searches the small initial state and only")
    print("reformulates the handful of recommended views afterwards.")


if __name__ == "__main__":
    main()
