"""Ablation — reformulation output growth (Theorem 4.1).

Theorem 4.1 bounds |Reformulate(q, S)| by an expression polynomial in
the schema size and exponential in the number of query atoms. This
ablation measures the actual growth on the Barton schema as the query
acquires more entailment-sensitive atoms, and checks the bound.
"""

from __future__ import annotations

import pytest

from benchmarks.support import barton, report
from repro.datagen.barton import BARTON_NS
from repro.query.cq import Atom, ConjunctiveQuery, Variable
from repro.rdf.terms import URI
from repro.rdf.vocabulary import RDF_TYPE
from repro.reformulation.reformulate import reformulate, reformulation_bound

EXPERIMENT = "Ablation: reformulation growth in query size (Theorem 4.1)"


def chain_query(atoms: int) -> ConjunctiveQuery:
    """A chain alternating a subproperty-rich property and rdf:type."""
    body = []
    for index in range(atoms):
        subject = Variable(f"X{index}")
        if index % 2 == 0:
            body.append(Atom(subject, URI(BARTON_NS + "relatedTo"), Variable(f"X{index+1}")))
        else:
            body.append(Atom(subject, RDF_TYPE, Variable(f"X{index+1}")))
    return ConjunctiveQuery((Variable("X0"),), tuple(body), name="growth")


@pytest.mark.parametrize("atoms", [1, 2, 3])
def test_ablation_reformulation_growth(benchmark, atoms):
    _, schema = barton()
    query = chain_query(atoms)

    def run():
        union = reformulate(query, schema)
        union.disjuncts  # Algorithm 1 runs on first access
        return union

    union = benchmark.pedantic(run, rounds=1, iterations=1)
    bound = reformulation_bound(schema, query)
    assert len(union) <= bound
    report(
        EXPERIMENT,
        f"m={atoms} atoms: |Reformulate(q,S)|={len(union):>6}  bound={bound:.2e}",
    )
