"""Query substrate: conjunctive queries over the triple table ``t(s, p, o)``,
parsers, containment/minimization, evaluation, and relational-algebra plans.
"""

from repro.query.cq import (
    Atom,
    ConjunctiveQuery,
    QueryTerm,
    UnionQuery,
    Variable,
    fresh_variable,
)
from repro.query.parser import parse_query, parse_queries, QuerySyntaxError
from repro.query.containment import (
    canonical_form,
    containment_mapping,
    equivalent,
    find_isomorphism,
    is_contained_in,
    is_isomorphic,
    minimize,
)
from repro.query.evaluation import evaluate, evaluate_union
from repro.query import algebra

__all__ = [
    "Atom",
    "ConjunctiveQuery",
    "QueryTerm",
    "UnionQuery",
    "Variable",
    "fresh_variable",
    "parse_query",
    "parse_queries",
    "QuerySyntaxError",
    "canonical_form",
    "containment_mapping",
    "equivalent",
    "find_isomorphism",
    "is_contained_in",
    "is_isomorphic",
    "minimize",
    "evaluate",
    "evaluate_union",
    "algebra",
]
