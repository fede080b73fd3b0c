"""The SQL / ES-DSL query layer (§3.1 Xdriver4ES + §5.1 query optimizer).

Pipeline::

    SQL text ──parse──▶ Query AST ──Xdriver4ES──▶ ES-DSL tree
        ──RBO──▶ physical plan ──executor──▶ posting lists ──fetch──▶ rows
        ──aggregator──▶ final result (sort / limit / aggregates)

The rule-based optimizer reproduces the paper's three access paths —
composite index (longest match), sequential scan (scan list), single-column
index — and the Figure 7 → Figure 8 plan improvement.
"""

from repro.query.ast import (
    AndNode,
    BetweenPredicate,
    ComparisonPredicate,
    InPredicate,
    LikePredicate,
    MatchPredicate,
    NotNode,
    OrNode,
    SelectStatement,
    SubAttributePredicate,
)
from repro.query.dsl import DslQuery, to_dsl
from repro.query.executor import QueryExecutor
from repro.query.optimizer import AccessPath, RuleBasedOptimizer
from repro.query.planner import PhysicalPlan
from repro.query.aggregator import QueryResult, ResultAggregator
from repro.query.sql_parser import parse_sql
from repro.query.xdriver import Xdriver4ES

__all__ = [
    "parse_sql",
    "SelectStatement",
    "AndNode",
    "OrNode",
    "NotNode",
    "ComparisonPredicate",
    "BetweenPredicate",
    "InPredicate",
    "LikePredicate",
    "MatchPredicate",
    "SubAttributePredicate",
    "DslQuery",
    "to_dsl",
    "Xdriver4ES",
    "RuleBasedOptimizer",
    "AccessPath",
    "PhysicalPlan",
    "QueryExecutor",
    "ResultAggregator",
    "QueryResult",
]
