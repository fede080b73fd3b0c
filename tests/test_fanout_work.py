"""A fan-out pays per row, not per shard: one statement shape against a
tenant on one shard and a tenant spread over 32. What a statement binds —
composite-index keys, scan predicates — is built once, whatever its
fan-out; binding a shape rebuilds no plan; and each shard's operator trace
and the executor's counters are what the plan interpreter this replaced
produced on the same statements (recorded below)."""

from __future__ import annotations

from repro import ESDB, EsdbConfig
from repro.cluster import ClusterTopology
from repro.query import executor as executor_module
from repro.query import shapes as shapes_module
from repro.query.executor import QueryExecutor
from repro.query.planner import PhysicalPlan
from repro.storage import composite as composite_module
from tests.conftest import make_log

HOT, COLD = "hot", "cold"
TITLES = ("red cotton shirt", "blue silk scarf", "green wool hat")
SQL = (
    "SELECT * FROM t WHERE tenant_id = '{tenant}' AND created_time BETWEEN {low} AND {high}"
    " AND status = {status} AND auction_title LIKE '%{word}%' LIMIT 50"
)
#: (tenant, low, high, status, word) of each statement, in order.
STATEMENTS = [
    (COLD, 10, 200, 1, "silk"),
    (HOT, 10, 200, 1, "silk"),
    (COLD, 50, 300, 2, "cotton"),
    (HOT, 50, 300, 2, "cotton"),
]


def _db() -> ESDB:
    db = ESDB(EsdbConfig(topology=ClusterTopology(num_nodes=4, num_shards=32), cache=False,
                         auto_refresh_every=None))
    db.policy.rules.update(0.0, 32, HOT)
    for i in range(640):
        db.write(make_log(i, tenant=HOT if i % 2 else COLD, created=float(i // 2),
                          status=i % 3, title=TITLES[i % 5 % 3]))
    db.refresh()
    return db


def _run(db: ESDB, monkeypatch) -> tuple[list, list, dict, float]:
    """Each statement's fan-out and per-shard traces, then the executor
    counters' totals."""
    traces: list = []
    execute = QueryExecutor.execute

    def recording(self, plan):
        rows, trace = execute(self, plan)
        traces.append(list(trace.steps))
        return rows, trace

    monkeypatch.setattr(QueryExecutor, "execute", recording)
    fanouts, per_statement = [], []
    for tenant, low, high, status, word in STATEMENTS:
        traces.clear()
        sql = SQL.format(tenant=tenant, low=low, high=high, status=status, word=word)
        fanouts.append(db.execute_sql(sql).subqueries)
        per_statement.append(list(traces))
    metrics = db.telemetry.metrics
    operators = {
        series.labels["operator"]: int(series.value)
        for series in metrics.series("executor_operators_total")
    }
    return fanouts, per_statement, operators, metrics.total("executor_postings_total")


def _count(monkeypatch, module, name: str) -> list:
    """Count the calls of *module*'s function *name*; returns the counter."""
    calls = [0]
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


#: Recorded from the plan interpreter (``QueryExecutor._run``'s
#: ``isinstance`` chain) this replaced, on the statements above: each
#: shard's ``(CompositeSearch, SequentialScanFilter, SequentialScanFilter)``
#: sizes in fan-out order, then the executor counters' totals.
RECORDED_TRACES = [
    "191,64,25",
    "6,1,0 12,6,1 3,2,1 9,1,1 5,1,0 6,4,2 7,2,2 6,0,0 8,3,2 7,1,0 3,0,0 3,2,0 3,1,0 4,3,1 6,0,0"
    " 7,1,0 3,1,1 5,2,1 7,5,1 12,2,1 7,3,1 2,1,0 4,0,0 6,3,2 11,3,3 8,4,1 3,0,0 7,2,0 5,2,2"
    " 6,1,0 2,1,1 8,5,1",
    "251,83,33",
    "6,0,0 13,4,2 5,1,0 9,6,4 8,5,2 9,2,1 9,3,2 6,2,2 9,4,2 7,2,2 3,2,0 5,1,1 3,2,1 4,0,0 10,3,0"
    " 10,6,0 2,0,0 6,1,1 9,2,0 12,6,1 12,3,0 5,2,2 7,2,1 11,3,2 15,5,1 10,3,0 5,1,0 9,3,1 4,1,1"
    " 10,2,1 6,2,2 12,5,1",
]
RECORDED_OPERATORS = {"CompositeSearch": 66, "SequentialScanFilter": 132}
RECORDED_POSTINGS = 1294


def test_each_shard_runs_what_the_interpreter_ran(monkeypatch):
    fanouts, traces, operators, postings = _run(_db(), monkeypatch)
    assert fanouts == [1, 32, 1, 32]
    names = ("CompositeSearch", "SequentialScanFilter", "SequentialScanFilter")
    for recorded, shards in zip(RECORDED_TRACES, traces):
        assert shards == [
            list(zip(names, map(int, sizes.split(",")))) for sizes in recorded.split()
        ]
    assert operators == RECORDED_OPERATORS
    assert postings == RECORDED_POSTINGS


def test_what_a_statement_binds_does_not_grow_with_its_fanout(monkeypatch):
    db = _db()
    sql = SQL.format(tenant=COLD, low=0, high=5, status=0, word="red")
    db.execute_sql(sql)  # compiles the shape
    encodes = _count(monkeypatch, composite_module, "_encode")
    predicates = _count(monkeypatch, executor_module, "_scan_predicate")
    counts = {}
    for tenant in (COLD, HOT):
        encodes[0] = predicates[0] = 0
        result = db.execute_sql(SQL.format(tenant=tenant, low=10, high=200, status=1, word="silk"))
        counts[tenant] = (result.subqueries, encodes[0], predicates[0])
    assert counts[COLD][0] == 1 and counts[HOT][0] == 32
    # Three key parts (tenant, low, high), two scans: per statement.
    assert counts[COLD][1:] == counts[HOT][1:] == (3, 2)


def test_binding_a_shape_rebuilds_no_plan(monkeypatch):
    db = _db()
    db.execute_sql(SQL.format(tenant=COLD, low=0, high=5, status=0, word="red"))
    built = []
    decode = shapes_module._decode

    def recording(template, values):
        result = decode(template, values)
        built.append(type(result))
        return result

    monkeypatch.setattr(shapes_module, "_decode", recording)
    db.execute_sql(SQL.format(tenant=HOT, low=10, high=200, status=1, word="silk"))
    assert built and PhysicalPlan not in built
    _, plan, _ = db.coordinator.prepare(
        db.telemetry.tracer, SQL.format(tenant=HOT, low=1, high=2, status=1, word="silk")
    )
    assert plan.describe().startswith("SeqScanFilter")  # asked for: rebuilt
    assert PhysicalPlan in built
