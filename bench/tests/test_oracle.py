"""The oracle accepts right answers, rejects wrong ones, and a wrong
expected answer makes the command fail."""

from types import SimpleNamespace

from bench.oracle import Oracle
from bench.workloads import QuerySpec, point_query


def _docs():
    return [
        {"transaction_id": i, "tenant_id": 1 + i % 2, "created_time": float(i),
         "status": i % 4, "group": i, "amount": 10.0 * i, "quantity": i % 3,
         "attributes": f"attr_0001:v{i % 2};attr_0002:v1"}
        for i in range(20)
    ]


def _oracle() -> Oracle:
    oracle = Oracle()
    for doc in _docs():
        oracle.add(doc)
    return oracle


def _result(rows, total_hits):
    return SimpleNamespace(rows=tuple(rows), total_hits=total_hits, subqueries=1)


def test_filter_limit_rows_are_a_subset_of_the_right_length():
    oracle = _oracle()
    spec = QuerySpec("filter", 1, (0.0, 19.0), (("status", "=", 0),), limit=3)
    matches = oracle.matches(spec, visible=20)
    assert [d["transaction_id"] for d in matches] == [0, 4, 8, 12, 16]
    assert oracle.check(spec, _result(matches[1:4], 5), 20) is None
    assert "rows" in oracle.check(spec, _result(matches[:2], 5), 20)
    assert "total_hits" in oracle.check(spec, _result(matches[:3], 4), 20)
    assert "distinct" in oracle.check(spec, _result([matches[0]] * 3, 5), 20)
    stranger = dict(matches[0], status=1)
    assert "not a distinct matching" in oracle.check(
        spec, _result([stranger, matches[1], matches[2]], 5), 20)


def test_visibility_is_a_prefix_of_the_acknowledged_documents():
    oracle = _oracle()
    spec = QuerySpec("filter", 1, (0.0, 19.0), (), limit=100)
    assert len(oracle.matches(spec, visible=20)) == 10
    assert len(oracle.matches(spec, visible=5)) == 3


def test_topk_rows_must_be_in_order():
    oracle = _oracle()
    spec = QuerySpec("topk", 2, (0.0, 19.0), limit=2)
    top = sorted(oracle.matches(spec, 20), key=lambda d: -d["created_time"])[:2]
    assert oracle.check(spec, _result(top, 10), 20) is None
    assert oracle.check(spec, _result(top[::-1], 10), 20) == "ordered rows differ"


def test_subattribute_and_aggregate():
    oracle = _oracle()
    spec = QuerySpec("subattr", 1, attr=("attr_0001", "v0"), limit=100)
    assert len(oracle.matches(spec, 20)) == 10
    assert oracle.matches(QuerySpec("subattr", 1, attr=("attr_0001", "v1")), 20) == []
    agg = QuerySpec("agg", 1, (0.0, 19.0))
    rows = [{"status": 0, "count(*)": 5, "sum(amount)": 400.0},
            {"status": 2, "count(*)": 5, "sum(amount)": 500.0}]
    assert oracle.check(agg, _result(rows, 10), 20) is None
    rows[1]["sum(amount)"] = 501.0
    assert "sum" in oracle.check(agg, _result(rows, 10), 20)
    assert "group keys" in oracle.check(agg, _result(rows[:1], 10), 20)


def test_point_query_names_one_document():
    oracle = _oracle()
    doc = oracle.docs[7]
    spec = point_query(doc)
    assert oracle.matches(spec, 20) == [doc]
    assert "BETWEEN 7.0 AND 7.0" in spec.sql()


def test_a_corrupted_expected_answer_makes_the_command_exit_non_zero(monkeypatch, capsys):
    from bench.__main__ import main

    monkeypatch.setenv("PYTHONHASHSEED", "0")  # already fixed: no re-exec
    arguments = ["--workload", "query_cold", "--smoke", "--trace", "0"]
    assert main(arguments) == 0
    assert '"correct": true' in capsys.readouterr().out.splitlines()[-1]

    honest = Oracle.matches
    monkeypatch.setattr(Oracle, "matches", lambda self, spec, visible: honest(self, spec, visible)[1:])
    assert main(arguments) == 1
    captured = capsys.readouterr()
    assert '"correct": false' in captured.out.splitlines()[-1]
    assert "expected" in captured.err
