"""Self-time arithmetic and install/uninstall hygiene of the tracer."""

import sys

import pytest

from bench.tracer import (
    TARGETS,
    Tracer,
    _resolve,
    aggregate,
    request_ids,
    self_sum_error,
    self_times,
)


def _namespaces(target):
    """Every namespace a target is bound in, with the object bound there."""
    owner = _resolve(target.owner)
    original = vars(owner)[target.attr]
    if isinstance(owner, type):
        return [(owner, original)]
    return [
        (module, original)
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "repro" and vars(module).get(target.attr) is original
    ]


def test_self_times_of_a_synthetic_tree_sum_to_the_root():
    # (parent, name_id, start, end, measured)
    spans = [
        (-1, 0, 0.0, 10.0, 0),  # root
        (0, 1, 1.0, 4.0, 0),    #   child a
        (1, 2, 2.0, 3.0, 0),    #     grandchild
        (0, 1, 5.0, 9.0, 0),    #   child b
        (-1, 0, 20.0, 21.0, 0),  # second request, no children
    ]
    assert request_ids(spans) == [0, 0, 0, 0, 4]
    own = self_times(spans)
    assert own == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert sum(own[:4]) == pytest.approx(10.0)
    assert self_sum_error(spans) == pytest.approx(0.0)
    stats = aggregate(spans, ["root", "child", "leaf"])
    assert stats[("root", "child")].calls == 2
    assert stats[("root", "child")].total == pytest.approx(7.0)
    assert stats[("root", "child")].self_time == pytest.approx(6.0)
    assert stats[("root", "child")].longest == pytest.approx(4.0)
    assert stats[("root", "root")].self_time == pytest.approx(4.0)


def test_install_and_uninstall_leave_every_attribute_as_it_was():
    import repro.esdb  # noqa: F401  (binds parse_sql and the fingerprints by name)

    before = {target.span: _namespaces(target) for target in TARGETS}
    assert all(before.values())
    # parse_attributes is imported by name into several modules: all rebound.
    assert len(before["storage.parse_attributes"]) >= 3
    tracer = Tracer()
    with tracer:
        for target in TARGETS:
            for namespace, original in before[target.span]:
                wrapped = vars(namespace)[target.attr]
                assert wrapped is not original
                assert wrapped.__wrapped__ is original
        with pytest.raises(RuntimeError):
            tracer.install()
    for target in TARGETS:
        for namespace, original in before[target.span]:
            assert vars(namespace)[target.attr] is original


def test_wrapped_calls_nest_and_measure():
    from repro.storage.document import parse_attributes
    from repro.storage.engine import EngineConfig, ShardEngine
    from repro.storage.document import Schema

    tracer = Tracer()
    with tracer:
        engine = ShardEngine(EngineConfig(schema=Schema.transaction_logs()))
        engine.index({"transaction_id": 1, "tenant_id": 1, "created_time": 0.0,
                      "attributes": "a:1;b:2"})
    assert parse_attributes("a:1") == {"a": "1"}  # the original again
    names = [tracer.names[span[1]] for span in tracer.spans]
    assert names[0] == "storage.index"
    assert "storage.translog_append" in names and "storage.parse_attributes" in names
    assert all(span[0] == 0 for span in tracer.spans[1:] if tracer.names[span[1]] != "runtime.gc")
    assert self_sum_error(tracer.spans) < 1e-9
