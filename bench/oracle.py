"""A naive reference for the program's answers: the generated documents in a
list, and Python filter / sort / aggregate over them. It shares no code with
``repro.query`` or ``repro.storage`` — it evaluates the structured
``QuerySpec`` the SQL text was rendered from, never the text.
"""

from __future__ import annotations

import math
import operator

_OPS = {"=": operator.eq, ">=": operator.ge, "<=": operator.le,
        ">": operator.gt, "<": operator.lt}


def _attributes(raw: str) -> dict[str, str]:
    return dict(pair.split(":", 1) for pair in raw.split(";") if pair)


class Oracle:
    """Holds every acknowledged document in acknowledgement order.

    ``visible`` is how many of them a query may see: the program's reads are
    near-real-time, so a query sees what was acknowledged before the last
    refresh.
    """

    def __init__(self) -> None:
        self.docs: list[dict] = []
        self._by_tenant: dict[object, list[int]] = {}
        self._indexed = 0

    def add(self, doc: dict) -> None:
        self.docs.append(doc)

    def _positions(self, tenant: object) -> list[int]:
        while self._indexed < len(self.docs):
            doc = self.docs[self._indexed]
            self._by_tenant.setdefault(doc["tenant_id"], []).append(self._indexed)
            self._indexed += 1
        return self._by_tenant.get(tenant, [])

    def matches(self, spec, visible: int) -> list[dict]:
        """Documents among the first *visible* that satisfy *spec*."""
        out = []
        for position in self._positions(spec.tenant):
            if position >= visible:
                break
            doc = self.docs[position]
            if spec.time_range is not None:
                low, high = spec.time_range
                if not low <= doc["created_time"] <= high:
                    continue
            if any(not _OPS[op](doc[column], value) for column, op, value in spec.filters):
                continue
            if spec.attr is not None:
                if _attributes(doc["attributes"]).get(spec.attr[0]) != spec.attr[1]:
                    continue
            out.append(doc)
        return out

    def check(self, spec, result, visible: int) -> str | None:
        """None when *result* is a right answer to *spec*, else what is wrong."""
        expected = self.matches(spec, visible)
        if result.total_hits != len(expected):
            return f"total_hits {result.total_hits}, expected {len(expected)}"
        rows = list(result.rows)
        if spec.kind == "agg":
            return _check_groups(rows, expected)
        want = len(expected) if spec.limit is None else min(spec.limit, len(expected))
        if len(rows) != want:
            return f"{len(rows)} rows, expected {want}"
        if spec.kind == "topk":
            expected.sort(key=lambda doc: doc["created_time"], reverse=True)
            if rows != expected[:want]:
                return "ordered rows differ"
            return None
        by_id = {doc["transaction_id"]: doc for doc in expected}
        seen = set()
        for row in rows:
            key = row.get("transaction_id")
            if by_id.get(key) != row or key in seen:
                return f"row {key!r} is not a distinct matching document"
            seen.add(key)
        return None


def _check_groups(rows: list[dict], expected: list[dict]) -> str | None:
    groups: dict[object, list[float]] = {}
    for doc in expected:
        groups.setdefault(doc["status"], []).append(doc["amount"])
    if sorted(row["status"] for row in rows) != sorted(groups):
        return "group keys differ"
    for row in rows:
        amounts = groups[row["status"]]
        if row["count(*)"] != len(amounts):
            return f"count for status {row['status']} differs"
        if not math.isclose(row["sum(amount)"], math.fsum(amounts), rel_tol=1e-9):
            return f"sum for status {row['status']} differs"
    return None
