"""Alert-driven governance policy: demote abusive tenants automatically.

The observer (:class:`~repro.obsv.Observer`) already raises
``hot_tenant`` alerts when one tenant dominates a workload-monitor window.
:class:`GovernancePolicy` closes the loop: when governance is on and an
alert's window share reaches :data:`~repro.tenancy.config.DEMOTE_SHARE`,
the offending tenant is demoted to the ``batch`` QoS class for
:data:`~repro.tenancy.config.DEMOTE_SECONDS` — its backlog then sheds
first under saturation while well-behaved tenants keep their priority.
"""

from __future__ import annotations

from typing import Iterable

from repro.tenancy.config import DEMOTE_SHARE


class GovernancePolicy:
    """Demote tenants named by hot-tenant skew alerts to ``batch``."""

    def on_alerts(self, governor, alerts: Iterable, now: float) -> list[object]:
        """Apply one round of freshly raised alerts; returns the tenants
        demoted this round (already-demoted tenants are not re-demoted,
        their window just restarts)."""
        demoted: list[object] = []
        for alert in alerts:
            if getattr(alert, "kind", None) != "hot_tenant":
                continue
            share = float(alert.measurement.get("share", 0.0))
            if share < DEMOTE_SHARE:
                continue
            tenant = alert.subject
            already = governor.is_demoted(tenant, now)
            governor.demote(tenant, now, reason=f"hot_tenant share={share:.2f}")
            if not already:
                demoted.append(tenant)
        return demoted
