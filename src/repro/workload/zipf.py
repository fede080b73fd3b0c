"""Zipf sampling of tenant ids.

The paper sets tenant ``k``'s sampling weight proportional to ``(1/k)^θ``.
θ=0 is uniform; θ=1 approximates production; θ≥1.5 models extreme skew.
Sampling uses a precomputed cumulative table + binary search so generating
millions of tenant ids stays fast, and the sampler can be re-seeded to make
every benchmark deterministic.
"""

from __future__ import annotations

import bisect
import random
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError


def zipf_weights(num_tenants: int, theta: float) -> np.ndarray:
    """Return normalized Zipf weights: ``w_k ∝ (1/k)^θ`` for rank k = 1..N."""
    if num_tenants < 1:
        raise ConfigurationError("num_tenants must be >= 1")
    if theta < 0:
        raise ConfigurationError("theta must be >= 0")
    ranks = np.arange(1, num_tenants + 1, dtype=np.float64)
    weights = ranks ** (-theta)
    return weights / weights.sum()


class ZipfSampler:
    """Deterministic sampler of tenant ranks from Zipf(θ).

    Ranks are 1-based (rank 1 is the hottest tenant). The rank→tenant-id
    mapping can be remapped so scenario scripts can make
    *different* tenants hot over time while keeping the same rank
    distribution — exactly how Figure 14 injects new hotspot groups.
    """

    def __init__(self, num_tenants: int, theta: float, seed: int = 0) -> None:
        self.num_tenants = num_tenants
        self.theta = theta
        weights = zipf_weights(num_tenants, theta)
        self._cumulative = np.cumsum(weights)
        self._cumulative[-1] = 1.0  # guard against fp drift
        self._rng = random.Random(seed)
        self._tenant_ids: list | None = None

    def weight(self, rank: int) -> float:
        """Return the probability mass of 1-based *rank*."""
        if not 1 <= rank <= self.num_tenants:
            raise ConfigurationError(f"rank {rank} out of range")
        previous = self._cumulative[rank - 2] if rank > 1 else 0.0
        return float(self._cumulative[rank - 1] - previous)

    def sample_rank(self) -> int:
        """Draw one 1-based rank."""
        u = self._rng.random()
        return int(bisect.bisect_left(self._cumulative, u)) + 1

    def sample(self):
        """Draw one tenant id (the rank itself when no mapping is set)."""
        rank = self.sample_rank()
        if self._tenant_ids is None:
            return rank
        return self._tenant_ids[rank - 1]

    def remap(self, tenant_ids: Sequence) -> None:
        """Replace the rank→tenant mapping (hotspot injection, Fig 14)."""
        if len(tenant_ids) != self.num_tenants:
            raise ConfigurationError(
                f"tenant_ids must have length {self.num_tenants}, got {len(tenant_ids)}"
            )
        self._tenant_ids = list(tenant_ids)

    def tenant_at(self, rank: int):
        """Return the tenant id currently occupying 1-based *rank*."""
        if not 1 <= rank <= self.num_tenants:
            raise ConfigurationError(f"rank {rank} out of range")
        if self._tenant_ids is None:
            return rank
        return self._tenant_ids[rank - 1]

    def assign_rank(self, rank: int, tenant_id) -> None:
        """Install *tenant_id* at 1-based *rank* (flash-tenant churn): the
        new tenant inherits that rank's sampling weight until reassigned."""
        if not 1 <= rank <= self.num_tenants:
            raise ConfigurationError(f"rank {rank} out of range")
        if self._tenant_ids is None:
            self._tenant_ids = list(range(1, self.num_tenants + 1))
        self._tenant_ids[rank - 1] = tenant_id

    def rotate_hotspots(self, shift: int) -> None:
        """Shift the rank→tenant mapping by *shift* positions so previously
        cold tenants become the new hot group."""
        ids = self._tenant_ids or list(range(1, self.num_tenants + 1))
        shift %= self.num_tenants
        self._tenant_ids = ids[shift:] + ids[:shift]
