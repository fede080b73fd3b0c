"""Transaction-log workload generator (§6.1).

Generates random documents from the transaction-log template: auto-increment
transaction id, Zipf-sampled tenant id, creation time, status/group columns,
a small full-text auction title, and the "attributes" column built from 1500
sub-attributes whose frequencies are themselves Zipf(θ=1) skewed (§6.3.3:
20 sub-attributes sampled per row; top 30 appear in ~50% of workloads).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigurationError
from repro.storage.document import render_attributes
from repro.workload.zipf import ZipfSampler

SUB_ATTRIBUTE_COUNT = 1500
SUB_ATTRIBUTES_PER_ROW = 20
#: Zipf skewness of sub-attribute popularity.
SUB_ATTRIBUTE_THETA = 1.0

_TITLE_WORDS = (
    "red blue black cotton silk leather wireless portable vintage classic "
    "mini pro max shirt dress phone case lamp chair book mug watch bag shoe "
    "jacket toy kit set premium eco handmade"
).split()

_STATUS_VALUES = (0, 1, 2, 3)  # created / paid / shipped / completed
_GROUP_COUNT = 1000


@dataclass(frozen=True)
class WorkloadConfig:
    """Workload parameters mirroring the paper's setup.

    Attributes:
        num_tenants: tenant universe size (paper: 100K for query tests).
        theta: Zipf skewness factor θ.
        seed: RNG seed for full determinism.
    """

    num_tenants: int = 100_000
    theta: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_tenants < 1:
            raise ConfigurationError("num_tenants must be >= 1")


class TransactionLogGenerator:
    """Streams deterministic transaction-log documents.

    The generator exposes the tenant sampler so scenario scripts can move
    hotspots mid-stream, and a separate sub-attribute sampler matching the
    frequency-based-indexing experiment.
    """

    def __init__(self, config: WorkloadConfig | None = None) -> None:
        self.config = config or WorkloadConfig()
        self.tenants = ZipfSampler(
            self.config.num_tenants, self.config.theta, seed=self.config.seed
        )
        self._subattrs = ZipfSampler(
            SUB_ATTRIBUTE_COUNT,
            SUB_ATTRIBUTE_THETA,
            seed=self.config.seed + 1,
        )
        self._rng = random.Random(self.config.seed + 2)
        self._txn_counter = itertools.count(1)

    @staticmethod
    def subattribute_name(rank: int) -> str:
        """Deterministic name of the rank-*rank* sub-attribute ("attr_0001"
        is the most popular, e.g. the "activity" flag)."""
        return f"attr_{rank:04d}"

    def sample_subattribute(self) -> str:
        """Draw one sub-attribute name from the popularity distribution
        (used for both document generation and query filters)."""
        return self.subattribute_name(self._subattrs.sample_rank())

    def _build_attributes(self) -> str:
        names = {
            self.sample_subattribute()
            for _ in range(SUB_ATTRIBUTES_PER_ROW)
        }
        return render_attributes(
            {name: f"v{self._rng.randint(0, 9)}" for name in sorted(names)}
        )

    def generate(self, created_time: float, tenant_id: object | None = None) -> dict:
        """Generate one transaction-log document at *created_time*.

        The tenant is Zipf-sampled unless *tenant_id* pins it (used by tests
        and adversarial scenarios).
        """
        if tenant_id is None:
            tenant_id = self.tenants.sample()
        title = " ".join(self._rng.choices(_TITLE_WORDS, k=4))
        return {
            "transaction_id": next(self._txn_counter),
            "tenant_id": tenant_id,
            "created_time": float(created_time),
            "status": self._rng.choice(_STATUS_VALUES),
            "group": self._rng.randint(1, _GROUP_COUNT),
            "buyer_id": self._rng.randint(1, 10_000_000),
            "amount": round(self._rng.uniform(1.0, 5000.0), 2),
            "quantity": self._rng.randint(1, 10),
            "auction_title": title,
            "buyer_nickname": f"buyer_{self._rng.randint(1, 99999)}",
            "seller_nickname": f"seller_{tenant_id}",
            "attributes": self._build_attributes(),
        }

    def stream(self, rate: float, duration: float, start_time: float = 0.0) -> Iterator[dict]:
        """Yield documents at *rate* per second for *duration* seconds, with
        evenly spaced creation times (the paper's constant generating rate)."""
        if rate <= 0 or duration <= 0:
            raise ConfigurationError("rate and duration must be positive")
        count = int(rate * duration)
        step = 1.0 / rate
        for i in range(count):
            yield self.generate(start_time + i * step)

    def batch(self, count: int, start_time: float = 0.0, spacing: float = 0.0) -> list[dict]:
        """Generate *count* documents with optional creation-time spacing."""
        return [self.generate(start_time + i * spacing) for i in range(count)]
