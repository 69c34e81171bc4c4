"""Tenant descriptors: who shares the rack, and on what terms.

A :class:`TenantSpec` is the contract one tenant signs with the serving
grid: which YCSB mix it issues, how fast it may issue it (token-bucket
admission, ``rate_ops_per_s``; ``None`` = uncapped), and how big its
share of the grid's capacity is when everyone is backlogged (the
weighted-fair ``weight``).  A :class:`TenancyConfig` is the full roster
for one run.

Everything here is frozen, validated data - the moving parts live in
:mod:`repro.tenancy.admission` and :mod:`repro.tenancy.sched` - so a
roster can be embedded in a test or a CI job and compared across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import ConfigError


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's workload mix, arrival rate, and fair share."""

    name: str
    workload: str = "A"
    weight: int = 1
    #: Token-bucket admission cap in ops per simulated second; ``None``
    #: leaves the tenant uncapped (it gets whatever WFQ grants it).
    rate_ops_per_s: Optional[int] = None
    #: Burst allowance of the token bucket, in ops.
    burst_ops: int = 8
    #: Failed-op budget under chaos: how many failed ops (retry storms,
    #: injected faults, degraded-mode errors) this tenant may burn per
    #: run before the controller demotes it to best-effort admission -
    #: an over-budget tenant is only scheduled when no in-budget tenant
    #: is ready, so one tenant's retry storm against a dead shard cannot
    #: starve the rest of the roster.  ``None`` leaves the tenant
    #: unbudgeted (every existing roster, so schedules are unchanged).
    retry_budget: Optional[int] = None

    def validate(self) -> None:
        if not self.name:
            raise ConfigError("tenant needs a name")
        if self.weight < 1:
            raise ConfigError(f"tenant {self.name}: weight must be >= 1")
        if self.rate_ops_per_s is not None and self.rate_ops_per_s < 1:
            raise ConfigError(f"tenant {self.name}: rate must be >= 1 op/s")
        if self.burst_ops < 1:
            raise ConfigError(f"tenant {self.name}: burst must be >= 1 op")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ConfigError(
                f"tenant {self.name}: retry_budget must be >= 0")

    def workload_spec(self):
        from ..ycsb.workloads import workload  # local: ycsb is a consumer
        return workload(self.workload)


@dataclass(frozen=True)
class TenancyConfig:
    """The roster of tenants multiplexed onto one run."""

    tenants: Tuple[TenantSpec, ...]

    def validate(self) -> None:
        if not self.tenants:
            raise ConfigError("need at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigError("tenant names must be unique")
        for tenant in self.tenants:
            tenant.validate()

    def __len__(self) -> int:
        return len(self.tenants)


#: The workload/weight wheel :func:`default_tenants` deals from.  Read
#: heavy, update heavy, and scan tenants mixed, weights spanning 4x - the
#: shape HiStore-style heterogeneous-tenant evaluations use.
_DEFAULT_WHEEL = (
    ("A", 2, None),
    ("B", 1, None),
    ("C", 4, None),
    ("E", 1, None),
)


#: Every THROTTLED_EVERY-th tenant of a default roster is capped at
#: THROTTLED_RATE ops per simulated second.
THROTTLED_EVERY = 8
THROTTLED_RATE = 50_000


def default_tenants(count: int = 16) -> TenancyConfig:
    """A deterministic heterogeneous roster of ``count`` tenants.

    Workloads and weights cycle through a fixed wheel; every
    :data:`THROTTLED_EVERY`-th tenant carries a token-bucket rate cap so
    a default roster always demonstrates admission control, not just
    weighted sharing.  Purely index-derived - no randomness - so the same
    ``count`` always yields the same roster.
    """
    if count < 1:
        raise ConfigError("need at least one tenant")
    tenants = []
    for i in range(count):
        workload, weight, rate = _DEFAULT_WHEEL[i % len(_DEFAULT_WHEEL)]
        if i % THROTTLED_EVERY == THROTTLED_EVERY - 1:
            rate = THROTTLED_RATE
        tenants.append(TenantSpec(name=f"t{i:02d}", workload=workload,
                                  weight=weight, rate_ops_per_s=rate))
    config = TenancyConfig(tuple(tenants))
    config.validate()
    return config
