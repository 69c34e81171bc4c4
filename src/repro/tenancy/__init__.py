"""Multi-tenant serving: tenant descriptors, admission, fair scheduling.

The layer that turns the single-workload YCSB runner into a serving
grid: a :class:`TenancyConfig` roster of :class:`TenantSpec` tenants is
multiplexed onto the runner's closed-loop workers by a shared
:class:`TenancyController` - token-bucket admission
(:class:`TokenBucket`) decides *when* a tenant's next op may start,
start-time-fair queueing (:class:`WeightedFairScheduler`) decides
*whose* op it is.  :func:`run_rack` composes the whole thing with a
rack-scale sharded cluster and online topology changes.

Attachment contract: both kinds of run drive the one client loop in
:mod:`repro.ycsb.runner`.  A run with no controller (``tenancy=None``)
is one lane per client and stays byte-identical to the golden
pre-tenancy fixture; a run with a controller is bit-reproducible for the
same (roster, seed, topology) - both are enforced by
tests/test_tenancy.py.
"""

from .admission import UNITS_PER_TOKEN, TokenBucket
from .runner import RackRunResult, run_rack
from .sched import VT_UNIT, TenancyController, WeightedFairScheduler
from .spec import TenancyConfig, TenantSpec, default_tenants

__all__ = [
    "UNITS_PER_TOKEN",
    "TokenBucket",
    "RackRunResult",
    "run_rack",
    "VT_UNIT",
    "TenancyController",
    "WeightedFairScheduler",
    "TenancyConfig",
    "TenantSpec",
    "default_tenants",
]
