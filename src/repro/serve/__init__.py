"""Overload-resilient serving on top of a vehicular cloud.

The management challenge (§V.A) is not only *allocating* pooled vehicle
resources but keeping a cloud useful when demand exceeds them.  This
package adds the serving-path defences between open-loop clients and a
:class:`~repro.core.vcloud.VehicularCloud`:

* :mod:`.workload` — seeded open-loop workload generation (Poisson,
  bursty MMPP, diurnal arrival processes; per-tenant client
  populations), deterministic per RNG substream;
* :mod:`.queueing` — a bounded priority admission queue with
  deterministic tail eviction;
* :mod:`.admission` — pluggable admission control (deadline
  feasibility, queue-delay bounds, per-tenant fair backpressure) and
  load-shedding policies, every refusal carrying a typed reason;
* :mod:`.breaker` — per-worker circuit breakers (sliding-window
  failure rate, lease-expiry hard trips, backoff-scheduled half-open
  probes);
* :mod:`.hedging` — deadline-aware hedged offload: a lagging primary
  gets a replica on a different worker, first result wins, the loser
  is cancelled through the typed failure ledger;
* :mod:`.batching` — small-task coalescing: compatible small
  same-tenant queued requests share one cloud dispatch (one worker
  slot) while keeping per-member latency/SLO/failure accounting;
* :mod:`.gateway` — the :class:`ServiceGateway` tying it together,
  with conservation-checked accounting
  (``offered == admitted + rejected``;
  ``admitted == completed + failed + shed + queued + in-flight``,
  in-flight counted per batch member).

A gateway can also share a :class:`~repro.core.capacity.BacklogEstimator`
with a DAG scheduler on the same cloud (``backlog=``): the gateway
registers its queued work so the capacity-aware redundancy planner sees
serving load, breaking the replication-amplifies-queueing loop E17
exposed.

A gateway can also front DAG jobs: construct it with ``dag=`` (a
:class:`~repro.dag.scheduler.DagScheduler` on the same cloud) and
tenants whose :class:`~repro.serve.workload.TenantSpec` carries a
``graph`` template emit dependency-structured jobs through
``submit_graph`` instead of scalar requests.

Experiment E16 (``benchmarks/test_bench_overload.py``) contrasts the
protected stack (:meth:`ServiceGateway.protected` under the
:func:`~.workload.tenant_mix` load) with the unprotected baseline
across offered loads on all three Fig. 4 architectures.
"""

from .admission import (
    AdmissionPolicy,
    AdmitAll,
    CompositeAdmission,
    DeadlineFeasibilityAdmission,
    DeadlineLapseShedder,
    QueueDelayAdmission,
    QueueDelayShedder,
    SheddingPolicy,
    TenantFairShareAdmission,
)
from .batching import BatchingPolicy
from .breaker import BreakerState, CircuitBreaker, CircuitBreakerBoard
from .gateway import ServeStats, ServiceGateway
from .hedging import HedgePolicy, LatencyQuantileTracker
from .queueing import BoundedPriorityQueue
from .request import ServiceRequest
from .workload import (
    MEAN_WORK_MI,
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    TenantLoad,
    TenantSpec,
    WorkloadGenerator,
    tenant_mix,
)

__all__ = [
    "AdmissionPolicy",
    "AdmitAll",
    "ArrivalProcess",
    "BatchingPolicy",
    "BoundedPriorityQueue",
    "BreakerState",
    "BurstyArrivals",
    "CircuitBreaker",
    "CircuitBreakerBoard",
    "CompositeAdmission",
    "DeadlineFeasibilityAdmission",
    "DeadlineLapseShedder",
    "DiurnalArrivals",
    "HedgePolicy",
    "LatencyQuantileTracker",
    "MEAN_WORK_MI",
    "PoissonArrivals",
    "QueueDelayAdmission",
    "QueueDelayShedder",
    "ServeStats",
    "ServiceGateway",
    "ServiceRequest",
    "SheddingPolicy",
    "TenantFairShareAdmission",
    "TenantLoad",
    "TenantSpec",
    "WorkloadGenerator",
    "tenant_mix",
]
