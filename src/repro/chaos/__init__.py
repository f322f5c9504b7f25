"""Chaos harness: randomized fault campaigns with invariant checking.

The paper's dependability section (§V.A) demands that a vehicular cloud
"operate normally even under attacks or failures of sub-components".
Hand-written fault schedules (experiment E11) probe *chosen* failure
modes; this package probes *unchosen* ones:

* :mod:`.generator` samples seeded, randomized fault campaigns from a
  weighted grammar over every fault family, scaled to world size and
  run length;
* :mod:`.invariants` defines cross-subsystem safety invariants (one
  declared-ledger conservation check for tasks, serving, DAGs and
  tiers, lease exclusivity, single-head, quorum safety, membership
  agreement, channel conservation, stranded tasks) checked
  continuously while faults fire;
* :mod:`.runner` executes campaigns and, on violation, captures a
  reproducer bundle and delta-debugs (:mod:`.minimize`) the fault
  schedule down to a minimal failing subset that replays
  deterministically from the recorded seed;
* :mod:`.scenarios` builds the three Fig. 4 architectures, hardened or
  deliberately weakened, once for both chaos and scenario campaigns.

Quick start::

    from repro.chaos import ChaosRunner, stationary_scenario

    runner = ChaosRunner(stationary_scenario, run_length_s=60.0)
    campaign = runner.run_campaign(range(20))
    if campaign.failing_seeds:
        bundle = runner.capture_reproducer(campaign.failing_seeds[0])
        print(bundle.describe())
"""

from .bundle import ReproducerBundle
from .generator import (
    DEFAULT_WEIGHTS,
    ChaosProfile,
    ChaosTargets,
    campaign_size,
    generate_plan,
)
from .invariants import (
    ChannelConservation,
    ClusterExclusivity,
    Conservation,
    Invariant,
    InvariantSuite,
    LeaseExclusivity,
    MembershipAgreement,
    QuorumSafety,
    SingleHead,
    StrandedTasks,
    Violation,
)
from .minimize import ddmin
from .runner import (
    CampaignResult,
    ChaosRunner,
    ChaosScenario,
    RunResult,
    ScenarioFactory,
    reset_global_ids,
)
from .scenarios import (
    CHAOS_BACKOFF,
    dynamic_scenario,
    infrastructure_scenario,
    overload_scenario,
    stationary_scenario,
)

__all__ = [
    "CampaignResult",
    "CHAOS_BACKOFF",
    "ChannelConservation",
    "ChaosProfile",
    "ChaosRunner",
    "ChaosScenario",
    "ChaosTargets",
    "ClusterExclusivity",
    "Conservation",
    "DEFAULT_WEIGHTS",
    "Invariant",
    "InvariantSuite",
    "LeaseExclusivity",
    "MembershipAgreement",
    "QuorumSafety",
    "ReproducerBundle",
    "RunResult",
    "ScenarioFactory",
    "SingleHead",
    "StrandedTasks",
    "Violation",
    "campaign_size",
    "ddmin",
    "reset_global_ids",
    "dynamic_scenario",
    "generate_plan",
    "infrastructure_scenario",
    "overload_scenario",
    "stationary_scenario",
]
