"""Sharded broker fabric: consistent-hash shards, batched delivery
I/O, SLO-burn autoscaling signals, and deadline-aware admission control
— the million-student-semester substrate (ROADMAP item 3, the paper's
Fig. 1 deadline spike at MOOC scale). Each shard is a
:class:`repro.broker.broker.MessageBroker`, which owns replica failover
(the synchronously mirrored standby that promotes on loss).

* :mod:`repro.fabric.ring` — consistent-hash ring over ``(course,
  lab)`` partition keys;
* :mod:`repro.fabric.fabric` — the :class:`BrokerFabric` facade, a
  ring of brokers with batched publish/poll/ack/renew;
* :mod:`repro.fabric.slo` — windowed p95 queue-wait burn meter over
  the PR 4 telemetry;
* :mod:`repro.fabric.admission` — the grade > run > preview admission
  ladder driven by the burn signal.
"""

from repro.fabric.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
    AdmissionState,
)
from repro.fabric.fabric import BrokerFabric, FabricConfig
from repro.fabric.ring import HashRing, stable_hash
from repro.fabric.slo import BurnSample, SLOBurnMeter, SLOPolicy

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "AdmissionState",
    "BrokerFabric",
    "BurnSample",
    "FabricConfig",
    "HashRing",
    "SLOBurnMeter",
    "SLOPolicy",
    "stable_hash",
]
