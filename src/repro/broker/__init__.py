"""WebGPU 2.0 substrate: message broker, pull workers, containers.

Paper Section VI: the OpenEdx frontend publishes jobs to a *queue
message broker* "that can be replicated across Amazon availability
zones"; worker nodes "poll the queue, accepting a job if the node meets
the job requirements", which enables requirement tags (Multi-GPU, MPI,
OpenACC) and free automatic scaling. Each worker runs a main driver
that maintains a pool of Docker containers mapped onto physical GPUs,
consults a remote configuration server (a config change restarts the
driver), and reports metrics to a replicated database.

* :mod:`repro.broker.queue` — the job queue with tag matching and
  at-least-once delivery (leases, acks, redelivery, dead-letter queue);
* :mod:`repro.broker.broker` — the replicated broker: zone front doors
  over a queue whose mirrored standby promotes on loss;
* :mod:`repro.broker.containers` — container images and the pool
  (delete after each job, replenish from the image);
* :mod:`repro.broker.config_server` — remote config with restart
  triggers;
* :mod:`repro.broker.driver` — the v2 worker driver (pull loop);
* :mod:`repro.broker.dashboard` — the administrators' status view.
"""

from repro.broker.queue import (
    DeadLetter,
    DeliveryPolicy,
    JobQueue,
    Lease,
    QueueStats,
)
from repro.broker.broker import (
    BrokerUnavailable,
    FailoverReport,
    MessageBroker,
)
from repro.broker.containers import Container, ContainerImage, ContainerPool
from repro.broker.config_server import ConfigServer, WorkerRemoteConfig
from repro.broker.driver import WorkerDriver
from repro.broker.dashboard import Dashboard
from repro.broker.autoscaler import FleetManager, ScaleEvent

__all__ = [
    "BrokerUnavailable",
    "Container",
    "ContainerImage",
    "ContainerPool",
    "ConfigServer",
    "Dashboard",
    "DeadLetter",
    "DeliveryPolicy",
    "FailoverReport",
    "FleetManager",
    "Lease",
    "ScaleEvent",
    "JobQueue",
    "MessageBroker",
    "QueueStats",
    "WorkerDriver",
    "WorkerRemoteConfig",
]
