"""Automatic worker scaling for the v2 fleet (paper Section VI-A).

"The worker nodes are automatically scaled" — possible precisely
because workers *pull*: adding a node is just another poller, removing
one is letting it finish and stop polling. The :class:`FleetManager`
adds/retires drivers against min/max bounds with a cooldown, driven by
one control signal, **SLO burn**: the observed p95 queue wait from the
PR 4 telemetry divided by the SLO target (``slo=``, default
``SLOPolicy()``). While nothing is delivered the age of the oldest
queued job stands in for p95, so a deep queue that no worker drains
reads as burning. Multiplicative-increase while the SLO burns (a
deadline storm can double the fleet per cooldown, not inch up one node
at a time) and additive-decrease once it recovers. The same burn
sample feeds the optional admission controller, so scaling and
load-shedding act on one consistent view of the storm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.broker.broker import MessageBroker
from repro.broker.driver import WorkerDriver
from repro.cluster.node import Clock
from repro.cluster.scaling import SLOBurnPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.fabric.admission import AdmissionController
    from repro.fabric.fabric import BrokerFabric
    from repro.fabric.slo import SLOPolicy


@dataclass
class ScaleEvent:
    timestamp: float
    action: str        # "add" | "remove"
    worker: str
    reason: str


class FleetManager:
    """Queue-driven automatic scaling of pull workers.

    Parameters
    ----------
    spawn:
        Factory creating (and registering) one new driver — the
        platform supplies this so new workers join its bookkeeping.
    retire:
        Callback removing a driver from service.
    """

    def __init__(self, broker: "MessageBroker | BrokerFabric", clock: Clock,
                 spawn: Callable[[], WorkerDriver],
                 retire: Callable[[WorkerDriver], None],
                 min_workers: int = 1, max_workers: int = 16,
                 idle_polls_before_retire: int = 50,
                 cooldown_s: float = 60.0,
                 slo: "SLOPolicy | None" = None,
                 burn_policy: SLOBurnPolicy | None = None,
                 admission: "AdmissionController | None" = None):
        # imported here: repro.fabric imports repro.broker
        from repro.fabric.slo import SLOBurnMeter

        if min_workers < 1 or max_workers < min_workers:
            raise ValueError("need 1 <= min_workers <= max_workers")
        self.broker = broker
        self.clock = clock
        self.spawn = spawn
        self.retire = retire
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.idle_polls_before_retire = idle_polls_before_retire
        self.drivers: list[WorkerDriver] = []
        self.events: list[ScaleEvent] = []
        self._idle_counts: dict[str, int] = {}
        #: meter over the broker's telemetry (None = ``SLOPolicy()``)
        #: and the MIMD sizing policy, which owns the cooldown
        self.meter = SLOBurnMeter(broker.telemetry, slo)
        self.burn_policy = burn_policy or SLOBurnPolicy(
            min_workers=min_workers, max_workers=max_workers,
            cooldown_s=cooldown_s)
        # admission control rides the same burn samples; prefer the
        # broker fabric's own controller when it has one
        self.admission = admission if admission is not None \
            else getattr(broker, "admission", None)

    @property
    def size(self) -> int:
        return len(self.drivers)

    def adopt(self, driver: WorkerDriver) -> None:
        """Track an externally-created driver."""
        self.drivers.append(driver)

    def evaluate(self) -> ScaleEvent | None:
        """One scaling decision; call periodically (the admin loop):
        sample the meter, feed admission, and move the fleet toward
        the policy's target size. A burning SLO may add several
        drivers in one decision; shrinking is one idle driver at a
        time."""
        now = self.clock.now()
        sample = self.meter.sample(
            now, stalled_wait_s=self.broker.queue.oldest_wait(now))
        if self.admission is not None:
            self.admission.observe_burn(sample.burn, now)
        decision = self.burn_policy.target_workers(now, sample.burn,
                                                   self.size)
        event: ScaleEvent | None = None
        while self.size < decision.target:
            driver = self.spawn()
            self.drivers.append(driver)
            event = ScaleEvent(now, "add", driver.worker.name,
                               decision.reason)
            self.events.append(event)
        if decision.target < self.size and self.broker.depth() == 0:
            # shrink one at a time, idlest driver first
            idle = sorted(self.drivers, key=lambda d: -self._idle_counts
                          .get(d.worker.name, 0))
            victim = idle[0]
            if self._idle_counts.get(victim.worker.name, 0) \
                    >= self.idle_polls_before_retire:
                self.drivers.remove(victim)
                self.retire(victim)
                event = ScaleEvent(now, "remove", victim.worker.name,
                                   decision.reason)
                self.events.append(event)
        return event

    def pump(self) -> int:
        """Step every driver once, tracking idleness; returns jobs done."""
        done = 0
        for driver in list(self.drivers):
            result = driver.step()
            name = driver.worker.name
            if result is None:
                self._idle_counts[name] = self._idle_counts.get(name, 0) + 1
            else:
                self._idle_counts[name] = 0
                done += 1
        return done
