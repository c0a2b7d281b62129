"""Broker fabric: sharding, failover, batching, SLO burn, admission."""

import pytest

from repro.broker import DeliveryPolicy, MessageBroker
from repro.broker.autoscaler import FleetManager
from repro.broker.dashboard import Dashboard
from repro.cluster import FaultInjector, ManualClock
from repro.cluster.job import Job, JobKind
from repro.db import Database
from repro.fabric import (
    AdmissionController,
    AdmissionPolicy,
    AdmissionState,
    BrokerFabric,
    FabricConfig,
    SLOBurnMeter,
    SLOPolicy,
)
from repro.labs import get_lab
from repro.telemetry import QUEUE_WAIT_SECONDS, Telemetry

VECADD = get_lab("vector-add")
CUDA = frozenset({"cuda"})


def job_for(course="ece408", kind=JobKind.RUN_DATASET):
    return Job(lab=VECADD, source=VECADD.solution, kind=kind,
               course=course)


def make_fabric(num_shards=4, **kwargs):
    return BrokerFabric(num_shards=num_shards, **kwargs)


def drain(fabric, now=10.0):
    """Poll + ack everything currently deliverable; returns job ids."""
    done = []
    while True:
        polled = fabric.poll(CUDA, 1, now)
        if polled is None:
            break
        fabric.ack(polled[0].job_id, now=now)
        done.append(polled[0].job_id)
    return done


class TestRoutingAndDelivery:
    def test_same_course_lab_same_shard(self):
        fabric = make_fabric()
        shards = {fabric.publish(job_for("ece408"), 0.0)
                  for _ in range(10)}
        assert len(shards) == 1

    def test_courses_spread_across_shards(self):
        fabric = make_fabric()
        shards = {fabric.publish(job_for(f"course-{i}"), 0.0)
                  for i in range(40)}
        assert len(shards) > 1

    def test_poll_ack_roundtrip_any_shard(self):
        fabric = make_fabric()
        jobs = [job_for(f"course-{i}") for i in range(12)]
        for job in jobs:
            fabric.publish(job, 0.0)
        assert fabric.depth() == 12
        done = drain(fabric)
        assert sorted(done) == sorted(j.job_id for j in jobs)
        assert fabric.depth() == 0 and fabric.in_flight_count == 0

    def test_queue_view_aggregates_shards(self):
        fabric = make_fabric()
        for i in range(6):
            fabric.publish(job_for(f"course-{i}"), 0.0)
        view = fabric.queue
        assert len(view) == 6
        assert view.stats.enqueued == 6
        assert view.oldest_wait(5.0) == 5.0

    def test_nack_redelivers_dead_letters_after_max(self):
        fabric = make_fabric(
            policy=DeliveryPolicy(max_attempts=2, backoff_base_s=0.0))
        job = job_for()
        fabric.publish(job, 0.0)
        for attempt in range(2):
            polled = fabric.poll(CUDA, 1, float(attempt))
            assert polled is not None
            fabric.nack(job.job_id, float(attempt), reason="boom")
        assert fabric.poll(CUDA, 1, 10.0) is None
        assert fabric.dead_letter(job.job_id) is not None

    def test_mimics_message_broker_surface(self):
        fabric = make_fabric(num_shards=2)
        assert fabric.zones == ("shard-0", "shard-1")
        stats = fabric.replica_stats()
        assert all(entry["alive"] for entry in stats.values())
        assert fabric.next_wakeup(0.0) is None

    def test_deferred_publish_honors_delay(self):
        fabric = make_fabric()
        job = job_for()
        fabric.publish(job, 0.0, delay_s=60.0)
        assert fabric.poll(CUDA, 1, 30.0) is None
        assert fabric.next_wakeup(30.0) == 60.0
        assert fabric.poll(CUDA, 1, 61.0) is not None


class TestBatchedIO:
    def test_publish_batch_one_rpc_per_shard(self):
        fabric = make_fabric()
        jobs = [job_for(f"course-{i}") for i in range(30)]
        placed = fabric.publish_batch(jobs, 0.0)
        assert sum(placed.values()) == 30
        io = fabric.io_savings()["publish"]
        assert io["ops"] == 30
        assert io["rpcs"] == len(placed)
        assert io["saved"] == 30 - len(placed)

    def test_poll_batch_leases_many_in_one_rpc(self):
        fabric = make_fabric()
        fabric.publish_batch([job_for(f"c{i}") for i in range(8)], 0.0)
        polled = fabric.poll_batch(CUDA, 1, 1.0, max_jobs=8)
        assert len(polled) == 8
        io = fabric.io_savings()["poll"]
        assert io["ops"] == 8 and io["rpcs"] == 1

    def test_ack_batch_coalesces(self):
        fabric = make_fabric()
        fabric.publish_batch([job_for(f"c{i}") for i in range(6)], 0.0)
        polled = fabric.poll_batch(CUDA, 1, 1.0, max_jobs=6)
        acked = fabric.ack_batch([j.job_id for j, _ in polled], now=2.0)
        assert acked == 6
        io = fabric.io_savings()["ack"]
        assert io["ops"] == 6 and io["rpcs"] == 1

    def test_renew_one_rpc_per_shard(self):
        fabric = make_fabric()
        fabric.publish_batch([job_for(f"c{i}") for i in range(10)], 0.0)
        polled = fabric.poll_batch(CUDA, 1, 1.0, max_jobs=10)
        ids = [j.job_id for j, _ in polled]
        renewed = fabric.renew(ids, 2.0)
        assert renewed == 10
        io = fabric.io_savings()["renew"]
        assert io["ops"] == 10
        assert io["rpcs"] <= len(fabric.shards)
        assert io["saved"] >= 10 - len(fabric.shards)


class TestShardFailover:
    def test_waiting_jobs_survive_crash_in_fifo_order(self):
        fabric = make_fabric(num_shards=1)
        jobs = [job_for(f"c{i}") for i in range(5)]
        for t, job in enumerate(jobs):
            fabric.publish(job, float(t))
        report = fabric.crash_shard("shard-0", now=10.0)
        assert report.waiting == 5 and report.in_flight == 0
        assert fabric.depth() == 5
        polled = [fabric.poll(CUDA, 1, 20.0)[0].job_id for _ in range(5)]
        assert polled == [j.job_id for j in jobs]  # FIFO preserved

    def test_crash_preserves_enqueue_time(self):
        fabric = make_fabric(num_shards=1)
        fabric.publish(job_for(), 0.0)
        fabric.crash_shard("shard-0", now=50.0)
        _, wait = fabric.poll(CUDA, 1, 100.0)
        assert wait == 100.0  # measured from the original publish

    def test_leased_job_redelivered_exactly_once(self):
        fabric = make_fabric(num_shards=1)
        job = job_for()
        fabric.publish(job, 0.0)
        fabric.poll(CUDA, 1, 1.0, consumer="w1")
        assert job.delivery.attempts == 1
        report = fabric.crash_shard("shard-0", now=2.0)
        assert report.in_flight == 1
        # the in-flight delivery died with the primary: its attempt is
        # voided so infrastructure loss never walks the job to the DLQ
        polled = fabric.poll(CUDA, 1, 3.0, consumer="w2")
        assert polled is not None and polled[0].job_id == job.job_id
        assert job.delivery.attempts == 1
        failover = job.delivery.failures[-1]
        assert failover["counted"] is False
        assert "failover" in failover["reason"]
        assert fabric.ack(job.job_id, now=4.0)
        assert fabric.depth() == 0 and fabric.in_flight_count == 0

    def test_acked_jobs_gone_after_crash(self):
        fabric = make_fabric(num_shards=1)
        job = job_for()
        fabric.publish(job, 0.0)
        fabric.poll(CUDA, 1, 1.0)
        fabric.ack(job.job_id, now=2.0)
        report = fabric.crash_shard("shard-0", now=3.0)
        assert report.recovered == 0
        assert fabric.depth() == 0

    def test_dead_letters_carried_over(self):
        fabric = make_fabric(
            num_shards=1,
            policy=DeliveryPolicy(max_attempts=1, backoff_base_s=0.0))
        job = job_for()
        fabric.publish(job, 0.0)
        fabric.poll(CUDA, 1, 1.0)
        fabric.nack(job.job_id, 1.0, reason="poison")
        assert fabric.dead_letter(job.job_id) is not None
        fabric.crash_shard("shard-0", now=2.0)
        dead = fabric.dead_letter(job.job_id)
        assert dead is not None and dead.job.job_id == job.job_id

    def test_three_shard_crash_storm_loses_nothing(self):
        fabric = make_fabric(num_shards=3)
        jobs = [job_for(f"c{i}") for i in range(30)]
        fabric.publish_batch(jobs, 0.0)
        injector = FaultInjector(seed=7)
        done = []
        now = 1.0
        for name in ("shard-0", "shard-1", "shard-2"):
            # lease a few, then lose a shard mid-flight
            polled = fabric.poll_batch(CUDA, 1, now, max_jobs=4)
            injector.crash_shard(fabric, name, now)
            now += 1.0
            for job, _ in polled:
                # leases from a crashed shard are already re-seated;
                # acks for them miss (stale lease) — at-least-once says
                # redelivery wins, not the ghost of the old replica
                fabric.ack(job.job_id, now=now)
        while True:
            polled = fabric.poll(CUDA, 1, now)
            if polled is None:
                break
            fabric.ack(polled[0].job_id, now=now)
            done.append(polled[0].job_id)
            now += 0.1
        assert fabric.depth() == 0 and fabric.in_flight_count == 0
        assert not fabric.dead_letters()
        assert len(fabric.failovers) == 3
        assert injector.log.count(("crash_shard", "shard-0")) == 1

    def test_failover_counter_and_summary(self):
        fabric = make_fabric(num_shards=2)
        fabric.crash_shard("shard-1", now=0.0)
        summary = fabric.shard_summary()
        assert summary["shard-1"]["failovers"] == 1
        assert summary["shard-1"]["replica"] == "shard-1/r1"
        assert summary["shard-0"]["replica"] == "shard-0/r0"


class TestRebalancing:
    def test_add_shard_migrates_only_remapped_keys(self):
        fabric = make_fabric(num_shards=4)
        jobs = [job_for(f"c{i}") for i in range(60)]
        fabric.publish_batch(jobs, 0.0)
        moved = fabric.add_shard("shard-4", now=1.0)
        assert 0 < moved < 60 / 4 * 2.5  # ~K/(N+1), generous slack
        assert fabric.depth() == 60
        assert sorted(drain(fabric)) == sorted(j.job_id for j in jobs)

    def test_remove_shard_migrates_waiting_jobs(self):
        fabric = make_fabric(num_shards=4)
        jobs = [job_for(f"c{i}") for i in range(40)]
        fabric.publish_batch(jobs, 0.0)
        fabric.remove_shard("shard-2", now=1.0)
        assert "shard-2" not in fabric.shards
        assert fabric.depth() == 40
        assert sorted(drain(fabric)) == sorted(j.job_id for j in jobs)

    def test_remove_shard_drains_in_flight_lease(self):
        fabric = make_fabric(num_shards=2)
        # pin a job to a known shard, lease it, retire that shard
        job = next(j for j in (job_for(f"c{i}") for i in range(50))
                   if fabric.ring.shard_for(fabric.key_for(j)) == "shard-0")
        fabric.publish(job, 0.0)
        fabric.poll(CUDA, 1, 1.0, consumer="w1")
        fabric.remove_shard("shard-0", now=2.0)
        assert fabric.in_flight_count == 1
        # the retired queue stays addressable for the ack...
        assert fabric.ack(job.job_id, now=3.0)
        # ...and is dropped once its last lease resolves
        assert fabric.in_flight_count == 0
        assert not fabric._draining

    def test_expired_lease_on_retired_shard_reroutes(self):
        fabric = make_fabric(
            num_shards=2,
            policy=DeliveryPolicy(visibility_timeout_s=10.0,
                                  backoff_base_s=0.0))
        job = next(j for j in (job_for(f"c{i}") for i in range(50))
                   if fabric.ring.shard_for(fabric.key_for(j)) == "shard-0")
        fabric.publish(job, 0.0)
        fabric.poll(CUDA, 1, 0.0, consumer="doomed")
        fabric.remove_shard("shard-0", now=1.0)
        expired = fabric.expire_leases(20.0)
        assert [j.job_id for j in expired] == [job.job_id]
        # the job now lives on the surviving shard
        polled = fabric.poll(CUDA, 1, 30.0, consumer="w2")
        assert polled is not None and polled[0].job_id == job.job_id
        assert fabric.ack(job.job_id, now=31.0)
        assert not fabric._draining

    def test_cannot_remove_last_shard(self):
        fabric = make_fabric(num_shards=1)
        with pytest.raises(ValueError):
            fabric.remove_shard("shard-0", now=0.0)


class TestOneShardIsOneBroker:
    POLICY = DeliveryPolicy(visibility_timeout_s=10.0, max_attempts=3,
                            backoff_base_s=0.5)

    def replay(self, broker, crash):
        """30 jobs; the 4th delivery is nacked, the 9th is never
        acked (its lease expires) and the primary is lost while the
        25th is in flight. Returns what an observer can compare."""
        jobs = [job_for() for _ in range(30)]
        for t, job in enumerate(jobs):
            broker.publish(job, float(t))
        index = {job.job_id: i for i, job in enumerate(jobs)}
        order, stats, now = [], [], 30.0
        while broker.depth() or broker.in_flight_count:
            now += 1.0
            broker.expire_leases(now)
            polled = broker.poll(CUDA, 1, now, consumer=f"w{len(order) % 3}")
            if polled is None:
                continue
            job_id = polled[0].job_id
            order.append(index[job_id])
            if len(order) == 4:
                broker.nack(job_id, now, reason="boom")
            elif len(order) == 25:
                stats.append(broker.queue.stats)   # the lost primary's
                crash(now)
            elif len(order) != 9:
                broker.ack(job_id, now=now)
        histories = [(job.delivery.attempts, job.delivery.failures)
                     for job in jobs]
        return order, histories, stats + [broker.queue.stats]

    def test_same_script_same_delivery(self):
        broker = MessageBroker(name="shard-0", policy=self.POLICY)
        fabric = make_fabric(num_shards=1, policy=self.POLICY)
        assert all(type(shard) is MessageBroker
                   for shard in make_fabric(num_shards=3).shards.values())
        plain = self.replay(broker, broker.crash)
        ringed = self.replay(
            fabric, lambda now: fabric.crash_shard("shard-0", now))
        assert plain == ringed
        order, histories, (lost, promoted) = plain
        assert sorted(set(order)) == list(range(30))    # nothing lost
        assert len(order) == 33                         # three redeliveries
        assert (lost.nacked, lost.expired_leases, lost.acked) == (1, 1, 22)
        assert promoted.restored == promoted.acked == 8
        assert [a for a, _ in histories].count(2) == 2  # nack + expiry
        assert sum(f.get("counted") is False            # the voided one
                   for _, fs in histories for f in fs) == 1


class TestSLOBurnMeter:
    def _observe(self, telemetry, seconds, klass="grade", n=1):
        hist = telemetry.metrics.histogram(QUEUE_WAIT_SECONDS)
        for _ in range(n):
            hist.observe(seconds, klass=klass)

    def test_burn_is_p95_over_target(self):
        telemetry = Telemetry()
        meter = SLOBurnMeter(telemetry,
                             SLOPolicy(queue_wait_p95_slo_s=30.0))
        self._observe(telemetry, 60.0, n=20)
        sample = meter.sample(0.0)
        assert sample.observations == 20
        assert sample.burn >= 2.0  # log buckets round up

    def test_windowing_diffs_between_samples(self):
        telemetry = Telemetry()
        meter = SLOBurnMeter(telemetry, SLOPolicy())
        self._observe(telemetry, 100.0, n=10)
        meter.sample(0.0)
        # new window: only fast deliveries since the last sample
        self._observe(telemetry, 1.0, n=10)
        sample = meter.sample(10.0)
        assert sample.observations == 10
        assert sample.burn < 0.2

    def test_stalled_queue_uses_oldest_wait(self):
        telemetry = Telemetry()
        meter = SLOBurnMeter(telemetry,
                             SLOPolicy(queue_wait_p95_slo_s=30.0))
        sample = meter.sample(0.0, stalled_wait_s=90.0)
        assert sample.observations == 0
        assert sample.burn == pytest.approx(3.0)

    def test_excluded_classes_do_not_feed_burn(self):
        telemetry = Telemetry()
        meter = SLOBurnMeter(telemetry, SLOPolicy())
        self._observe(telemetry, 500.0, klass="preview", n=50)
        sample = meter.sample(0.0)
        assert sample.observations == 0 and sample.burn == 0.0

    def test_due_respects_interval(self):
        meter = SLOBurnMeter(Telemetry(),
                             SLOPolicy(sample_interval_s=5.0))
        assert meter.due(0.0)
        meter.sample(0.0)
        assert not meter.due(4.0)
        assert meter.due(5.0)

    def test_stall_proxy_decays_once_deliveries_resume(self):
        # regression: the raw oldest-job age used to floor the burn
        # signal for the entire drain (the oldest queued job stays old
        # until it is delivered), latching burn at storm level after
        # the fleet had already recovered
        telemetry = Telemetry()
        meter = SLOBurnMeter(telemetry,
                             SLOPolicy(queue_wait_p95_slo_s=30.0))
        stalled = meter.sample(0.0, stalled_wait_s=90.0)
        assert stalled.burn == pytest.approx(3.0)
        burns = []
        for t in (5.0, 10.0, 15.0):
            self._observe(telemetry, 1.0, n=5)
            # the backlog head is still ~as old as during the stall
            burns.append(meter.sample(t, stalled_wait_s=85.0).burn)
        # halves per delivering sample: 45 -> 22.5 -> 11.25 seconds
        assert burns == sorted(burns, reverse=True)
        assert burns[0] == pytest.approx(1.5)
        assert burns[-1] < 0.8  # under the admission recover threshold

    def test_stall_proxy_capped_by_live_backlog_age(self):
        telemetry = Telemetry()
        meter = SLOBurnMeter(telemetry,
                             SLOPolicy(queue_wait_p95_slo_s=30.0))
        meter.sample(0.0, stalled_wait_s=90.0)
        self._observe(telemetry, 1.0, n=5)
        # the old head already drained: only a 6s-old job remains, so
        # the decayed proxy (45s) must not outlive the real backlog
        sample = meter.sample(5.0, stalled_wait_s=6.0)
        assert sample.p95_s == pytest.approx(6.0)

    def test_recovery_reopens_admission(self):
        telemetry = Telemetry()
        meter = SLOBurnMeter(telemetry,
                             SLOPolicy(queue_wait_p95_slo_s=30.0))
        ctl = AdmissionController(AdmissionPolicy(), telemetry)
        burn = meter.sample(0.0, stalled_wait_s=120.0).burn
        assert ctl.observe_burn(burn, 0.0) is AdmissionState.SHEDDING
        # deliveries resume while the backlog head is still ancient;
        # the decaying proxy walks the ladder back down to OPEN
        state = ctl.state
        for t in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
            self._observe(telemetry, 1.0, n=5)
            burn = meter.sample(t, stalled_wait_s=119.0).burn
            state = ctl.observe_burn(burn, t)
        assert state is AdmissionState.OPEN

    def test_burn_gauge_exported(self):
        telemetry = Telemetry()
        meter = SLOBurnMeter(telemetry,
                             SLOPolicy(queue_wait_p95_slo_s=30.0))
        meter.sample(0.0, stalled_wait_s=60.0)
        gauge = telemetry.metrics.gauge("webgpu_slo_burn")
        assert gauge.value() == pytest.approx(2.0)


class TestAdmissionControl:
    def make(self, **kwargs):
        return AdmissionController(AdmissionPolicy(**kwargs), Telemetry())

    def test_policy_ordering_validated(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(defer_burn=2.0, shed_burn=1.0)

    def test_ladder_tightens_immediately(self):
        ctl = self.make()
        assert ctl.observe_burn(1.5, 0.0) is AdmissionState.DEFERRING
        assert ctl.observe_burn(2.5, 1.0) is AdmissionState.SHEDDING

    def test_hysteresis_one_rung_per_sample(self):
        ctl = self.make()
        ctl.observe_burn(3.0, 0.0)
        # back under the defer threshold, but not under recover: hold
        assert ctl.observe_burn(0.9, 1.0) is AdmissionState.SHEDDING
        assert ctl.observe_burn(0.5, 2.0) is AdmissionState.DEFERRING
        assert ctl.observe_burn(0.5, 3.0) is AdmissionState.OPEN

    def test_grading_never_shed_or_deferred(self):
        ctl = self.make()
        ctl.observe_burn(10.0, 0.0)
        decision = ctl.decide(job_for(kind=JobKind.FULL_GRADING), 0.0)
        assert decision.action == "admit"

    def test_preview_shed_when_shedding(self):
        ctl = self.make()
        ctl.observe_burn(2.5, 0.0)
        decision = ctl.decide(job_for(kind=JobKind.COMPILE_ONLY), 0.0)
        assert decision.action == "shed" and not decision.admitted

    def test_run_deferred_then_shed_at_extreme_burn(self):
        ctl = self.make()
        ctl.observe_burn(2.5, 0.0)
        mild = ctl.decide(job_for(kind=JobKind.RUN_DATASET), 0.0)
        assert mild.action == "defer" and mild.delay_s > 0
        ctl.observe_burn(5.0, 1.0)
        extreme = ctl.decide(job_for(kind=JobKind.RUN_DATASET), 1.0)
        assert extreme.action == "shed"

    def test_deferring_delays_by_class(self):
        ctl = self.make(run_defer_s=30.0, preview_defer_s=120.0)
        ctl.observe_burn(1.5, 0.0)
        run = ctl.decide(job_for(kind=JobKind.RUN_DATASET), 0.0)
        preview = ctl.decide(job_for(kind=JobKind.COMPILE_ONLY), 0.0)
        assert run.delay_s == 30.0 and preview.delay_s == 120.0

    def test_snapshot_counts_decisions(self):
        ctl = self.make()
        ctl.decide(job_for(), 0.0)
        ctl.observe_burn(1.5, 0.0)
        ctl.decide(job_for(), 1.0)
        snap = ctl.snapshot()
        assert snap["state"] == "deferring"
        assert snap["admitted"] == 1 and snap["deferred"] == 1

    def test_fabric_admit_wires_meter_to_controller(self):
        fabric = make_fabric(slo=SLOPolicy(queue_wait_p95_slo_s=30.0,
                                           sample_interval_s=0.0))
        # a stalled backlog: publish and never drain, then admit
        fabric.publish(job_for("c-old"), 0.0)
        decision = fabric.admit(job_for(kind=JobKind.COMPILE_ONLY),
                                now=200.0)
        # 200s oldest wait vs 30s SLO -> burn ~6.7 -> shedding
        assert decision.action == "shed"
        assert fabric.admission.state is AdmissionState.SHEDDING


class TestSLOFleetManager:
    class _StubWorker:
        def __init__(self, name):
            self.name = name

    class _StubDriver:
        def __init__(self, name):
            self.worker = TestSLOFleetManager._StubWorker(name)

    def make_manager(self, broker, clock, **kwargs):
        counter = iter(range(100))
        spawn = lambda: self._StubDriver(f"w{next(counter)}")  # noqa: E731
        return FleetManager(broker, clock, spawn, lambda d: None,
                            min_workers=1, max_workers=16, **kwargs)

    def test_burning_slo_scales_multiplicatively(self):
        clock = ManualClock()
        broker = MessageBroker(telemetry=Telemetry(clock=clock))
        manager = self.make_manager(
            broker, clock,
            slo=SLOPolicy(queue_wait_p95_slo_s=30.0, sample_interval_s=0.0))
        for _ in range(4):
            manager.adopt(self._StubDriver("seed"))
        hist = broker.telemetry.metrics.histogram(QUEUE_WAIT_SECONDS)
        for _ in range(20):
            hist.observe(120.0, klass="grade")
        event = manager.evaluate()
        assert event is not None and event.action == "add"
        # burn ~4x, capped step factor 2.0: 4 -> 8 in one decision
        assert manager.size == 8
        assert "burn" in event.reason

    def test_recovered_slo_scales_down_additively(self):
        clock = ManualClock()
        broker = MessageBroker(telemetry=Telemetry(clock=clock))
        manager = self.make_manager(
            broker, clock,
            slo=SLOPolicy(queue_wait_p95_slo_s=30.0, sample_interval_s=0.0),
            idle_polls_before_retire=0, cooldown_s=0.0)
        for i in range(4):
            manager.adopt(self._StubDriver(f"seed{i}"))
        event = manager.evaluate()  # burn 0.0 < scale_down 0.5
        assert event is not None and event.action == "remove"
        assert manager.size == 3

    def test_burn_feeds_admission_controller(self):
        clock = ManualClock()
        fabric = make_fabric(slo=SLOPolicy(queue_wait_p95_slo_s=30.0,
                                           sample_interval_s=0.0))
        fabric.telemetry.clock = clock
        manager = self.make_manager(fabric, clock,
                                    slo=SLOPolicy(sample_interval_s=0.0))
        assert manager.admission is fabric.admission
        hist = fabric.telemetry.metrics.histogram(QUEUE_WAIT_SECONDS)
        for _ in range(20):
            hist.observe(120.0, klass="grade")
        manager.evaluate()
        assert fabric.admission.state is not AdmissionState.OPEN


class TestFabricDashboard:
    def test_shard_and_admission_panels(self):
        fabric = make_fabric(num_shards=2)
        fabric.publish(job_for(), 0.0)
        fabric.slo.sample(0.0, stalled_wait_s=60.0)
        dash = Dashboard(Database("metrics"), fabric)
        text = dash.render()
        assert "shards:" in text
        assert "shard-0" in text and "shard-1" in text
        assert "round-trips saved" in text
        assert "burn" in text
        assert "admission: OPEN" in text

    def test_plain_broker_has_no_fabric_panels(self):
        broker = MessageBroker()
        dash = Dashboard(Database("metrics"), broker)
        snap = dash.snapshot()
        assert "fabric" not in snap and "slo" not in snap
