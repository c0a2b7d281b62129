"""Broker (v2): queue tag matching, replication, containers, driver."""

from functools import partial

import pytest

from repro.broker import (
    BrokerUnavailable,
    ConfigServer,
    ContainerPool,
    Dashboard,
    DeliveryPolicy,
    JobQueue,
    MessageBroker,
    WorkerDriver,
)
from repro.broker.containers import (
    CONTAINER_START_S,
    CUDA_IMAGE,
    OPENCL_IMAGE,
    OPENACC_IMAGE,
)
from repro.cluster import (
    FaultInjector,
    GpuWorker,
    ManualClock,
    PlatformCaches,
    WorkerConfig,
)
from repro.cluster.job import Job
from repro.db import Database
from repro.fabric import BrokerFabric
from repro.labs import get_lab

VECADD = get_lab("vector-add")
OPENCL = get_lab("opencl-vecadd")
MPI = get_lab("mpi-stencil")


def job_for(lab):
    return Job(lab=lab, source=lab.solution)


class TestJobQueue:
    def test_fifo_for_matching_consumer(self):
        q = JobQueue()
        a, b = job_for(VECADD), job_for(VECADD)
        q.publish(a, now=0.0)
        q.publish(b, now=1.0)
        got, wait = q.poll(frozenset({"cuda"}), 1, now=5.0)
        assert got is a and wait == 5.0

    def test_tagged_job_skipped_by_incapable_worker(self):
        q = JobQueue()
        q.publish(job_for(MPI), now=0.0)
        q.publish(job_for(VECADD), now=1.0)
        got, _ = q.poll(frozenset({"cuda"}), 1, now=2.0)
        assert got.lab.slug == "vector-add"
        assert len(q) == 1  # the MPI job is still waiting

    def test_capable_worker_takes_tagged_job_first(self):
        q = JobQueue()
        q.publish(job_for(MPI), now=0.0)
        q.publish(job_for(VECADD), now=1.0)
        got, _ = q.poll(frozenset({"cuda", "mpi"}), 4, now=2.0)
        assert got.lab.slug == "mpi-stencil"

    def test_multi_gpu_gate(self):
        q = JobQueue()
        q.publish(job_for(MPI), now=0.0)
        assert q.poll(frozenset({"cuda", "mpi"}), 1, now=1.0) is None
        assert q.poll(frozenset({"cuda", "mpi"}), 4, now=1.0) is not None

    def test_empty_poll_counted(self):
        q = JobQueue()
        assert q.poll(frozenset({"cuda"}), 1, now=0.0) is None
        assert q.stats.rejected_polls == 1

    def test_oldest_wait(self):
        q = JobQueue()
        assert q.oldest_wait(now=10.0) == 0.0
        q.publish(job_for(VECADD), now=3.0)
        assert q.oldest_wait(now=10.0) == 7.0


class TestAtLeastOnceDelivery:
    POLICY = DeliveryPolicy(visibility_timeout_s=10.0, max_attempts=3,
                            backoff_base_s=0.5, backoff_cap_s=30.0)

    def queue(self):
        return JobQueue(policy=self.POLICY)

    def test_poll_leases_instead_of_deleting(self):
        q = self.queue()
        job = job_for(VECADD)
        q.publish(job, now=0.0)
        got, _ = q.poll(frozenset({"cuda"}), 1, now=1.0, consumer="w1")
        assert got is job
        assert len(q) == 0                 # not waiting any more...
        assert q.in_flight_count == 1      # ...but tracked in flight
        assert job.delivery.attempts == 1

    def test_ack_retires_lease(self):
        q = self.queue()
        job = job_for(VECADD)
        q.publish(job, now=0.0)
        q.poll(frozenset({"cuda"}), 1, now=0.0)
        assert q.ack(job.job_id)
        assert q.in_flight_count == 0
        assert q.stats.acked == 1
        assert not q.ack(job.job_id)  # double-ack is a no-op

    def test_nack_redelivers_after_backoff(self):
        q = self.queue()
        job = job_for(VECADD)
        q.publish(job, now=0.0)
        q.poll(frozenset({"cuda"}), 1, now=0.0)
        assert q.nack(job.job_id, now=1.0, reason="boom")
        assert len(q) == 1 and q.in_flight_count == 0
        # still inside the backoff window: not pollable
        assert q.poll(frozenset({"cuda"}), 1, now=1.1) is None
        got, wait = q.poll(frozenset({"cuda"}), 1, now=2.0)
        assert got is job
        assert wait == 2.0  # queue wait measured from the original publish
        assert job.delivery.attempts == 2
        assert job.delivery.redeliveries == 1
        assert job.delivery.failures[0]["reason"] == "boom"
        assert job.delivery.failures[0]["backoff_s"] == 0.5

    def test_lease_expiry_redelivers_crashed_consumers_job(self):
        q = self.queue()
        job = job_for(VECADD)
        q.publish(job, now=0.0)
        q.poll(frozenset({"cuda"}), 1, now=0.0, consumer="doomed")
        assert q.expire_leases(now=5.0) == []      # lease still live
        expired = q.expire_leases(now=10.0)
        assert expired == [job]
        assert q.stats.expired_leases == 1
        assert "doomed" in job.delivery.failures[0]["reason"]
        # redelivered to the next matching consumer after the backoff
        got, _ = q.poll(frozenset({"cuda"}), 1, now=11.0, consumer="w2")
        assert got is job and job.delivery.redeliveries == 1

    def test_poison_job_dead_letters_after_max_attempts(self):
        q = self.queue()
        job = job_for(VECADD)
        q.publish(job, now=0.0)
        now = 0.0
        for _ in range(self.POLICY.max_attempts):
            polled = q.poll(frozenset({"cuda"}), 1, now=now)
            assert polled is not None
            q.nack(job.job_id, now=now, reason="segfault")
            now += 60.0  # well past any backoff
        assert job.delivery.attempts == self.POLICY.max_attempts
        assert len(q) == 0 and q.in_flight_count == 0
        dead = q.dead_letter(job.job_id)
        assert dead is not None and dead.job is job
        assert q.stats.dead_lettered == 1
        # failure history: one record per attempt, backoffs doubling
        assert len(dead.failures) == 3
        assert [f.get("backoff_s") for f in dead.failures[:2]] == [0.5, 1.0]
        assert dead.failures[-1]["dead_lettered"] is True
        # a dead-lettered job is never polled again
        assert q.poll(frozenset({"cuda"}), 1, now=now + 100.0) is None

    def test_backoff_grows_exponentially_and_caps(self):
        policy = DeliveryPolicy(backoff_base_s=1.0, backoff_cap_s=8.0)
        assert [policy.backoff_for(n) for n in (1, 2, 3, 4, 5)] == \
            [1.0, 2.0, 4.0, 8.0, 8.0]

    def test_cancel_removes_waiting_job(self):
        q = self.queue()
        job = job_for(MPI)
        q.publish(job, now=0.0)
        assert q.cancel(job.job_id)
        assert len(q) == 0 and q.stats.cancelled == 1
        assert not q.cancel(job.job_id)

    def test_next_wakeup_tracks_leases_and_backoffs(self):
        q = self.queue()
        assert q.next_wakeup(now=0.0) is None
        a, b = job_for(VECADD), job_for(VECADD)
        q.publish(a, now=0.0)
        q.publish(b, now=0.0)
        q.poll(frozenset({"cuda"}), 1, now=0.0)       # lease ends at 10
        assert q.next_wakeup(now=0.0) == 10.0
        q.poll(frozenset({"cuda"}), 1, now=0.0)
        q.nack(b.job_id, now=0.0)                     # backoff ends at 0.5
        assert q.next_wakeup(now=0.0) == 0.5

    def test_redelivered_job_keeps_fifo_position(self):
        q = self.queue()
        first, second = job_for(VECADD), job_for(VECADD)
        q.publish(first, now=0.0)
        q.publish(second, now=1.0)
        q.poll(frozenset({"cuda"}), 1, now=2.0)
        q.nack(first.job_id, now=2.0)
        # after the backoff the redelivered job is still ahead of the
        # younger one (original enqueue time is kept)
        got, _ = q.poll(frozenset({"cuda"}), 1, now=3.0)
        assert got is first


class TestBrokerReplication:
    def test_publish_via_zone(self):
        broker = MessageBroker(zones=("a", "b"))
        assert broker.publish(job_for(VECADD), 0.0, zone="b") == "b"
        assert broker.depth() == 1

    def test_failover_loses_no_jobs(self):
        broker = MessageBroker(zones=("a", "b"))
        broker.publish(job_for(VECADD), 0.0, zone="a")
        broker.fail_zone("a")
        accepted = broker.publish(job_for(VECADD), 1.0, zone="a")
        assert accepted == "b"
        assert broker.failovers == 1
        assert broker.depth() == 2  # both jobs present

    def test_all_zones_down(self):
        broker = MessageBroker(zones=("a",))
        broker.fail_zone("a")
        with pytest.raises(RuntimeError):
            broker.publish(job_for(VECADD), 0.0)

    def test_restore_zone(self):
        broker = MessageBroker(zones=("a", "b"))
        broker.fail_zone("a")
        broker.restore_zone("a")
        assert broker.publish(job_for(VECADD), 0.0, zone="a") == "a"

    def test_unknown_zone_is_routed_not_counted_as_failover(self):
        broker = MessageBroker(zones=("a", "b"))
        assert broker.publish(job_for(VECADD), 0.0, zone="nowhere") == "a"
        assert broker.failovers == 0   # nothing failed; plain routing
        broker.fail_zone("a")
        assert broker.publish(job_for(VECADD), 1.0, zone="a") == "b"
        assert broker.failovers == 1   # a known-but-down zone is one

    def test_driver_counts_an_unreachable_broker_as_an_empty_poll(self):
        clock = ManualClock()
        broker = MessageBroker(zones=("a", "b"))
        driver = WorkerDriver(GpuWorker(WorkerConfig(), clock=clock), broker,
                              ContainerPool([CUDA_IMAGE]), ConfigServer(),
                              Database("metrics"), clock=clock, zone="a")
        broker.publish(job_for(VECADD), clock.now())
        broker.fail_zone("a")
        broker.fail_zone("b")
        with pytest.raises(BrokerUnavailable):
            broker.poll(frozenset({"cuda"}), 1, clock.now())
        assert driver.step() is None
        assert driver.step_batch(max_jobs=4) == []
        assert driver.stats.empty_polls == 2
        broker.restore_zone("b")
        assert driver.step() is not None   # the job was never lost


class TestBrokerFailover:
    """The mirrored standby behind one bare broker (the fabric's
    TestShardFailover cases without a ring in front)."""

    CUDA = frozenset({"cuda"})

    def test_waiting_jobs_survive_crash_in_fifo_order(self):
        broker = MessageBroker()
        jobs = [job_for(VECADD) for _ in range(5)]
        for t, job in enumerate(jobs):
            broker.publish(job, float(t))
        report = broker.crash(now=10.0)
        assert report.waiting == 5 and report.in_flight == 0
        assert report.promoted_replica == "jobs/r1"
        assert broker.depth() == 5
        polled = [broker.poll(self.CUDA, 1, 20.0)[0] for _ in range(5)]
        assert polled == jobs  # FIFO preserved

    def test_crash_preserves_enqueue_time(self):
        broker = MessageBroker()
        broker.publish(job_for(VECADD), 0.0)
        broker.crash(now=50.0)
        _, wait = broker.poll(self.CUDA, 1, 100.0)
        assert wait == 100.0  # measured from the original publish

    def test_leased_job_redelivered_exactly_once(self):
        broker = MessageBroker()
        job = job_for(VECADD)
        broker.publish(job, 0.0)
        broker.poll(self.CUDA, 1, 1.0, consumer="w1")
        assert job.delivery.attempts == 1
        assert broker.crash(now=2.0).in_flight == 1
        # the stale lease died with the primary: its ack misses
        assert not broker.ack(job.job_id, now=2.5)
        polled = broker.poll(self.CUDA, 1, 3.0, consumer="w2")
        assert polled is not None and polled[0] is job
        assert job.delivery.attempts == 1  # the lost attempt was voided
        failover = job.delivery.failures[-1]
        assert failover["counted"] is False
        assert "failover" in failover["reason"]
        assert broker.ack(job.job_id, now=4.0)
        assert broker.depth() == 0 and broker.in_flight_count == 0

    def test_acked_jobs_gone_after_crash(self):
        broker = MessageBroker()
        job = job_for(VECADD)
        broker.publish(job, 0.0)
        broker.poll(self.CUDA, 1, 1.0)
        broker.ack(job.job_id, now=2.0)
        assert broker.crash(now=3.0).recovered == 0
        assert broker.depth() == 0

    def test_dead_letters_carried_over(self):
        broker = MessageBroker(
            policy=DeliveryPolicy(max_attempts=1, backoff_base_s=0.0))
        job = job_for(VECADD)
        broker.publish(job, 0.0)
        broker.poll(self.CUDA, 1, 1.0)
        broker.nack(job.job_id, 1.0, reason="poison")
        assert broker.crash(now=2.0).dead == 1
        dead = broker.dead_letter(job.job_id)
        assert dead is not None and dead.job is job

    def test_zone_failure_and_crash_together_lose_nothing(self):
        broker = MessageBroker(zones=("a", "b"))
        jobs = [job_for(VECADD) for _ in range(4)]
        broker.publish(jobs[0], 0.0, zone="a")
        broker.poll(self.CUDA, 1, 0.5, zone="a", consumer="w1")
        broker.fail_zone("a")
        for t, job in enumerate(jobs[1:], start=1):
            assert broker.publish(job, float(t), zone="a") == "b"
        broker.crash(now=5.0)
        done = []
        while (polled := broker.poll(self.CUDA, 1, 6.0, zone="a")):
            broker.ack(polled[0].job_id, now=6.0)
            done.append(polled[0])
        assert done == jobs
        assert broker.depth() == 0 and broker.in_flight_count == 0
        assert broker.snapshot()["failovers"] == 1  # one promotion
        assert broker.failovers == 8    # 3 publishes + 5 polls rerouted


class TestContainerPool:
    def test_prestart_fills_warm_pool(self):
        pool = ContainerPool([CUDA_IMAGE, OPENCL_IMAGE], warm_per_image=2)
        cost = pool.prestart()
        assert cost == pytest.approx(4 * CONTAINER_START_S)
        assert pool.stats()["warm_available"] == 4

    def test_warm_hit_is_free(self):
        pool = ContainerPool([CUDA_IMAGE])
        pool.prestart()
        container, cost = pool.acquire("cuda")
        assert cost == 0.0
        assert pool.warm_hits == 1

    def test_cold_start_costs(self):
        pool = ContainerPool([CUDA_IMAGE], warm_per_image=0)
        _, cost = pool.acquire("cuda")
        assert cost == pytest.approx(CONTAINER_START_S)
        assert pool.cold_starts == 1

    def test_release_deletes_and_replenishes(self):
        """Paper: "we can delete a container after a job completes and
        start a new container to replenish the pool"."""
        pool = ContainerPool([CUDA_IMAGE], warm_per_image=1)
        pool.prestart()
        container, _ = pool.acquire("cuda")
        pool.release(container)
        stats = pool.stats()
        assert stats["deleted"] == 1
        assert stats["replenishments"] == 1
        assert stats["warm_available"] == 1
        assert container.dirty

    def test_language_to_image_selection(self):
        pool = ContainerPool([CUDA_IMAGE, OPENACC_IMAGE])
        assert pool.image_for("openacc").name.startswith("webgpu/pgi")
        assert pool.image_for("cuda-mpi") is CUDA_IMAGE

    def test_unknown_language_raises(self):
        pool = ContainerPool([CUDA_IMAGE])
        with pytest.raises(LookupError):
            pool.acquire("fortran")

    def test_gpu_slots_round_robin(self):
        pool = ContainerPool([CUDA_IMAGE], num_gpus=2, warm_per_image=4)
        pool.prestart()
        slots = {c.gpu_slot for c in pool._warm[CUDA_IMAGE.name]}
        assert slots == {0, 1}


class TestConfigServer:
    def test_versioning(self):
        server = ConfigServer()
        assert server.version == 1
        server.update(poll_interval_s=5.0)
        assert server.version == 2
        assert server.current.poll_interval_s == 5.0

    def test_fetch_if_newer(self):
        server = ConfigServer()
        assert server.fetch_if_newer(1) is None
        server.update(health_interval_s=60.0)
        assert server.fetch_if_newer(1).version == 2


class TestWorkerDriver:
    #: builds the broker under test (TestWorkerDriverOnFabric swaps it)
    new_broker = staticmethod(MessageBroker)

    def make_driver(self, clock, tags=frozenset({"cuda"}), num_gpus=1,
                    images=(CUDA_IMAGE,), broker=None, db=None, cfg=None):
        broker = broker or self.new_broker()
        db = db or Database("metrics")
        cfg = cfg or ConfigServer()
        worker = GpuWorker(WorkerConfig(tags=tags, num_gpus=num_gpus),
                           clock=clock)
        return WorkerDriver(worker, broker, ContainerPool(list(images)),
                            cfg, db, clock=clock), broker, db, cfg

    def test_pull_loop_processes_job(self):
        clock = ManualClock()
        driver, broker, db, _ = self.make_driver(clock)
        broker.publish(job_for(VECADD), clock.now())
        result = driver.step()
        assert result is not None and result.all_correct
        assert result.extra["container"].startswith("cuda")
        assert db.count("worker_metrics") >= 1

    def test_empty_queue_returns_none(self):
        clock = ManualClock()
        driver, _, _, _ = self.make_driver(clock)
        assert driver.step() is None
        assert driver.stats.empty_polls == 1

    def test_capabilities_include_container_toolchains(self):
        clock = ManualClock()
        driver, _, _, _ = self.make_driver(
            clock, images=(CUDA_IMAGE, OPENCL_IMAGE))
        assert "opencl" in driver.capabilities

    def test_config_change_restarts_driver(self):
        clock = ManualClock()
        driver, broker, _, cfg = self.make_driver(clock)
        cfg.update(warm_containers_per_image=3)
        driver.step()
        assert driver.stats.restarts == 1
        assert driver.config.version == 2
        assert driver.containers.warm_per_image == 3

    def test_dead_worker_does_not_pull(self):
        clock = ManualClock()
        driver, broker, _, _ = self.make_driver(clock)
        broker.publish(job_for(VECADD), clock.now())
        driver.worker.crash()
        assert driver.step() is None
        assert broker.depth() == 1  # job untouched for healthy workers

    def test_drain(self):
        clock = ManualClock()
        driver, broker, _, _ = self.make_driver(clock)
        for _ in range(3):
            broker.publish(job_for(VECADD), clock.now())
        results = driver.drain()
        assert len(results) == 3

    def test_successful_job_acks_its_lease(self):
        clock = ManualClock()
        driver, broker, _, _ = self.make_driver(clock)
        broker.publish(job_for(VECADD), clock.now())
        result = driver.step()
        assert result is not None
        assert broker.in_flight_count == 0
        assert broker.queue.stats.acked == 1
        assert driver.stats.acks == 1
        assert result.extra["attempts"] == 1
        assert result.extra["redeliveries"] == 0

    def test_crash_mid_job_redelivered_to_second_worker(self):
        clock = ManualClock()
        broker = self.new_broker(
            policy=DeliveryPolicy(visibility_timeout_s=10.0,
                                  backoff_base_s=0.5))
        db = Database("metrics")
        d1, _, _, _ = self.make_driver(clock, broker=broker, db=db)
        d2, _, _, _ = self.make_driver(clock, broker=broker, db=db)
        job = job_for(VECADD)
        broker.publish(job, clock.now())

        FaultInjector().crash_mid_job(d1.worker)
        assert d1.step() is None           # died holding the job
        assert not d1.worker.alive
        assert d1.stats.crashes == 1
        assert broker.in_flight_count == 1  # lease survives the crash
        assert broker.depth() == 0

        clock.advance(11.0)                 # past the visibility timeout
        assert broker.expire_leases(clock.now()) == [job]
        clock.advance(1.0)                  # past the redelivery backoff
        result = d2.step()
        assert result is not None and result.all_correct
        assert result.worker_name == d2.worker.name
        assert result.extra["redeliveries"] == 1
        assert job.delivery.failures[0]["consumer"] == d1.worker.name
        assert broker.in_flight_count == 0

    def test_wedge_mid_job_silent_node_loses_its_lease(self):
        clock = ManualClock()
        broker = self.new_broker(
            policy=DeliveryPolicy(visibility_timeout_s=10.0,
                                  backoff_base_s=0.5))
        db = Database("metrics")
        d1, _, _, _ = self.make_driver(clock, broker=broker, db=db)
        d2, _, _, _ = self.make_driver(clock, broker=broker, db=db)
        job = job_for(VECADD)
        broker.publish(job, clock.now())

        FaultInjector().wedge_mid_job(d1.worker)
        assert d1.step() is None
        assert d1.worker.alive and d1.worker.wedged
        assert d1.worker.heartbeat() is None   # silent: eviction scenario
        assert broker.in_flight_count == 1
        polls_before = d1.stats.polls
        assert d1.step() is None               # a stuck node stops polling
        assert d1.stats.polls == polls_before

        clock.advance(11.0)
        broker.expire_leases(clock.now())
        clock.advance(1.0)
        result = d2.step()
        assert result is not None and result.all_correct
        assert result.extra["redeliveries"] == 1

    def test_crash_mid_job_abandons_cache_flight(self):
        """A redelivered job whose first owner died must become a fresh
        single-flight owner, not a joiner of a dead computation."""
        clock = ManualClock()
        caches = PlatformCaches(clock=clock)
        broker = self.new_broker(
            policy=DeliveryPolicy(visibility_timeout_s=10.0,
                                  backoff_base_s=0.5))
        db = Database("metrics")
        cfg = ConfigServer()

        def cached_driver():
            worker = GpuWorker(WorkerConfig(), clock=clock)
            return WorkerDriver(worker, broker,
                                ContainerPool([CUDA_IMAGE]), cfg, db,
                                clock=clock, result_cache=caches.results)

        d1, d2 = cached_driver(), cached_driver()
        job = job_for(VECADD)
        broker.publish(job, clock.now())
        FaultInjector().crash_mid_job(d1.worker)
        assert d1.step() is None
        assert caches.results.memo.inflight_count == 0  # flight abandoned

        clock.advance(11.0)
        broker.expire_leases(clock.now())
        clock.advance(1.0)
        result = d2.step()
        assert result is not None and result.all_correct
        assert caches.results.stats.dedup_hits == 0  # owner, not joiner
        assert len(caches.results) == 1              # result was memoized

    def test_dashboard_shows_delivery_gauges(self):
        clock = ManualClock()
        broker = self.new_broker(
            policy=DeliveryPolicy(visibility_timeout_s=10.0,
                                  backoff_base_s=0.5, max_attempts=2))
        db = Database("metrics")
        d1, _, _, _ = self.make_driver(clock, broker=broker, db=db)
        d2, _, _, _ = self.make_driver(clock, broker=broker, db=db)
        job = job_for(VECADD)
        broker.publish(job, clock.now())
        FaultInjector().crash_mid_job(d1.worker)
        d1.step()
        dashboard = Dashboard(db, broker)
        assert dashboard.snapshot()["delivery"]["in_flight"] == 1

        clock.advance(11.0)
        broker.expire_leases(clock.now())
        clock.advance(1.0)
        d2.step()
        snap = dashboard.snapshot()["delivery"]
        assert snap["in_flight"] == 0
        assert snap["redelivered"] == 1
        assert snap["expired_leases"] == 1
        assert snap["acked"] == 1
        assert "redelivered" in dashboard.render()

    def test_dashboard_renders_fleet(self):
        clock = ManualClock()
        driver, broker, db, _ = self.make_driver(clock)
        broker.publish(job_for(VECADD), clock.now())
        driver.step()
        driver.health_check()
        dashboard = Dashboard(db, broker)
        text = dashboard.render()
        assert "dashboard" in text
        assert driver.worker.name in text
        snap = dashboard.snapshot()
        assert snap["queue_depth"] == 0
        assert driver.worker.name in snap["last_heartbeat"]


class TestWorkerDriverOnFabric(TestWorkerDriver):
    """Every driver case again with a ring in front of the broker."""

    @pytest.fixture(autouse=True, params=[1, 3],
                    ids=["one-shard", "three-shards"])
    def fabric_broker(self, request):
        self.new_broker = partial(BrokerFabric, num_shards=request.param)
