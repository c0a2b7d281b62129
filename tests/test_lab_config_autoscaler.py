"""Lab JSON deployment format and v2 automatic fleet scaling."""

import json

import numpy as np
import pytest

from repro.broker import (
    ConfigServer,
    ContainerPool,
    FleetManager,
    MessageBroker,
    WorkerDriver,
)
from repro.broker.containers import CUDA_IMAGE
from repro.cluster import GpuWorker, ManualClock, WorkerConfig
from repro.cluster.job import Job, JobKind
from repro.db import Database
from repro.labs import ALL_LABS, execute_lab_source, get_lab
from repro.labs.config import (
    deploy_lab,
    lab_config_json,
    lab_from_config,
    load_dataset_arrays,
    load_lab,
)
from repro.storage import ObjectStore

VECADD = get_lab("vector-add")


class TestLabConfigJson:
    def test_config_has_the_paper_fields(self):
        config = json.loads(lab_config_json(VECADD))
        # §IV-E: deadline, how to award points, the name of the lab
        assert config["name"] == "Vector Addition"
        assert "deadline" in config
        assert config["points"]["datasets"] == 80
        assert config["limits"]["run_seconds"] == 60.0

    @pytest.mark.parametrize("lab", ALL_LABS, ids=lambda lab: lab.slug)
    def test_roundtrip_every_lab(self, lab):
        rebuilt = lab_from_config(lab_config_json(lab), lab.description,
                                  lab.skeleton, lab.solution)
        assert rebuilt == lab

    def test_deploy_and_load_from_bucket(self):
        bucket = ObjectStore().create_bucket("webgpu-labs")
        keys = deploy_lab(bucket, VECADD)
        assert f"labs/{VECADD.slug}/config.json" in keys
        rebuilt = load_lab(bucket, VECADD.slug)
        assert rebuilt == VECADD

    def test_deployed_datasets_grade_identically(self):
        bucket = ObjectStore().create_bucket("webgpu-labs")
        deploy_lab(bucket, VECADD, base_seed=1234)
        arrays = load_dataset_arrays(bucket, VECADD.slug, 1)
        local = VECADD.dataset(1, base_seed=1234)
        assert np.array_equal(arrays["expected"], local.expected)
        assert np.array_equal(arrays["input0"], local.inputs["input0"])

    def test_rebuilt_lab_still_grades(self):
        bucket = ObjectStore().create_bucket("webgpu-labs")
        deploy_lab(bucket, VECADD)
        rebuilt = load_lab(bucket, VECADD.slug)
        result = execute_lab_source(rebuilt, rebuilt.solution,
                                    rebuilt.dataset(0))
        assert result.passed


class TestFleetManager:
    #: a backlog this old with nothing delivered burns the default
    #: 30 s queue-wait SLO twice over
    STALLED_S = 60.0

    def make_manager(self, clock, broker, **kwargs):
        db = Database("metrics")
        cfg = ConfigServer()
        counter = [0]

        def spawn():
            counter[0] += 1
            worker = GpuWorker(WorkerConfig(), clock=clock,
                               name=f"auto{counter[0]}")
            return WorkerDriver(worker, broker, ContainerPool([CUDA_IMAGE]),
                                cfg, db, clock=clock)

        retired = []
        manager = FleetManager(broker, clock, spawn=spawn,
                               retire=retired.append, **kwargs)
        manager.adopt(spawn())
        return manager, retired

    def test_scales_up_on_queue_depth(self):
        clock = ManualClock()
        broker = MessageBroker()
        manager, _ = self.make_manager(clock, broker, cooldown_s=0.0)
        for _ in range(6):
            broker.publish(Job(lab=VECADD, source=VECADD.solution,
                               kind=JobKind.COMPILE_ONLY), clock.now())
        assert manager.evaluate() is None  # queued this instant: no burn
        clock.advance(self.STALLED_S)  # nothing delivered since
        event = manager.evaluate()
        assert event is not None and event.action == "add"
        assert manager.size == 2

    def test_cooldown_limits_thrash(self):
        clock = ManualClock()
        broker = MessageBroker()
        manager, _ = self.make_manager(clock, broker, cooldown_s=300.0)
        for _ in range(10):
            broker.publish(Job(lab=VECADD, source=VECADD.solution,
                               kind=JobKind.COMPILE_ONLY), clock.now())
        clock.advance(self.STALLED_S)
        assert manager.evaluate() is not None
        assert manager.evaluate() is None  # still cooling down
        clock.advance(301)
        assert manager.evaluate() is not None

    def test_scales_down_after_sustained_idleness(self):
        clock = ManualClock()
        broker = MessageBroker()
        manager, retired = self.make_manager(
            clock, broker, min_workers=1, idle_polls_before_retire=5,
            cooldown_s=0.0)
        manager.adopt(manager.spawn())
        assert manager.size == 2
        for _ in range(6):
            manager.pump()  # nothing queued: all polls idle
        clock.advance(10)
        event = manager.evaluate()
        assert event is not None and event.action == "remove"
        assert manager.size == 1
        assert len(retired) == 1

    def test_never_below_min_or_above_max(self):
        clock = ManualClock()
        broker = MessageBroker()
        manager, _ = self.make_manager(clock, broker, min_workers=1,
                                       max_workers=2,
                                       idle_polls_before_retire=1,
                                       cooldown_s=0.0)
        for _ in range(20):
            broker.publish(Job(lab=VECADD, source=VECADD.solution,
                               kind=JobKind.COMPILE_ONLY), clock.now())
        clock.advance(self.STALLED_S)
        manager.evaluate()
        manager.evaluate()
        assert manager.size == 2  # capped at max
        # drain everything, then shrink to the floor
        while broker.depth():
            manager.pump()
        for _ in range(5):
            manager.pump()
            manager.evaluate()
        assert manager.size == 1  # never below min

    def test_end_to_end_burst_absorbed(self):
        clock = ManualClock()
        broker = MessageBroker()
        manager, _ = self.make_manager(clock, broker, cooldown_s=0.0,
                                       max_workers=4)
        for _ in range(8):
            broker.publish(Job(lab=VECADD, source=VECADD.solution,
                               kind=JobKind.COMPILE_ONLY), clock.now())
        done = 0
        for _ in range(30):
            clock.advance(self.STALLED_S)
            manager.evaluate()
            done += manager.pump()
            if done == 8:
                break
        assert done == 8
        assert manager.size > 1  # the burst triggered growth
        assert any(e.action == "add" for e in manager.events)


class TestV2LabDeployment:
    def test_deploy_then_install_then_grade(self):
        from repro.cluster import ManualClock
        from repro.core import WebGPU2
        from repro.core.course import CourseOffering

        clock = ManualClock()
        platform = WebGPU2(clock=clock, num_workers=1)
        course = platform.create_course(
            CourseOffering(code="HPP", year=2016), [])
        assert course.labs == {}

        # instructor deploys the bundle to the S3 bucket, then installs
        keys = platform.deploy_lab(VECADD)
        assert any(k.endswith("config.json") for k in keys)
        installed = platform.install_lab("HPP-2016", "vector-add")
        assert installed.title == "Vector Addition"

        # a student can now take the lab end to end
        student = platform.users.register("s@x.com", "S", "pw")
        course.enroll(student.user_id)
        platform.save_code("HPP-2016", student, "vector-add",
                           VECADD.solution)
        clock.advance(30)
        attempt = platform.run_attempt("HPP-2016", student, "vector-add")
        assert attempt.correct

    def test_install_unknown_lab_fails(self):
        from repro.cluster import ManualClock
        from repro.core import WebGPU2
        from repro.core.course import CourseOffering
        from repro.storage import NoSuchKeyError

        platform = WebGPU2(clock=ManualClock(), num_workers=1)
        platform.create_course(CourseOffering(code="HPP", year=2016), [])
        with pytest.raises(NoSuchKeyError):
            platform.install_lab("HPP-2016", "ghost-lab")
