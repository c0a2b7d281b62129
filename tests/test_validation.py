"""Every constructor and entry point that checks its arguments refuses
a bad one with its own error and message."""

from __future__ import annotations

import dataclasses
import re
import threading

import numpy as np
import pytest

from repro.broker import MessageBroker
from repro.broker.autoscaler import FleetManager
from repro.broker.containers import CUDA_IMAGE, ContainerPool
from repro.cache.cas import ContentAddressedStore, IntegrityError, MissingBlobError
from repro.cache.memo import Flight
from repro.cache.policy import LRUPolicy, SizeCappedPolicy
from repro.cluster import ManualClock, ReactiveAutoscaler, StaticProvisioner
from repro.cluster.job import Job
from repro.cluster.scaling import SLOBurnPolicy
from repro.core.course import Course, CourseOffering
from repro.db import Column, ColumnType, Database, DuplicateKeyError, Schema, Table
from repro.db.errors import SchemaError
from repro.db.pool import ConnectionPool
from repro.db.replication import Replica
from repro.fabric.fabric import BrokerFabric
from repro.fabric.ring import HashRing
from repro.fabric.slo import SLOPolicy
from repro.gpusim import GpuRuntime
from repro.gpusim.errors import GpuError, OutOfBoundsError
from repro.gpusim.host import GpuEvent
from repro.gpusim.memory import DeviceBuffer
from repro.labs import get_lab
from repro.minicuda import CompileError, compile_source, parse
from repro.minicuda.interpreter import Interpreter, InterpreterError
from repro.minicuda.preprocessor import Preprocessor
from repro.mpisim.comm import Communicator, MpiError, MpiTimeout, run_mpi
from repro.profiler import LineBudget
from repro.sandbox.limits import SubmissionRateLimiter
from repro.sandbox.privileges import FileSystemModel
from repro.simulate.metrics import HourlySeries
from repro.storage.object_store import Bucket, NoSuchKeyError
from tests.test_minicuda_simd import one_kernel


def _unique_table():
    return Table("t", Schema(columns=[Column("email", ColumnType.TEXT)],
                             unique=[("email",)]))


def _course():
    return Course(Database(), CourseOffering(code="HPP", year=2015), [])


def _fleet(**kw):
    return FleetManager(MessageBroker(), ManualClock(), spawn=lambda: None,
                        retire=lambda driver: None, **kw)


def _deep_macros():
    depth = 40
    defines = "".join(f"#define M{i} M{i + 1}\n" for i in range(depth))
    return Preprocessor().process(defines + "int x = M0;\n")


def _program():
    return compile_source(one_kernel("int *o", "o[i] = 1;"))


def _deep_includes():
    headers = {f"h{i}.h": f'#include "h{i + 1}.h"\n' for i in range(20)}
    return Preprocessor(headers=headers).process('#include "h0.h"\n')


#: id -> (the call, the error it raises, the message)
REFUSALS = {
    "fleet-bounds": (lambda: _fleet(min_workers=0), ValueError,
                     "need 1 <= min_workers <= max_workers"),
    "broker-zones": (lambda: MessageBroker(zones=()), ValueError,
                     "broker needs at least one zone"),
    "container-gpus": (lambda: ContainerPool([CUDA_IMAGE], num_gpus=0),
                       ValueError, "need at least one GPU slot"),
    "lru-entries": (lambda: LRUPolicy(0), ValueError,
                    "max_entries must be >= 1"),
    "size-cap": (lambda: SizeCappedPolicy(0), ValueError,
                 "max_bytes must be >= 1"),
    "unfinished-flight": (lambda: Flight("k" * 16).result(), RuntimeError,
                          "flight kkkkkkkkkkkk… not delivered yet"),
    "blob-size-of-nothing": (lambda: ContentAddressedStore().size_of("ab"),
                             MissingBlobError, "ab"),
    "job-dataset-index": (lambda: Job(lab=get_lab("vector-add"), source="",
                                      dataset_index=-1), ValueError,
                          "dataset_index must be >= 0, got -1"),
    "clock-advance-backwards": (lambda: ManualClock().advance(-1), ValueError,
                                "cannot advance a clock backwards"),
    "clock-set-backwards": (lambda: ManualClock(5.0).set(1.0), ValueError,
                            "cannot move a clock backwards"),
    "static-fleet-size": (lambda: StaticProvisioner(0), ValueError,
                          "fleet size must be >= 1"),
    "autoscaler-utilization": (lambda: ReactiveAutoscaler(
        target_utilization=0), ValueError,
        "target_utilization must be in (0, 1]"),
    "burn-policy-bounds": (lambda: SLOBurnPolicy(min_workers=0), ValueError,
                           "need 1 <= min_workers <= max_workers"),
    "burn-policy-step": (lambda: SLOBurnPolicy(max_step_factor=1.0),
                         ValueError, "max_step_factor must be > 1"),
    "course-completion-unenrolled": (lambda: _course().mark_completed(7),
                                     KeyError, "user 7 is not enrolled in"),
    "pool-capacity": (lambda: ConnectionPool(Database(), capacity=0),
                      ValueError, "capacity must be >= 1"),
    "query-limit": (lambda: _unique_table().query().limit(-1), ValueError,
                    "limit must be non-negative"),
    "replica-lag": (lambda: Replica(Database(), "r", lag=-1), ValueError,
                    "lag must be non-negative"),
    "schema-column": (lambda: Schema(columns=[]).column("nope"), SchemaError,
                      "no such column 'nope'"),
    "restore-duplicates": (lambda: _unique_table().restore(
        [{"id": 1, "email": "a"}, {"id": 2, "email": "a"}], 3),
        DuplicateKeyError, "unique index on ('email',) violated by key"),
    "restore-without-a-key": (lambda: _unique_table().restore(
        [{"email": "a"}], 1), SchemaError,
        "restored row missing primary key 'id'"),
    "fabric-shards": (lambda: BrokerFabric(num_shards=0), ValueError,
                      "need at least one shard"),
    "empty-ring": (lambda: HashRing().preference("k"), RuntimeError,
                   "ring has no shards"),
    "slo-target": (lambda: SLOPolicy(queue_wait_p95_slo_s=0), ValueError,
                   "queue_wait_p95_slo_s must be > 0"),
    "unrecorded-event": (lambda: GpuEvent().elapsed_since(GpuEvent()),
                         GpuError, "event has not been recorded"),
    "memcpy-past-the-buffer": (lambda: GpuRuntime().memcpy_dtoh(
        GpuRuntime().malloc(2, "int"), 3), OutOfBoundsError,
        "memcpy of 3 elements from 2"),
    "empty-allocation": (lambda: DeviceBuffer(0, "int"), ValueError,
                         "allocation must hold at least one element"),
    "run-without-main": (lambda: compile_source(
        "int f() { return 0; }").run_main(), CompileError,
        "program has no main() function"),
    "header-chain": (_deep_includes, CompileError,
                     "#include nesting too deep"),
    "macro-chain": (_deep_macros, CompileError, "macro expansion too deep"),
    "mpi-rank": (lambda: Communicator(2).endpoint(5), MpiError,
                 "rank 5 out of range [0, 2)"),
    "line-budget-counter": (lambda: LineBudget("x", "nope", 1), ValueError,
                            "unknown line counter 'nope'"),
    "rate-limit": (lambda: SubmissionRateLimiter(rate_per_minute=0),
                   ValueError, "rate_per_minute must be > 0 and burst >= 1"),
    "missing-file": (lambda: FileSystemModel().read("/etc/../nope"),
                     FileNotFoundError, "/nope"),
    "hourly-series-length": (lambda: HourlySeries(3, np.zeros(2)),
                             ValueError, "counts length must equal hours"),
    "missing-object": (lambda: Bucket("b").head("k"), NoSuchKeyError, "b/k"),
    "launch-of-no-kernel": (lambda: _program().launch(GpuRuntime(), "nope", 1,
                                                      1), InterpreterError,
                            "no kernel 'nope'"),
    "launch-arity": (lambda: _program().launch(GpuRuntime(), "k", 1, 1),
                     InterpreterError, "'k' expects 1 args, got 0"),
    "run-of-no-host-function": (lambda: Interpreter(
        _program().info, GpuRuntime()).run_host_function("nope"),
        InterpreterError, "no host function 'nope'"),
    "unit-function": (lambda: parse("void f() {}").function("g"), KeyError,
                      "g"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refused(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=re.escape(message)):
        call()


class _LyingBucket(Bucket):
    """An object store whose etag names another blob."""

    def put(self, key, data, **kw):
        return dataclasses.replace(super().put(key, data, **kw),
                                   sha256="0" * 64)


def test_a_store_that_misreports_a_blob_is_refused():
    with pytest.raises(IntegrityError, match="object store reported sha256 "
                       + "0" * 64):
        ContentAddressedStore(_LyingBucket("cas")).put(b"blob")


def test_releasing_a_blob_the_store_lost_still_drops_it():
    cas = ContentAddressedStore()
    address = cas.put(b"blob")
    cas.bucket.delete(next(iter(cas.bucket.list())))
    assert cas.release(address) is True
    assert not cas.contains(address)


def test_a_rank_that_outlives_its_join_is_a_timeout():
    release = threading.Event()
    try:
        # a negative timeout joins for no time at all
        with pytest.raises(MpiTimeout, match="an MPI rank failed to "
                           "terminate"):
            run_mpi(1, lambda endpoint: release.wait(10), timeout=-5.0)
    finally:
        release.set()
