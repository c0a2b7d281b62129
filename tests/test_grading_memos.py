"""What an attempt does not change is built once per worker.

* **Datasets** — ``LabDefinition.dataset`` serves each (generator,
  seed, size) from ``labs.base.DATASETS``, generated once, its arrays
  read-only; a grade never writes to them and every lab and lab
  variant grading the same data shares them.
* **Exact resubmissions** — ``CompileCache`` remembers which
  (source, headers, defines) preprocessed to which entry, so a
  byte-identical resubmission is a hit without running the
  preprocessor, counted exactly as any other hit; an evicted entry
  drops its aliases.
* **Result-cache keys** — a grade is keyed by the lab's whole
  definition, so variants of one lab never share one.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.cache import LRUPolicy
from repro.cache.memo import MemoTable
from repro.cluster import GpuWorker, PlatformCaches, WorkerConfig
from repro.cluster.job import Job, JobKind
from repro.cluster.result_cache import GradingResultCache
from repro.labs import ALL_LABS, EXTRA_LABS, EvaluationMode, get_lab
from repro.labs.base import DATASETS
from repro.labs.mutations import MUTATIONS, buggy_source
from repro.minicuda import CompileCache, CompileError, HostEnv, compile_source
from repro.minicuda import compiler
from repro.telemetry import Telemetry

CATALOG = ALL_LABS + EXTRA_LABS
TAGS = frozenset({"cuda"}.union(*(lab.requirements for lab in CATALOG)))
#: burns the whole step budget: minutes per attempt
SLOW_MUTATIONS = frozenset({"no-stride-advance"})

LOOKUPS = "webgpu_cache_lookups_total"


def digest(data):
    h = hashlib.sha256()
    for name in sorted(data.inputs):
        h.update(name.encode() + data.inputs[name].tobytes())
    h.update(data.expected.tobytes())
    return h.hexdigest()


def held_datasets():
    return {key: flight.value for key, flight in DATASETS._done.items()}


def two_smallest(lab):
    return dataclasses.replace(lab, dataset_sizes=lab.dataset_sizes[:2])


# -- datasets ----------------------------------------------------------------

def test_grading_the_catalog_twice_leaves_every_dataset_as_generated():
    labs = {lab.slug: two_smallest(lab) for lab in CATALOG}
    assert {lab.mode for lab in labs.values()} == set(EvaluationMode)
    attempts = [(lab, lab.solution) for lab in labs.values()]
    attempts += [(labs[m.lab_slug], buggy_source(m)) for m in MUTATIONS
                 if m.name not in SLOW_MUTATIONS]
    for lab in labs.values():
        lab.datasets()
    before = {key: digest(data) for key, data in held_datasets().items()}
    worker = GpuWorker(WorkerConfig(tags=TAGS))
    for _ in range(2):
        for lab, source in attempts:
            result = worker.process(Job(lab=lab, source=source,
                                        kind=JobKind.FULL_GRADING))
            if source == lab.solution:
                assert result.all_correct, lab.slug
    held = held_datasets()
    assert set(before) <= set(held)
    for key, data in held.items():
        assert digest(data) == before.get(key, digest(data)), key
        for array in (*data.inputs.values(), data.expected):
            assert not array.flags.writeable, key


WRITES_ITS_INPUT = """
#include <wb.h>
int main(int argc, char **argv) {
  wbArg_t args = wbArg_read(argc, argv);
  int n;
  float *in = (float *)wbImport(wbArg_getInputFile(args, 0), &n);
  for (int i = 0; i < n; i++) in[i] = in[i] + 1.0f;
  wbSolution(args, in, n);
  return 0;
}
"""


def test_a_program_that_writes_its_import_leaves_the_next_input_intact():
    lab = get_lab("vector-add")
    program = compile_source(WRITES_ITS_INPUT)
    data = lab.dataset(0)
    first = data.inputs["input0"].copy()
    answers = []
    for _ in range(2):
        env = HostEnv(datasets=dict(lab.dataset(0).inputs))
        assert program.run_main(host_env=env).exit_code == 0
        answers.append(env.solution.data)
    assert np.array_equal(answers[0], answers[1])
    assert np.allclose(answers[0], first + 1.0)
    assert lab.dataset(0) is data
    assert np.array_equal(data.inputs["input0"], first)


def test_a_memoized_array_refuses_a_write():
    data = get_lab("vector-add").dataset(1)
    with pytest.raises(ValueError, match="read-only"):
        data.inputs["input0"][0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        data.expected[:] = 0.0


def test_datasets_are_keyed_by_generator_seed_and_size_not_by_lab():
    lab = get_lab("vector-add")
    renamed = dataclasses.replace(lab, slug="vector-add-copy")
    assert renamed.dataset(0) is lab.dataset(0)
    assert lab.datasets() == [lab.dataset(i)
                              for i in range(len(lab.dataset_sizes))]
    resized = dataclasses.replace(
        lab, dataset_sizes=(lab.dataset_sizes[0] + 1,))
    assert resized.dataset(0) is not lab.dataset(0)
    assert lab.dataset(0, base_seed=99) is not lab.dataset(0)


def test_dataset_lookups_are_counted():
    lookups = DATASETS.telemetry.metrics.counter(LOOKUPS)

    def count(outcome):
        return lookups.value(cache="datasets", outcome=outcome)

    lab = get_lab("reduction-scan")
    hits, misses = count("hit"), count("miss")
    lab.dataset(0, base_seed=424242)
    assert (count("hit"), count("miss")) == (hits, misses + 1)
    lab.dataset(0, base_seed=424242)
    assert (count("hit"), count("miss")) == (hits + 1, misses + 1)
    # the platform's cache snapshot reports the process-wide memo
    assert PlatformCaches().snapshot()["datasets"]["hits"] == \
        DATASETS.stats.hits > 0


# -- exact resubmissions -------------------------------------------------------

@pytest.fixture
def preprocessed(monkeypatch):
    """The sources the compile cache preprocessed."""
    seen = []
    real = compiler.preprocess

    def counting(source, **kwargs):
        seen.append(source)
        return real(source, **kwargs)

    monkeypatch.setattr(compiler, "preprocess", counting)
    return seen


SOURCE = get_lab("vector-add").solution


def test_lookups_follow_a_telemetry_bundle_attached_later():
    """A memo resolves its lookup series once, and again after its
    bundle or name is set (as ``PlatformCaches.attach_telemetry``
    does): counts land in the bundle and under the name of the time."""
    memo = MemoTable(cache_name="before")
    first = memo.telemetry
    memo.begin("k")
    memo.telemetry, memo.cache_name = Telemetry(), "after"
    memo.begin("k")
    memo.deliver("k", 1)
    memo.begin("k")
    old = first.metrics.counter(LOOKUPS)
    new = memo.telemetry.metrics.counter(LOOKUPS)
    assert old.value(cache="before", outcome="miss") == 1
    assert new.value(cache="after", outcome="join") == 1
    assert new.value(cache="after", outcome="hit") == 1
    assert old.total() == 1 and new.total() == 2


def counts(cache):
    lookups = cache.memo.telemetry.metrics.counter(LOOKUPS)
    return (cache.stats.misses, cache.stats.hits,
            lookups.value(cache="memo", outcome="miss"),
            lookups.value(cache="memo", outcome="hit"))


def test_a_byte_identical_resubmission_skips_the_preprocessor(preprocessed):
    cache = CompileCache()
    first = cache.compile(SOURCE)
    assert not first.cache_hit and len(preprocessed) == 1
    again = cache.compile(SOURCE)
    assert len(preprocessed) == 1
    assert again.cache_hit and again.info is first.info
    assert again.preprocessed == first.preprocessed
    assert again.estimated_compile_seconds == 0.0
    assert counts(cache) == (1, 1, 1, 1)
    assert cache.stats.seconds_saved == first.full_compile_seconds


def test_a_whitespace_variant_still_meets_on_the_preprocessed_key(
        preprocessed):
    cache = CompileCache()
    first = cache.compile(SOURCE)
    variant = SOURCE.replace("#include <wb.h>", "#include <wb.h> // libwb")
    again = cache.compile(variant)
    assert len(preprocessed) == 2  # a new input is preprocessed
    assert again.cache_hit and again.info is first.info
    assert again.source == variant
    cache.compile(variant)
    assert len(preprocessed) == 2
    assert counts(cache) == (1, 2, 1, 2)


def test_headers_and_defines_are_part_of_the_exact_input(preprocessed):
    source = ('#include "size.h"\n'
              "int main() { return SIZE + STEP; }\n")
    cache = CompileCache()
    inputs = [({"size.h": "#define SIZE 4\n"}, {"STEP": "1"}),
              ({"size.h": "#define SIZE 5\n"}, {"STEP": "1"}),
              ({"size.h": "#define SIZE 4\n"}, {"STEP": "2"})]
    for headers, defines in inputs:
        cache.compile(source, headers=headers, defines=defines)
    assert len(preprocessed) == 3
    assert cache.compile_count == 3
    for headers, defines in inputs:
        assert cache.compile(source, headers=headers,
                             defines=defines).cache_hit
    assert len(preprocessed) == 3


def test_an_evicted_program_drops_its_aliases(preprocessed):
    cache = CompileCache(max_entries=1)
    broken = "int main() { return missing; }"
    with pytest.raises(CompileError):
        cache.compile(broken)
    cache.compile(SOURCE)  # evicts the memoized error
    assert cache._aliases_of.keys() == cache.memo._done.keys()
    assert set(cache._aliases.values()) == set(cache.memo._done)
    cache.compile("int main() { return 0; }")  # evicts SOURCE
    assert len(cache._aliases) == len(cache.memo) == 1
    assert not cache.compile(SOURCE).cache_hit
    assert len(preprocessed) == 4


def test_a_program_keeps_a_bounded_number_of_aliases():
    cache = CompileCache(policy=LRUPolicy(4))
    per = CompileCache.ALIASES_PER_PROGRAM
    variants = [SOURCE.replace("#include <wb.h>",
                               f"#include <wb.h> // variant {i}")
                for i in range(per + 3)]
    for variant in variants:
        cache.compile(variant)
    assert len(cache._aliases) == per
    assert cache.compile(variants[-1]).cache_hit
    assert cache.compile(variants[0]).cache_hit  # preprocessed again
    assert cache.compile_count == 1


# -- result-cache keys -------------------------------------------------------

def test_lab_variants_never_share_a_result_key():
    cache = GradingResultCache()
    lab = get_lab("vector-add")
    small, large = (dataclasses.replace(lab, dataset_sizes=(size,))
                    for size in (1024, 2048))
    limited = dataclasses.replace(lab, run_limit_s=lab.run_limit_s / 2)

    def key(variant):
        return cache.key_for(Job(lab=variant, source=SOURCE,
                                 kind=JobKind.FULL_GRADING))

    keys = [key(variant) for variant in (small, large, limited, lab)]
    assert len(set(keys)) == 4
    assert key(dataclasses.replace(lab, dataset_sizes=(1024,))) == keys[0]
    cache.invalidate_lab("vector-add")
    assert cache._fingerprints == {}
    assert [key(variant) for variant in (small, large, limited, lab)] == keys
