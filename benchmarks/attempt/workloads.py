"""The four workloads: fixed slot lists, their inputs and the verdict oracle.

A workload is a fixed list of *slots*; a slot is a fixed batch of
attempts that does identical work on every pass. Slot lists, edit
positions and the storm's traffic mix are constants of the benchmark —
the same on every commit and for every ``--seed`` — so that two runs
differ by measurement noise only. The seed decides what does not
change the amount of work: nonce values, the spelling of edited
identifiers (fixed length), which student sends a storm attempt, and
the order of slots within a pass.

Every attempt carries a hand-written expected verdict (see
:data:`MUTATION_VERDICTS` and friends). The verdicts come from the lab
and mutation descriptions and from the numpy references in
``repro.wb.datasets``, never from the compiler under test.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
import random
import re
from dataclasses import dataclass
from typing import Any, Callable

from repro.cluster import GpuWorker, ManualClock, PlatformCaches, WorkerConfig
from repro.cluster.job import Job, JobKind, JobResult, JobStatus
from repro.core.course import CourseOffering
from repro.core.platform_v2 import WebGPU2
from repro.labs import ALL_LABS, EXTRA_LABS, LabDefinition, get_lab, labs_for_course
from repro.labs.mutations import MUTATIONS, buggy_source
from repro.minicuda import CompileCache

CATALOG: tuple[LabDefinition, ...] = ALL_LABS + EXTRA_LABS

#: Worker tags that let one worker serve every lab in the catalog.
ALL_TAGS = frozenset({"cuda"}.union(*(lab.requirements for lab in CATALOG)))

#: Burns the whole 24 M-step watchdog budget: minutes of host time per
#: attempt. Excluded from every workload (README, "Excluded").
EXCLUDED_MUTATIONS = frozenset({"no-stride-advance"})

# -- verdicts ---------------------------------------------------------------
#
# A verdict is a short string. "C": the compile step rejects the source;
# "B": the blacklist scan rejects it; otherwise one letter per dataset in
# order — "P" ran and matched the reference, "W" ran and did not match,
# "R" runtime error, "T" watchdog timeout. A compile-only attempt that
# compiles has the empty verdict "". Platform (storm) attempts report one
# letter for the whole attempt.

#: Skeletons compile and submit an all-zero (or no) answer, which is
#: wrong — except these two: device-query's skeleton already prints every
#: marker the lab greps for, and openacc-vecadd's skeleton is the serial
#: loop, which is correct without the pragma.
SKELETON_PASSES = frozenset({"device-query", "openacc-vecadd"})

#: Expected per-dataset outcome of each mutation on the lab's two
#: smallest datasets, from the mutation's description.
MUTATION_VERDICTS = {
    # 16 and 100 elements are not multiples of the block size, so the
    # rounded-up grid runs past the buffers (only an exact-fit dataset
    # would survive; neither of the two smallest is one)
    "missing-boundary-check": "RR",
    "off-by-one-guard": "WW",          # last element never written
    "wrong-operator": "WW",
    "missing-wbsolution": "WW",        # nothing submitted to compare
    "missing-memcpy-back": "WW",       # host buffer still zero
    "typo-in-identifier": "C",         # uses of `i` are undeclared
    "divergent-syncthreads": "RR",     # barrier reached by one thread
    # the tiles are overwritten while other warps still read them
    "missing-second-barrier": "WW",
    # blocks are square, so the swapped mapping still computes every
    # (row, col) exactly once: slow, not wrong
    "row-col-swapped": "PP",
    # the simulator runs the threads of a warp one after another, so the
    # unsynchronised read-modify-write never loses an update
    "plain-write-instead-of-atomic": "PP",
    "missing-cas-claim": "PP",         # same: the race is never lost
}

_LETTERS = {("ok", True): "P", ("ok", False): "W",
            ("runtime_error", False): "R", ("run_timeout", False): "T"}


def verdict_of(result: JobResult) -> str:
    """The verdict string of a worker's job result."""
    if result.status is not JobStatus.COMPLETED:
        return f"!{result.status.value}"
    if not result.compile_ok:
        return "B" if "blacklisted" in result.compile_message else "C"
    return "".join(_LETTERS.get((d.outcome, d.correct), "?")
                   for d in result.datasets)


def solution_verdict(lab: LabDefinition) -> str:
    return "P" * len(lab.dataset_sizes)


def skeleton_verdict(lab: LabDefinition) -> str:
    letter = "P" if lab.slug in SKELETON_PASSES else "W"
    return letter * len(lab.dataset_sizes)


# -- attempts and slots -----------------------------------------------------

@dataclass(frozen=True)
class Attempt:
    """One student action with its expected verdict."""

    lab: LabDefinition
    source: str          #: text before the per-execution nonce
    kind: JobKind
    expect: str
    nonced: bool = True  #: append a fresh nonce on every execution
    dataset_index: int = 0
    student: int = 0     #: storm only: index of the enrolled student


@dataclass(frozen=True)
class Slot:
    name: str
    attempts: tuple[Attempt, ...]


class Nonces:
    """Fresh ten-digit nonces: constant width, so every nonced copy of a
    source has the same length and token count."""

    def __init__(self, seed: int, workload: str):
        digest = hashlib.sha256(f"{seed}/{workload}".encode()).digest()
        self._next = 1_000_000_000 + int.from_bytes(digest[:4], "big") % 10**9

    def apply(self, attempt: Attempt) -> str:
        """The source to submit for one execution of ``attempt``. The
        appended function is a token-level edit, so the preprocessed
        fingerprint and every cache keyed by it miss."""
        if not attempt.nonced:
            return attempt.source
        n = self._next
        self._next += 1
        return f"{attempt.source}\nint wb_nonce_{n}(void){{return {n};}}\n"


def _tag(seed: int, what: str) -> str:
    """Four seeded lowercase letters (fixed width) for edited names."""
    digest = hashlib.sha256(f"{seed}/{what}".encode()).digest()
    return "".join(chr(ord("a") + b % 26) for b in digest[:4])


# -- single-token edits at fixed positions ----------------------------------

_LOCAL_DECLARATION = re.compile(
    r"^[ \t]+(?:int|float|double|unsigned int)\s+([A-Za-z_]\w*)\s*[=;]",
    re.MULTILINE)
_CODE_SEMICOLON = re.compile(r"^(?!\s*#)[^/\n]*(;)[ \t]*$", re.MULTILINE)
_CLOSING_BRACE = re.compile(r"^\}", re.MULTILINE)


def _edit_target(source: str) -> re.Match[str] | None:
    """The first local variable that is used again before its function
    ends (a closing brace in column 0)."""
    for match in _LOCAL_DECLARATION.finditer(source):
        rest = source[match.end():]
        body = rest[:m.start()] if (m := _CLOSING_BRACE.search(rest)) else rest
        if re.search(rf"\b{match.group(1)}\b", body):
            return match
    return None


def rename_identifier(source: str, tag: str) -> str | None:
    """Rename one variable everywhere: still compiles."""
    match = _edit_target(source)
    if match is None:
        return None
    name = match.group(1)
    return re.sub(rf"\b{name}\b", f"{name}_{tag}", source)


def undeclare_identifier(source: str, tag: str) -> str | None:
    """Rename one variable at its declaration only: its uses are now
    undeclared (the classic typo)."""
    match = _edit_target(source)
    if match is None:
        return None
    start, end = match.span(1)
    return f"{source[:start]}{match.group(1)}_{tag}{source[end:]}"


def drop_semicolon(source: str, tag: str = "") -> str | None:
    """Drop the middle one of the semicolons that end a code line."""
    ends = [m.start(1) for m in _CODE_SEMICOLON.finditer(source)]
    if not ends:
        return None
    at = ends[len(ends) // 2]
    return source[:at] + source[at + 1:]


def unbalance_brace(source: str, tag: str = "") -> str | None:
    """Drop the last function's closing brace."""
    closers = [m.start() for m in _CLOSING_BRACE.finditer(source)]
    if not closers:
        return None
    return source[:closers[-1]] + source[closers[-1] + 1:]


def blacklisted(source: str, entry: str) -> str:
    """Call a blacklisted function from an extra helper."""
    return f'{source}\nvoid wb_escape(void){{ {entry}("id"); }}\n'


#: Every edit takes (source, tag) and returns the edited source, or
#: None where the source has no place for it; with the verdict of a
#: compile-only attempt on the result.
EDITS = ((rename_identifier, ""), (undeclare_identifier, "C"),
         (drop_semicolon, "C"), (unbalance_brace, "C"))


def _edits(source: str, seed: int, what: str) -> list[tuple[str, str]]:
    """(edited source, expected compile verdict) for every edit that
    applies to ``source``."""
    tag = _tag(seed, what)
    edited = ((edit(source, tag), expect) for edit, expect in EDITS)
    return [(text, expect) for text, expect in edited if text is not None]


# -- runners: what executes an attempt --------------------------------------

class WorkerRunner:
    """Attempts go straight to ``GpuWorker.process``."""

    on_platform = False
    result_cache = None

    def __init__(self, compile_cache: CompileCache | None = None):
        self.compile_cache = compile_cache
        self.worker = GpuWorker(WorkerConfig(tags=ALL_TAGS),
                                compile_cache=compile_cache)

    def execute(self, attempt: Attempt, source: str) -> str:
        return verdict_of(self.worker.process(Job(
            lab=attempt.lab, source=source, kind=attempt.kind,
            dataset_index=attempt.dataset_index)))


STORM_COURSE = CourseOffering(code="HPP", year=2015)
STORM_STUDENTS = 200


class PlatformRunner:
    """Attempts go through the WebGPU 2.0 facade: save the code, then
    compile, run or submit it, as an enrolled student would."""

    on_platform = True

    def __init__(self) -> None:
        self.clock = ManualClock()
        self.caches = PlatformCaches(clock=self.clock)
        self.compile_cache = self.caches.compile
        self.result_cache = self.caches.results
        self.platform = WebGPU2(
            clock=self.clock, num_workers=2,
            worker_config=WorkerConfig(tags=frozenset({"cuda", "opencl"})),
            caches=self.caches,
            rate_per_minute=1e9)  # the limiter is not what is measured
        self.course = STORM_COURSE.key
        course = self.platform.create_course(
            STORM_COURSE, [lab.slug for lab in labs_for_course("HPP")])
        self.students = []
        for i in range(STORM_STUDENTS):
            user = self.platform.users.register(
                f"student{i}@example.org", f"Student {i}", "secret")
            course.enroll(user.user_id)
            self.students.append(user)

    def execute(self, attempt: Attempt, source: str) -> str:
        platform, user = self.platform, self.students[attempt.student]
        slug = attempt.lab.slug
        self.clock.advance(1.0)  # refills the student's token bucket
        platform.save_code(self.course, user, slug, source)
        if attempt.kind is JobKind.COMPILE_ONLY:
            record = platform.compile_code(self.course, user, slug)
            return "" if record.compile_ok else "C"
        if attempt.kind is JobKind.RUN_DATASET:
            record = platform.run_attempt(self.course, user, slug,
                                          attempt.dataset_index)
        else:
            record, _grade = platform.submit_for_grading(
                self.course, user, slug)
        if not record.compile_ok:
            return "C"
        return "P" if record.correct else "W"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple[Slot, ...]
    make_runner: Callable[[], Any]

    @property
    def attempts_per_pass(self) -> int:
        return sum(len(slot.attempts) for slot in self.slots)

    def warmup_slots(self) -> tuple[Slot, ...]:
        """Four evenly spaced slots: what a cold start runs before it
        counts as ready (they cover every kind of slot in the list)."""
        step = max(1, len(self.slots) // 4)
        return self.slots[::step][:4]

    def digest(self) -> str:
        """Identifies the exact inputs: slot names, sources, verdicts."""
        h = hashlib.sha256()
        for slot in self.slots:
            h.update(slot.name.encode())
            for a in slot.attempts:
                h.update(f"\0{a.lab.slug}\0{a.lab.dataset_sizes}\0{a.kind.value}"
                         f"\0{a.expect}\0{a.nonced}\0{a.dataset_index}"
                         f"\0{a.student}\0{a.source}".encode())
        return h.hexdigest()[:16]


# -- catalog_grade ----------------------------------------------------------

#: Datasets graded per lab: the two smallest (the catalog's third and
#: fourth sizes would make a pass too long for the time cap).
CATALOG_DATASETS = 2

#: (lab, edit) of the six solutions broken by one token.
BROKEN_SOLUTIONS = (
    ("vector-add", drop_semicolon), ("tiled-matmul", drop_semicolon),
    ("reduction-scan", unbalance_brace), ("spmv", unbalance_brace),
    ("stencil", undeclare_identifier), ("bfs-queuing", undeclare_identifier),
)


def _trimmed(lab: LabDefinition) -> LabDefinition:
    return dataclasses.replace(
        lab, dataset_sizes=lab.dataset_sizes[:CATALOG_DATASETS])


def catalog_grade(seed: int) -> Workload:
    slots = []

    def grade(name: str, lab: LabDefinition, source: str, expect: str) -> None:
        slots.append(Slot(name, (
            Attempt(lab, source, JobKind.FULL_GRADING, expect),)))

    labs = {lab.slug: _trimmed(lab) for lab in CATALOG}
    for lab in labs.values():
        grade(f"sol/{lab.slug}", lab, lab.solution, solution_verdict(lab))
    for lab in labs.values():
        grade(f"skel/{lab.slug}", lab, lab.skeleton, skeleton_verdict(lab))
    for mutation in MUTATIONS:
        if mutation.name not in EXCLUDED_MUTATIONS:
            grade(f"mut/{mutation.name}", labs[mutation.lab_slug],
                  buggy_source(mutation), MUTATION_VERDICTS[mutation.name])
    for slug, edit in BROKEN_SOLUTIONS:
        grade(f"broken/{slug}", labs[slug],
              edit(labs[slug].solution, _tag(seed, f"broken/{slug}")), "C")
    grade("blacklist/vector-add", labs["vector-add"],
          blacklisted(labs["vector-add"].solution, "system"), "B")
    return Workload(
        "catalog_grade",
        "whole grading pipeline, cold, on every lab: front end, engine "
        "compile, exec and compare all carry weight",
        tuple(slots), WorkerRunner)


# -- edit_loop --------------------------------------------------------------

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples" / "cuda"
BLACKLIST_ENTRIES = ("asm", "system", "fork", "dlopen", "ptrace")
BLACKLIST_BASES = ("vector-add", "tiled-matmul", "bfs-queuing")


def edit_loop(seed: int) -> Workload:
    vector_add = get_lab("vector-add")
    sources: list[tuple[str, LabDefinition, str]] = []
    for lab in CATALOG:
        sources.append((f"sol/{lab.slug}", lab, lab.solution))
        sources.append((f"skel/{lab.slug}", lab, lab.skeleton))
    for mutation in MUTATIONS:
        if mutation.name not in EXCLUDED_MUTATIONS:
            sources.append((f"mut/{mutation.name}",
                            get_lab(mutation.lab_slug),
                            buggy_source(mutation)))
    for path in sorted(EXAMPLES_DIR.glob("*.cu")):
        sources.append((f"example/{path.stem}", vector_add, path.read_text()))

    slots = []
    for name, lab, text in sources:
        as_is = "C" if name == "mut/typo-in-identifier" else ""
        attempts = [Attempt(lab, text, JobKind.COMPILE_ONLY, as_is)]
        if not as_is:
            attempts += [Attempt(lab, edited, JobKind.COMPILE_ONLY, expect)
                         for edited, expect in _edits(text, seed, name)]
        slots.append(Slot(name, tuple(attempts)))
    for slug in BLACKLIST_BASES:
        lab = get_lab(slug)
        slots.append(Slot(f"blacklist/{slug}", tuple(
            Attempt(lab, blacklisted(lab.solution, entry),
                    JobKind.COMPILE_ONLY, "B")
            for entry in BLACKLIST_ENTRIES)))
    return Workload(
        "edit_loop",
        "the compile button: blacklist, preprocess, lex, parse and "
        "semantic do all the work and exec none",
        tuple(slots), WorkerRunner)


# -- kernel_scale -----------------------------------------------------------

#: Reference solutions on datasets scaled up until kernel execution
#: dominates; four sizes per lab, each slot tens of milliseconds on the
#: default engine.
KERNEL_SCALE_SIZES = {
    "vector-add": (1024, 2048, 3072, 4096),
    "basic-matmul": (10, 12, 14, 16),
    "tiled-matmul": (6, 8, 10, 12),
    "sgemm": (8, 10, 12, 14),
    "reduction-scan": (192, 256, 384, 512),
    "input-binning": (768, 1024, 1536, 2048),
    "scatter-gather": (1024, 1536, 2048, 3072),
    "convolution-2d": (10, 12, 16, 20),
    "stencil": (24, 32, 40, 48),
    "spmv": (96, 128, 192, 256),
    "image-equalization": (12, 16, 20, 24),
    "bfs-queuing": (128, 256, 384, 512),
}


def kernel_scale(seed: int) -> Workload:
    slots = []
    for slug, sizes in KERNEL_SCALE_SIZES.items():
        # the same source on every pass, so the compile cache and the
        # kernel memo hit; the seed only names one unused helper
        source = (f"{get_lab(slug).solution}\n"
                  f"int wb_{_tag(seed, slug)}(void){{return 0;}}\n")
        for size in sizes:
            lab = dataclasses.replace(get_lab(slug), dataset_sizes=(size,))
            slots.append(Slot(f"{slug}@{size}", (
                Attempt(lab, source, JobKind.FULL_GRADING, "P",
                        nonced=False),)))
    return Workload(
        "kernel_scale",
        "engine, gpusim scheduler, host API, dataset generation and "
        "compare are nearly all of the time; front-end work predicts "
        "no change here",
        tuple(slots), lambda: WorkerRunner(compile_cache=CompileCache()))


# -- deadline_storm ---------------------------------------------------------

STORM_SLOTS = 72
STORM_BATCH = 5
#: The traffic mix is drawn once with this constant, not with --seed.
STORM_MIX_SEED = 20160523
STORM_ACTIONS = ((JobKind.COMPILE_ONLY, 0.25), (JobKind.RUN_DATASET, 0.45),
                 (JobKind.FULL_GRADING, 0.30))
STORM_NONCED_SHARE = 0.10


def _storm_variants(lab: LabDefinition) -> tuple[tuple[str, bool], ...]:
    """The three popular submissions of a lab: (source, passes)."""
    return ((lab.solution, True),
            (lab.skeleton, lab.slug in SKELETON_PASSES),
            (lab.solution + "\nint wb_helper(void){return 7;}\n", True))


def deadline_storm(seed: int) -> Workload:
    labs = labs_for_course("HPP")
    total = STORM_SLOTS * STORM_BATCH
    mix = random.Random(STORM_MIX_SEED)

    def spread(values: list[Any]) -> list[Any]:
        """``total`` items cycling over ``values``, in a fixed shuffle."""
        items = [values[i % len(values)] for i in range(total)]
        mix.shuffle(items)
        return items

    kinds: list[JobKind] = []
    for kind, share in STORM_ACTIONS:
        kinds += [kind] * round(total * share)
    mix.shuffle(kinds)
    nonced = [i < round(total * STORM_NONCED_SHARE) for i in range(total)]
    mix.shuffle(nonced)
    lab_of = spread(list(range(len(labs))))
    variant_of = spread([0, 1, 2])
    dataset_of = spread([0, 1, 2])
    students = random.Random(f"{seed}/students")

    attempts = []
    for i in range(total):
        lab = labs[lab_of[i]]
        source, passes = _storm_variants(lab)[variant_of[i]]
        kind = kinds[i]
        expect = "" if kind is JobKind.COMPILE_ONLY else "PW"[not passes]
        attempts.append(Attempt(
            lab, source, kind, expect, nonced=nonced[i],
            dataset_index=dataset_of[i] % len(lab.dataset_sizes),
            student=students.randrange(STORM_STUDENTS)))
    slots = tuple(
        Slot(f"storm/{n:02d}",
             tuple(attempts[n * STORM_BATCH:(n + 1) * STORM_BATCH]))
        for n in range(STORM_SLOTS))
    return Workload(
        "deadline_storm",
        "the full platform path with 90% cache hits beside 10% misses "
        "that fill: cache, broker, driver, core and db dominate",
        slots, PlatformRunner)


BUILDERS = {"catalog_grade": catalog_grade, "edit_loop": edit_loop,
            "kernel_scale": kernel_scale, "deadline_storm": deadline_storm}


def build(name: str, seed: int, quick: bool = False) -> Workload:
    """Build one workload; ``quick`` keeps every fourth slot (smoke
    runs and tests: not for numbers)."""
    workload = BUILDERS[name](seed)
    if quick:
        workload = dataclasses.replace(workload, slots=workload.slots[::4])
    return workload
