"""The kernel census: what both compiled tiers make of a fixed collection.

    PYTHONPATH=src python -m tests.census            # diff against the file
    PYTHONPATH=src python -m tests.census --update   # rewrite it, print the diff

Either ends with one line counting what moved (:func:`summary`): module
hashes apart from totals, verdicts and decline reasons.

The collection, in this order: every catalog lab's solution and
skeleton, ``examples/cuda/*.cu``, every mutation's buggy source, and
every string literal in ``tests/*.py`` that holds ``__global__`` and
compiles. Per origin and kernel it records the warp tier's verdict
(``lowered``, or the reason it declines) and the sha256 of each
generated module: the warp kernel, the scalar kernel, and per host
function its host module. ``tests/golden/kernel_census.json`` is the
checked-in result; ``test_kernel_census.py`` re-derives it in tier-1.
A change that moves a verdict, a reason or one emitted byte shows up
here as a diff.
"""

from __future__ import annotations

import ast
import difflib
import hashlib
import json
import sys
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "kernel_census.json"


def collection() -> Iterator[tuple[str, str]]:
    """(origin, source) pairs of the census, in its fixed order."""
    from repro.labs import ALL_LABS, EXTRA_LABS
    from repro.labs.mutations import MUTATIONS, buggy_source

    for lab in ALL_LABS + EXTRA_LABS:
        yield f"solution/{lab.slug}", lab.solution
        yield f"skeleton/{lab.slug}", lab.skeleton
    for path in sorted((ROOT / "examples" / "cuda").glob("*.cu")):
        yield f"examples/cuda/{path.name}", path.read_text()
    for m in MUTATIONS:
        yield f"mutation/{m.lab_slug}/{m.name}", buggy_source(m)
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "__global__" in node.value):
                # keyed by content, so that editing a test file elsewhere
                # does not rename its kernels
                yield (f"tests/{path.name}#{_sha(node.value)[:12]}",
                       node.value)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def derive() -> dict:
    """The census of :func:`collection`, as the JSON-ready mapping."""
    from repro.minicuda import CompileError, compile_source
    from repro.minicuda import simd, srcgen

    modules: list[str] = []
    load = srcgen._ModuleEmitter._load

    def recording_load(self, label):
        modules.append("\n".join(self.module_lines))
        return load(self, label)

    srcgen._ModuleEmitter._load = recording_load
    origins: dict[str, dict] = {}
    seen: set[str] = set()
    try:
        for origin, source in collection():
            if source in seen:  # counted once, under its first origin
                continue
            seen.add(source)
            try:
                info = compile_source(source).info
            except CompileError:
                continue
            entry: dict[str, dict] = {}
            for name in info.kernels:
                del modules[:]
                lowered = simd._lower(info, name)
                if type(lowered) is simd.CompiledSimdKernel:
                    srcgen._compile_scalar(info, name)
                    verdict = "lowered"
                else:
                    verdict = lowered.reason
                entry[name] = {"verdict": verdict,
                               "modules": [_sha(m) for m in modules]}
            for name in info.host_functions:
                del modules[:]
                srcgen._compile_host(info, name)
                entry[f"host:{name}"] = {"modules": [_sha(m) for m in modules]}
            origins[origin] = entry
    finally:
        srcgen._ModuleEmitter._load = load
    kernels = [k for entry in origins.values() for n, k in entry.items()
               if not n.startswith("host:")]
    lowered = sum(k["verdict"] == "lowered" for k in kernels)
    return {
        "totals": {
            "origins": len(origins),
            "kernels": len(kernels),
            "lowered": lowered,
            "declined": len(kernels) - lowered,
            "modules": sum(len(k["modules"]) for entry in origins.values()
                           for k in entry.values()),
        },
        "origins": origins,
    }


def render(census: dict) -> str:
    return json.dumps(census, indent=1, sort_keys=False) + "\n"


def diff(expected: str, actual: str) -> str:
    return "".join(difflib.unified_diff(
        expected.splitlines(keepends=True), actual.splitlines(keepends=True),
        "tests/golden/kernel_census.json", "re-derived"))


def summary(expected: dict, actual: dict) -> str:
    """One line counting what moved between two censuses, emitted bytes
    apart from outcomes: module hashes, totals, verdicts (lowered
    against declined, or a kernel come or gone) and decline reasons."""
    hashes = verdicts = reasons = 0
    old, new = expected.get("origins", {}), actual["origins"]
    for origin in old.keys() | new.keys():
        was, now = old.get(origin, {}), new.get(origin, {})
        for name in was.keys() | now.keys():
            a, b = was.get(name, {}), now.get(name, {})
            ma, mb = a.get("modules", []), b.get("modules", [])
            hashes += sum(x != y for x, y in zip(ma, mb)) \
                + abs(len(ma) - len(mb))
            if name.startswith("host:"):
                continue
            va, vb = a.get("verdict"), b.get("verdict")
            if (va == "lowered") != (vb == "lowered") or None in (va, vb):
                verdicts += va != vb
            else:
                reasons += va != vb
    totals = sum(expected.get("totals", {}).get(k) != v
                 for k, v in actual["totals"].items())
    return (f"census: {hashes} module hashes, {totals} totals, "
            f"{verdicts} verdicts, {reasons} reasons changed")


def main(argv: list[str]) -> int:
    update = "--update" in argv
    actual = render(derive())
    expected = GOLDEN.read_text() if GOLDEN.exists() else ""
    changes = diff(expected, actual)
    if update:
        GOLDEN.write_text(actual)
    print(changes or "census unchanged", end="" if changes else "\n")
    print(json.dumps(json.loads(actual)["totals"]))
    print(summary(json.loads(expected or "{}"), json.loads(actual)))
    return 0 if update or not changes else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
