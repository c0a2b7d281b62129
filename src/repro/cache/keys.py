"""Deterministic cache-key derivation helpers.

Every cache key in the subsystem is a hex sha256 digest derived from
the *content* that determines the result — never from identities like
user, submission id, or wall-clock time. Two students submitting
byte-identical code against byte-identical lab configuration therefore
collapse onto one key, which is the whole point.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

#: Separator that cannot occur inside a hex digest or a JSON dump.
_SEP = b"\x1f"


def hash_bytes(data: bytes) -> str:
    """sha256 hex digest of raw bytes."""
    return hashlib.sha256(data).hexdigest()


def hash_text(text: str) -> str:
    """sha256 hex digest of UTF-8 text (the program-hash primitive). A
    lone surrogate, which a student's source may hold, encodes as its
    own three bytes; every valid string keeps its UTF-8 bytes."""
    return hash_bytes(text.encode("utf-8", "surrogatepass"))


def hash_mapping(mapping: Mapping[str, Any]) -> str:
    """Digest of a JSON-able mapping, insensitive to key order."""
    dumped = json.dumps(mapping, sort_keys=True, separators=(",", ":"),
                        default=str)
    return hash_text(dumped)


def compose_key(*parts: Any) -> str:
    """Combine heterogeneous parts into one digest.

    Parts are stringified; iterables (lists/tuples/frozensets) are
    sorted first so ``frozenset({"mpi", "cuda"})`` always contributes
    the same bytes.
    """
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, (frozenset, set)):
            part = sorted(str(p) for p in part)
        if isinstance(part, (list, tuple)):
            part = ",".join(str(p) for p in part)
        h.update(str(part).encode("utf-8", "surrogatepass"))
        h.update(_SEP)
    return h.hexdigest()
