"""Content-addressed blob store layered over the object store.

Blobs are addressed by the sha256 of their content (so identical
payloads are stored once), ref-counted (eviction releases a reference;
the blob is only deleted when the last reference drops), and verified
on read: a blob whose bytes no longer hash to its address raises
:class:`IntegrityError` rather than silently serving corrupt data.
"""

from __future__ import annotations

from repro.cache.keys import hash_bytes
from repro.cache.stats import CacheStats
from repro.storage import Bucket, NoSuchKeyError


class CasError(Exception):
    """Base class for content-addressed-store errors."""


class IntegrityError(CasError):
    """A stored blob no longer matches its content address."""


class MissingBlobError(CasError):
    """The requested address is not in the store."""


def blob_key(address: str) -> str:
    """Object-store key for an address (fanned out S3-style)."""
    return f"cas/{address[:2]}/{address[2:]}"


class ContentAddressedStore:
    """sha256-addressed blobs with ref-counting over a :class:`Bucket`."""

    def __init__(self, bucket: Bucket | None = None,
                 stats: CacheStats | None = None):
        self.bucket = bucket if bucket is not None else Bucket("cas")
        self.stats = stats if stats is not None else CacheStats()
        self._refcounts: dict[str, int] = {}
        self._sizes: dict[str, int] = {}

    # -- writes ------------------------------------------------------------

    def put(self, data: bytes) -> str:
        """Store ``data`` and return its address; bumps the refcount if
        the identical blob is already present (dedup by content)."""
        address = hash_bytes(data)
        if address in self._refcounts:
            self._refcounts[address] += 1
            return address
        meta = self.bucket.put(blob_key(address), data)
        # cross-check the object store's own sha256 etag (satellite:
        # md5-only etags could silently alias distinct blobs)
        if getattr(meta, "sha256", address) != address:
            raise IntegrityError(
                f"object store reported sha256 {meta.sha256} for {address}")
        self._refcounts[address] = 1
        self._sizes[address] = len(data)
        self.stats.record_store(len(data))
        return address

    def addref(self, address: str) -> None:
        """Take an extra reference on an existing blob."""
        if address not in self._refcounts:
            raise MissingBlobError(address)
        self._refcounts[address] += 1

    def release(self, address: str) -> bool:
        """Drop one reference; returns True when the blob was deleted."""
        count = self._refcounts.get(address)
        if count is None:
            raise MissingBlobError(address)
        if count > 1:
            self._refcounts[address] = count - 1
            return False
        del self._refcounts[address]
        size = self._sizes.pop(address)
        try:
            self.bucket.delete(blob_key(address))
        except NoSuchKeyError:
            pass
        self.stats.record_eviction(size)
        return True

    # -- reads -------------------------------------------------------------

    def get(self, address: str) -> bytes:
        """Fetch a blob, verifying content integrity on the way out."""
        if address not in self._refcounts:
            raise MissingBlobError(address)
        data = self.bucket.get(blob_key(address))
        if hash_bytes(data) != address:
            self.stats.integrity_failures += 1
            raise IntegrityError(
                f"blob {address[:12]}… failed sha256 verification")
        return data

    def contains(self, address: str) -> bool:
        return address in self._refcounts

    def refcount(self, address: str) -> int:
        return self._refcounts.get(address, 0)

    def size_of(self, address: str) -> int:
        try:
            return self._sizes[address]
        except KeyError:
            raise MissingBlobError(address) from None

    @property
    def total_bytes(self) -> int:
        return sum(self._sizes.values())

    @property
    def addresses(self) -> tuple[str, ...]:
        return tuple(sorted(self._refcounts))

    def __len__(self) -> int:
        return len(self._refcounts)
