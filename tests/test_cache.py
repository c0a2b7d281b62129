"""Unit tests for the repro.cache subsystem (CAS, policies, memo)."""

import pytest

from repro.cache import (
    CacheStats,
    CompositePolicy,
    ContentAddressedStore,
    IntegrityError,
    LRUPolicy,
    MemoTable,
    MissingBlobError,
    SizeCappedPolicy,
    hash_bytes,
)
from repro.cache.cas import blob_key
from repro.storage import Bucket


# -- content-addressed store ------------------------------------------------

def test_cas_roundtrip_and_addressing():
    cas = ContentAddressedStore()
    address = cas.put(b"hello world")
    assert address == hash_bytes(b"hello world")
    assert cas.get(address) == b"hello world"
    assert cas.contains(address)
    assert cas.size_of(address) == 11
    assert cas.total_bytes == 11


def test_cas_identical_blobs_stored_once_with_refcounts():
    cas = ContentAddressedStore()
    a1 = cas.put(b"payload")
    a2 = cas.put(b"payload")
    assert a1 == a2
    assert len(cas) == 1
    assert cas.refcount(a1) == 2
    # first release keeps the blob, second deletes it
    assert cas.release(a1) is False
    assert cas.get(a1) == b"payload"
    assert cas.release(a1) is True
    assert not cas.contains(a1)
    with pytest.raises(MissingBlobError):
        cas.get(a1)


def test_cas_refcount_addref_and_missing():
    cas = ContentAddressedStore()
    address = cas.put(b"x")
    cas.addref(address)
    assert cas.refcount(address) == 2
    with pytest.raises(MissingBlobError):
        cas.addref("0" * 64)
    with pytest.raises(MissingBlobError):
        cas.release("0" * 64)


def test_cas_integrity_verification_on_read():
    bucket = Bucket("cas-test")
    cas = ContentAddressedStore(bucket=bucket)
    address = cas.put(b"trusted bytes")
    # simulate bit-rot / tampering underneath the CAS
    bucket.put(blob_key(address), b"corrupted!")
    with pytest.raises(IntegrityError):
        cas.get(address)
    assert cas.stats.integrity_failures == 1


def test_cas_uses_object_store_sha256_etag():
    bucket = Bucket("etags")
    meta = bucket.put("k", b"data")
    assert meta.sha256 == hash_bytes(b"data")
    assert meta.etag != meta.sha256  # md5 kept for S3 compatibility


# -- eviction policies ------------------------------------------------------

def test_lru_policy_evicts_least_recently_used():
    p = LRUPolicy(max_entries=2)
    p.record_store("a", 1, now=1.0)
    p.record_store("b", 1, now=2.0)
    p.record_access("a", now=3.0)  # refresh a; b is now the oldest
    p.record_store("c", 1, now=4.0)
    assert p.select_victims(now=4.0) == ["b"]
    assert p.stats.evicted_capacity == 1


def test_size_capped_policy_evicts_until_under_budget():
    p = SizeCappedPolicy(max_bytes=100)
    p.record_store("a", 60, now=1.0)
    p.record_store("b", 60, now=2.0)
    assert p.select_victims(now=2.0) == ["a"]
    assert p.total_bytes == 60
    p.record_store("c", 200, now=3.0)  # oversize entry flushes everything
    assert set(p.select_victims(now=3.0)) == {"b", "c"}


def test_composite_policy_unions_victims_and_syncs_members():
    size = SizeCappedPolicy(max_bytes=10)
    p = CompositePolicy((LRUPolicy(max_entries=2), size))
    p.record_store("a", 6, now=0.0)
    p.record_store("b", 6, now=1.0)
    assert p.select_victims(now=2.0) == ["a"]  # over the byte cap
    # the byte-cap victim must also be forgotten by the LRU member:
    # a third key is its second entry, not its third
    p.record_store("c", 1, now=3.0)
    assert p.select_victims(now=4.0) == []
    p.record_store("d", 1, now=5.0)
    assert p.select_victims(now=6.0) == ["b"]  # over the entry cap
    # ... and the entry-cap victim by the byte-cap member
    assert size.total_bytes == 2


# -- single-flight memo table ----------------------------------------------

def test_memo_get_or_compute_memoizes():
    memo = MemoTable()
    calls = []
    value, hit = memo.get_or_compute("k", lambda: calls.append(1) or 42)
    assert (value, hit) == (42, False)
    value, hit = memo.get_or_compute("k", lambda: calls.append(1) or 43)
    assert (value, hit) == (42, True)
    assert len(calls) == 1
    assert memo.stats.hits == 1 and memo.stats.misses == 1


def test_memo_single_flight_dedups_concurrent_identical_requests():
    """Simulated concurrent polls: N requesters, one computation."""
    memo = MemoTable()
    role1, flight1 = memo.begin("key")
    assert role1 == "owner"
    # two more 'workers' poll the same key before the owner delivers
    role2, flight2 = memo.begin("key")
    role3, flight3 = memo.begin("key")
    assert role2 == role3 == "joined"
    assert flight2 is flight1 and flight3 is flight1
    assert memo.stats.dedup_hits == 2

    received = []
    flight2.on_delivery(received.append)
    memo.deliver("key", "result")
    assert flight1.result() == "result"
    assert flight3.result() == "result"
    assert received == ["result"]
    assert memo.compute_count == 1  # N requests, one compute

    role4, flight4 = memo.begin("key")
    assert role4 == "hit" and flight4.result() == "result"


def test_memo_failure_propagates_and_is_not_memoized_by_default():
    memo = MemoTable()
    with pytest.raises(ValueError):
        memo.get_or_compute("k", lambda: (_ for _ in ()).throw(ValueError("boom")))
    # not memoized: the next request recomputes
    value, hit = memo.get_or_compute("k", lambda: "recovered")
    assert (value, hit) == ("recovered", False)


def test_memo_error_memoization_opt_in():
    memo = MemoTable(memoize_errors=True)
    with pytest.raises(ValueError):
        memo.get_or_compute("k", lambda: (_ for _ in ()).throw(ValueError("boom")))
    with pytest.raises(ValueError):
        memo.get_or_compute("k", lambda: "should not run")
    assert memo.compute_count == 1


def test_memo_abandon_reopens_the_flight():
    memo = MemoTable()
    role, _ = memo.begin("k")
    assert role == "owner"
    memo.abandon("k")
    role, _ = memo.begin("k")
    assert role == "owner"  # fresh owner, not a join against a dead flight
    assert memo.inflight_count == 1


def test_memo_eviction_via_policy_and_on_evict_callback():
    evicted = []
    memo = MemoTable(policy=LRUPolicy(max_entries=2),
                     on_evict=lambda key, value: evicted.append((key, value)))
    for i in range(4):
        memo.get_or_compute(f"k{i}", lambda i=i: i)
    assert len(memo) == 2
    assert evicted == [("k0", 0), ("k1", 1)]
    assert memo.stats.evictions == 2
    # evicted keys recompute
    value, hit = memo.get_or_compute("k0", lambda: "again")
    assert (value, hit) == ("again", False)


def test_memo_stats_snapshot_shape():
    stats = CacheStats()
    stats.record_hit(seconds_saved=1.5)
    stats.record_miss()
    stats.record_store(100)
    snap = stats.snapshot()
    assert snap["hits"] == 1 and snap["misses"] == 1
    assert snap["hit_rate"] == 0.5
    assert snap["bytes_live"] == 100
    assert snap["seconds_saved"] == 1.5
    merged = stats.merge(stats)
    assert merged.hits == 2 and merged.bytes_stored == 200
