"""OpStream.digest(): content addressing for compiled streams.

The digest is the identity the whole serving layer hangs off --
the worker-side stream cache of :class:`WorkerPool`, the
:meth:`CampaignRequest.cache_key` content address, and the on-disk
result cache shared between processes.  These tests pin the exact hex
value (any accidental change to the hashed representation invalidates
every existing cache directory, so it must be a *deliberate* change
that shows up in this file) and check stability across recompiles,
pickling, and a real process boundary.
"""

import dataclasses
import os
import pickle

import pytest

from repro.analysis import request as request_module
from repro.analysis.request import ENGINES, CampaignRequest
from repro.faults import single_cell_universe
from repro.march.library import MARCH_C_MINUS, MATS
from repro.prt import standard_schedule
from repro.sim import WorkerPool, run_campaign
from repro.sim.compilers import compile_march, compile_schedule
from repro.sim.pool import worker_stream

# Pinned content addresses.  If these change, every cache directory in
# the wild is invalidated -- bump them only for deliberate changes to
# the stream representation, and say so in the commit message.
MATS_8_DIGEST = (
    "188eb55669d72ee1ab717e822895998101599271726ac2eeead943ea85d9bd1f"
)
MATS_8_CACHE_KEY = (
    "7d03fda1d916ff5a871c5f82f8d72b1b7c74083dfdbeaceb52eee78161fa25b2"
)


def _digest_of_fresh_compile(_index):
    """Module-level so WorkerPool can pickle it (fork or spawn)."""
    return compile_march(MATS, 8).digest()


def _cached_stream_identity(stream_pair):
    """The worker's pid and the identity of the stream it holds for
    ``stream_pair``'s digest."""
    return os.getpid(), id(worker_stream(*stream_pair))


class TestDigestIdentity:
    def test_pinned_vector(self):
        assert compile_march(MATS, 8).digest() == MATS_8_DIGEST

    def test_pinned_cache_key(self):
        assert CampaignRequest(test="mats", n=8).cache_key() == MATS_8_CACHE_KEY

    def test_structurally_equal_streams_share_a_digest(self):
        first = compile_march(MARCH_C_MINUS, 16)
        second = compile_march(MARCH_C_MINUS, 16)
        assert first.digest() == second.digest()

    def test_different_content_different_digest(self):
        base = compile_march(MATS, 8)
        assert base.digest() != compile_march(MATS, 9).digest()
        assert base.digest() != compile_march(MARCH_C_MINUS, 8).digest()
        assert base.digest() != compile_schedule(
            standard_schedule(n=8), 8).digest()

    def test_digest_ignores_mutable_bookkeeping(self):
        stream = compile_march(MATS, 8)
        before = stream.digest()
        stream.reference_verified = not stream.reference_verified
        # the cached value must not mask a representation change either:
        stream.__dict__.pop("_digest", None)
        assert stream.digest() == before

    def test_digest_survives_pickling(self):
        stream = compile_march(MARCH_C_MINUS, 12)
        clone = pickle.loads(pickle.dumps(stream))
        assert clone == stream
        assert clone.digest() == stream.digest()

    def test_memoized_on_the_instance(self):
        stream = compile_march(MATS, 8)
        assert stream.digest() is stream.digest()


class TestDigestAcrossProcesses:
    def test_worker_processes_agree(self):
        """Each worker compiles its own stream; all digests match ours."""
        with WorkerPool(2) as pool:
            digests = set(pool.imap_unordered(_digest_of_fresh_compile,
                                              range(4)))
        assert digests == {MATS_8_DIGEST}

    def test_broadcast_dedups_structurally_equal_streams(self):
        """Two equal-content compiles are unpickled once per worker --
        the worker cache keys on content, not object identity."""
        first = compile_march(MARCH_C_MINUS, 16)
        second = pickle.loads(pickle.dumps(first))  # equal, distinct object
        assert first is not second
        universe = single_cell_universe(16, classes=("SAF",))
        with WorkerPool(2) as pool:
            run_campaign(first, universe, workers=2, pool=pool)
            run_campaign(second, universe, workers=2, pool=pool)
            assert pool.broadcast_stats()["streams"] == 1
            assert pool.broadcast_stats()["dedup_hits"] == 1
            pairs = [pool.stream_pair(first), pool.stream_pair(second)] * 8
            held = set(pool.imap_unordered(_cached_stream_identity, pairs))
        # One stream object per worker, whichever blob its tasks carried.
        pids = {pid for pid, _ in held}
        assert len(held) == len(pids)


class TestCacheKeySemantics:
    def test_workers_excluded_from_cache_key(self):
        base = CampaignRequest(test="march-c", n=16)
        sharded = base.replace(workers=4)
        assert base.cache_key() == sharded.cache_key()

    def test_engines_share_one_versioned_cache_key(self, monkeypatch):
        # Every engine returns the same report, so all of them share one
        # cache entry.
        base = CampaignRequest(test="mats", n=8)
        keys = {base.replace(engine=engine).cache_key() for engine in ENGINES}
        assert keys == {MATS_8_CACHE_KEY}
        # The key-format version is part of the hashed text: bumping it
        # moves every key, so entries of an older format miss.
        resolved = request_module.resolve_campaign(base)
        monkeypatch.setattr(request_module, "CACHE_KEY_VERSION",
                            request_module.CACHE_KEY_VERSION + 1)
        bumped = dataclasses.replace(resolved, _cache_key=None).cache_key
        assert bumped != MATS_8_CACHE_KEY

    def test_geometry_in_cache_key(self):
        base = CampaignRequest(test="march-c", n=16)
        assert base.cache_key() != base.replace(n=17).cache_key()
        assert base.cache_key() != base.replace(m=4).cache_key()

    def test_cache_key_is_hex(self):
        key = CampaignRequest(test="prt3", n=12).cache_key()
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")

    def test_invalid_request_has_no_key(self):
        from repro.analysis.request import RequestError

        with pytest.raises(RequestError):
            CampaignRequest(test="nope", n=8).cache_key()
