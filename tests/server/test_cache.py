"""ResultCache: LRU semantics, the disk tier, and single-flight compute."""

import pickle
import threading

import pytest

from repro.server.cache import ResultCache, default_cache, reset_default_cache


class TestMemoryTier:
    def test_round_trip_fresh_copies(self):
        cache = ResultCache()
        value = {"rows": [1, 2, 3]}
        cache.put("ab", value)
        hit = cache.get("ab")
        assert hit == value
        assert hit is not value  # stored pickled, never aliased
        assert cache.get("ab") is not cache.get("ab")

    def test_hit_is_byte_identical(self):
        cache = ResultCache()
        value = {"floats": [0.1, 1 / 3], "names": ["a", "b"]}
        cache.put("cd", value)
        assert pickle.dumps(cache.get("cd")) == pickle.dumps(value)

    def test_mutating_a_hit_cannot_poison_the_cache(self):
        cache = ResultCache()
        cache.put("ef", {"n": 1})
        cache.get("ef")["n"] = 999
        assert cache.get("ef") == {"n": 1}

    def test_miss_returns_none(self):
        cache = ResultCache()
        assert cache.get("0123") is None
        assert cache.stats()["misses"] == 1

    def test_lru_eviction(self):
        cache = ResultCache(maxsize=2)
        cache.put("aa", 1)
        cache.put("bb", 2)
        assert cache.get("aa") == 1  # touch: aa is now most recent
        cache.put("cc", 3)  # evicts bb, the least recently used
        assert cache.get("bb") is None
        assert cache.get("aa") == 1
        assert cache.get("cc") == 3
        assert cache.stats()["evictions"] == 1

    def test_keys_must_be_hex(self):
        cache = ResultCache()
        for bad in ("", "UPPER", "../escape", "no spaces", 42, None):
            with pytest.raises(ValueError, match="hex content addresses"):
                cache.put(bad, 1)

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError, match="maxsize"):
            ResultCache(maxsize=0)

    def test_len_contains_clear(self):
        cache = ResultCache()
        cache.put("ab", 1)
        assert len(cache) == 1 and "ab" in cache and "cd" not in cache
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0


class TestDiskTier:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(disk_dir=str(tmp_path / "store"))
        cache.put("ab12", {"report": [1.0, 0.5]})
        assert (tmp_path / "store" / "ab12.pickle").exists()
        assert cache.get("ab12") == {"report": [1.0, 0.5]}

    def test_survives_a_new_process_worth_of_state(self, tmp_path):
        """A fresh cache over the same directory serves the old entries --
        the cross-process story behind REPRO_CACHE_DIR."""
        first = ResultCache(disk_dir=str(tmp_path))
        first.put("abcd", {"overall": 1.0})
        second = ResultCache(disk_dir=str(tmp_path))
        assert second.get("abcd") == {"overall": 1.0}
        assert "abcd" in second

    def test_eviction_spills_to_disk_not_to_nothing(self, tmp_path):
        cache = ResultCache(maxsize=1, disk_dir=str(tmp_path))
        cache.put("aa", 1)
        cache.put("bb", 2)  # evicts aa from memory; file remains
        assert cache.get("aa") == 1  # disk hit, promoted back
        assert cache.stats()["hits"] == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path, caplog):
        cache = ResultCache(disk_dir=str(tmp_path))
        (tmp_path / "dead.pickle").write_bytes(b"")
        with caplog.at_level("WARNING", logger="repro.server"):
            assert cache.get("dead") is None
        assert [record.levelname for record in caplog.records] == ["WARNING"]
        assert "dead" in caplog.records[0].getMessage()
        stats = cache.stats()
        assert (stats["misses"], stats["disk_errors"], stats["hits"]) == \
            (1, 1, 0)
        assert "dead" not in cache._entries  # the bad blob is not promoted
        assert ResultCache(disk_dir=str(tmp_path)).get("beef") is None

    def test_truncated_entry_is_recomputed_and_overwritten(self, tmp_path):
        cache = ResultCache(disk_dir=str(tmp_path))
        cache.put("abcd", {"overall": 0.75, "missed": ["SA0(cell=1)"]})
        path = tmp_path / "abcd.pickle"
        path.write_bytes(path.read_bytes()[:-5])  # a torn copy
        fresh = ResultCache(disk_dir=str(tmp_path))
        assert fresh.get("abcd") is None
        assert fresh.get("abcd") is None  # still a miss, never promoted
        calls = []
        value, computed = fresh.get_or_compute(
            "abcd", lambda: calls.append(1) or {"overall": 0.75})
        assert computed and calls == [1] and value == {"overall": 0.75}
        # Two gets, then get_or_compute's check before and under its lock.
        assert fresh.stats()["disk_errors"] == 4
        # The recomputed report replaced the file: a new process reads it.
        assert ResultCache(disk_dir=str(tmp_path)).get("abcd") == \
            {"overall": 0.75}


class TestGetOrCompute:
    def test_computes_once(self):
        cache = ResultCache()
        calls = []

        def compute():
            calls.append(1)
            return {"x": 1}

        value, fresh = cache.get_or_compute("ab", compute)
        assert (value, fresh) == ({"x": 1}, True)
        value, fresh = cache.get_or_compute("ab", compute)
        assert (value, fresh) == ({"x": 1}, False)
        assert len(calls) == 1

    def test_concurrent_callers_single_flight(self):
        cache = ResultCache()
        calls = []
        release = threading.Event()

        def compute():
            calls.append(1)
            release.wait(5.0)
            return "value"

        results = []

        def worker():
            results.append(cache.get_or_compute("ff", compute))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        release.set()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert sorted(fresh for _, fresh in results) == [False, False,
                                                         False, True]
        assert all(value == "value" for value, _ in results)

    def test_compute_failure_does_not_wedge_the_key(self):
        cache = ResultCache()

        def boom():
            raise RuntimeError("campaign failed")

        with pytest.raises(RuntimeError):
            cache.get_or_compute("ab", boom)
        value, fresh = cache.get_or_compute("ab", lambda: 42)
        assert (value, fresh) == (42, True)


class TestDefaultCache:
    def test_env_configuration(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_SIZE", "7")
        reset_default_cache()
        try:
            cache = default_cache()
            assert cache.disk_dir == str(tmp_path)
            assert cache.maxsize == 7
            assert default_cache() is cache  # process-wide singleton
        finally:
            reset_default_cache()
