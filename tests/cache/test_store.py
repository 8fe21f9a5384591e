"""Round-trip, corruption, eviction, verify-mode and env-activation
tests for the content-addressed result store."""

from __future__ import annotations

import pickle
import pickletools

import pytest

from repro.cache.http import HttpCache
from repro.cache.store import (
    DEFAULT_CACHE_DIR,
    CacheSpec,
    CacheStats,
    ExperimentCache,
    cache_from_env,
    resolve_cache,
)
from repro.cache.keys import config_key
from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.cli import main


def _blob(cache, config):
    """The file ``cache`` stores ``config``'s result in."""
    return cache.blob_path(cache.fingerprint, config_key(config))


CFG = ExperimentConfig(n_clusters=2, apps_per_cluster=2, n_cs=3, rho=4.0,
                       platform="two-tier")


@pytest.fixture
def cache(tmp_path):
    return ExperimentCache(cache_dir=tmp_path / "cache")


class TestRoundTrip:
    def test_result_round_trips_exactly(self, cache):
        result = run_experiment(CFG)
        assert cache.get(CFG) is None
        cache.put(CFG, result)
        cached = cache.get(CFG)
        assert cached == result
        assert cached.obtaining == result.obtaining      # SummaryStats
        assert cached.per_cluster == result.per_cluster
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_obs_report_round_trips(self, cache):
        cfg = CFG.with_(obs="paths")
        result = run_experiment(cfg)
        assert result.obs_report is not None
        cache.put(cfg, result)
        cached = cache.get(cfg)
        assert cached.obs_report == result.obs_report    # ObsReport
        assert cached == result

    def test_pickle_round_trip_of_result_types(self):
        result = run_experiment(CFG.with_(obs="paths"))
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert clone.obtaining == result.obtaining
        assert clone.obs_report == result.obs_report

    @pytest.mark.parametrize("retired", [
        {}, {"backend": "compiled"}, {"queue": "calendar"},
        {"batch_delivery": True}, {"horizon": True},
    ], ids=lambda r: next(iter(r), "same"))
    def test_a_hit_carries_the_requesting_config(self, cache, retired):
        # The stored config differs from the request only in a field
        # the key leaves out, so the request hits and is its own answer.
        cache.put(CFG, run_experiment(CFG))
        request = CFG.with_(**retired)
        cached = cache.get(request)
        assert cached.config is request
        assert cached == run_experiment(request)

    def test_a_blob_holds_no_config(self, cache):
        cache.put(CFG, run_experiment(CFG))
        blob = _blob(cache, CFG).read_bytes()
        payload = pickle.loads(blob)
        assert payload["key"] == CFG.cache_key()
        assert payload["result"].config is None
        names = {arg for op, arg, _ in pickletools.genops(blob)
                 if isinstance(arg, str)}
        assert "ExperimentResult" in names
        assert "ExperimentConfig" not in names

    def test_distinct_configs_do_not_alias(self, cache):
        a = run_experiment(CFG)
        b = run_experiment(CFG.with_(seed=1))
        cache.put(CFG, a)
        cache.put(CFG.with_(seed=1), b)
        assert cache.get(CFG) == a
        assert cache.get(CFG.with_(seed=1)) == b


class TestAddressing:
    @pytest.mark.parametrize("bad", ["../x", "", ".", "..", "a/b", "/abs"])
    def test_malformed_fingerprint_is_refused_at_construction(
        self, tmp_path, bad
    ):
        with pytest.raises(ValueError, match="malformed fingerprint") as err:
            ExperimentCache(cache_dir=tmp_path, fingerprint=bad)
        assert repr(bad) in str(err.value)

    @pytest.mark.parametrize("bad", ["../x", "", "."])
    def test_malformed_fingerprint_is_refused_by_spec_open(self, tmp_path, bad):
        spec = CacheSpec(cache_dir=str(tmp_path), fingerprint=bad)
        with pytest.raises(ValueError, match="malformed fingerprint") as err:
            spec.open()
        assert repr(bad) in str(err.value)

    def test_none_fingerprint_is_the_code_fingerprint(self, tmp_path):
        from repro.cache import code_fingerprint

        cache = ExperimentCache(cache_dir=tmp_path, fingerprint=None)
        assert cache.fingerprint == code_fingerprint()

    @pytest.mark.parametrize("root", ["cache", "cache/", "./cache", "a//b"])
    def test_get_and_put_address_the_public_blob_path(
        self, tmp_path, monkeypatch, root
    ):
        monkeypatch.chdir(tmp_path)
        cache = ExperimentCache(cache_dir=root, fingerprint="f00d")
        result = run_experiment(CFG)
        cache.put(CFG, result)
        path = _blob(cache, CFG)
        assert path.is_file()
        assert cache.get_blob("f00d", path.stem) == path.read_bytes()
        assert cache.get(CFG) == result
        assert [p for p, _, _ in cache.entries()] == [path]

    def test_raw_api_keeps_its_per_call_checks(self, cache):
        for fingerprint, key in (("..", "ab"), (cache.fingerprint, "../ab"),
                                 (cache.fingerprint, "")):
            with pytest.raises(ValueError):
                cache.blob_path(fingerprint, key)
            with pytest.raises(ValueError):
                cache.get_blob(fingerprint, key)
            with pytest.raises(ValueError):
                cache.put_blob(fingerprint, key, b"x")
        # get/put address through the same string builder, which still
        # checks the key on every call.
        from repro.cache.store import _blob_file

        with pytest.raises(ValueError, match="malformed cache key"):
            _blob_file(cache._fingerprint_dir, "../ab")


class TestCorruption:
    def test_truncated_blob_is_a_miss_not_an_exception(self, cache):
        result = run_experiment(CFG)
        cache.put(CFG, result)
        path = _blob(cache, CFG)
        path.write_bytes(path.read_bytes()[:10])  # truncate

        assert cache.get(CFG) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()  # self-healed
        # recompute-and-store works afterwards
        cache.put(CFG, result)
        assert cache.get(CFG) == result

    def test_garbage_bytes_are_a_miss(self, cache):
        cache.put(CFG, run_experiment(CFG))
        _blob(cache, CFG).write_bytes(b"not a pickle")
        assert cache.get(CFG) is None
        assert cache.stats.corrupt == 1

    def test_stored_key_mismatch_is_a_miss(self, cache):
        """A hash collision (forged here) must never return a wrong result."""
        result = run_experiment(CFG)
        path = _blob(cache, CFG)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"key": "someone-else", "result": result}))
        assert cache.get(CFG) is None
        assert cache.stats.corrupt == 1


class TestEviction:
    def test_oldest_entries_are_evicted_first(self, tmp_path):
        import os

        cache = ExperimentCache(cache_dir=tmp_path / "cache")
        results = []
        for seed in range(4):
            cfg = CFG.with_(seed=seed)
            cache.put(cfg, run_experiment(cfg))
            results.append(cfg)
        # age the first two entries so they are the LRU victims
        for cfg in results[:2]:
            os.utime(_blob(cache, cfg), (1.0, 1.0))

        total = cache.total_bytes()
        small = ExperimentCache(cache_dir=tmp_path / "cache",
                                max_bytes=total - 1)
        small.put(CFG.with_(seed=99), run_experiment(CFG.with_(seed=99)))

        assert small.stats.evictions >= 1
        assert small.total_bytes() <= small.max_bytes
        assert small.get(results[0]) is None        # oldest gone
        assert small.get(CFG.with_(seed=99)) is not None  # newest kept

    def test_hits_refresh_recency(self, tmp_path):
        import os

        cache = ExperimentCache(cache_dir=tmp_path / "cache")
        cache.put(CFG, run_experiment(CFG))
        path = _blob(cache, CFG)
        os.utime(path, (1.0, 1.0))
        cache.get(CFG)
        assert path.stat().st_mtime > 1.0


class TestVerifyMode:
    def test_verify_every_zero_never_samples(self, cache):
        cache.put(CFG, run_experiment(CFG))
        for _ in range(5):
            assert not cache.should_verify()
            cache.get(CFG)

    def test_verify_every_one_samples_every_hit(self, tmp_path):
        cache = ExperimentCache(cache_dir=tmp_path / "c", verify_every=1)
        cache.put(CFG, run_experiment(CFG))
        for _ in range(3):
            assert cache.should_verify()
            cache.get(CFG)

    def test_verify_every_n_samples_deterministically(self, tmp_path):
        cache = ExperimentCache(cache_dir=tmp_path / "c", verify_every=3)
        cache.put(CFG, run_experiment(CFG))
        sampled = []
        for _ in range(6):
            sampled.append(cache.should_verify())
            cache.get(CFG)
        assert sampled == [False, True, False, False, True, False]

    def test_record_verification_counts_matches_and_mismatches(self, cache):
        result = run_experiment(CFG)
        other = run_experiment(CFG.with_(seed=1))
        assert cache.record_verification(result, result)
        assert not cache.record_verification(result, other)
        assert cache.stats.verified == 2
        assert cache.stats.verify_failures == 1

    def test_negative_verify_every_is_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentCache(cache_dir=tmp_path, verify_every=-1)


class TestStats:
    def test_merge_and_snapshot(self):
        a = CacheStats(hits=2, misses=1, stores=1)
        b = CacheStats(hits=1, evictions=3, corrupt=1)
        snap = a.snapshot()
        a.merge(b)
        assert (a.hits, a.misses, a.evictions, a.corrupt) == (3, 1, 3, 1)
        assert snap.hits == 2  # snapshot is independent
        assert a.hits + a.misses == 4

    def test_format_is_the_cli_line(self):
        s = CacheStats(hits=3, misses=1, stores=1)
        assert s.format() == "cache: 3 hit(s), 1 miss(es), 1 store(s), 0 evicted"
        s.verified, s.verify_failures = 2, 1
        assert "2 verified (1 failed)" in s.format()


class TestSpecAndEnv:
    def test_spec_round_trips_through_pickle(self, tmp_path):
        cache = ExperimentCache(cache_dir=tmp_path / "c", max_bytes=1024,
                                verify_every=5)
        spec = pickle.loads(pickle.dumps(cache.spec))
        reopened = spec.open()
        assert reopened.root == cache.root
        assert reopened.max_bytes == 1024
        assert reopened.verify_every == 5

    def test_an_http_spec_reopens_the_http_tier(self):
        cache = HttpCache("http://127.0.0.1:9/", verify_every=3,
                          fingerprint="f00d")
        spec = pickle.loads(pickle.dumps(cache.spec))
        assert spec.cache_dir == "http://127.0.0.1:9"
        reopened = spec.open()
        assert type(reopened) is HttpCache
        assert (reopened.root, reopened.verify_every, reopened.fingerprint) \
            == ("http://127.0.0.1:9", 3, "f00d")
        assert type(CacheSpec(cache_dir="http-logs").open()) is ExperimentCache

    def test_cache_off_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert cache_from_env() is None
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert cache_from_env() is None
        monkeypatch.setenv("REPRO_CACHE", "off")
        assert cache_from_env() is None

    def test_env_activation_and_refinement(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        monkeypatch.setenv("REPRO_CACHE_VERIFY", "7")
        cache = cache_from_env()
        assert cache is not None
        assert cache.root == tmp_path / "envcache"
        assert cache.verify_every == 7

    @pytest.mark.parametrize("name, value", [
        ("REPRO_CACHE_MAX_BYTES", "1G"),  # was silently 512 MiB
        ("REPRO_CACHE_MAX_BYTES", "-5"),
        ("REPRO_CACHE_VERIFY", "-3"),  # was silently 0
        ("REPRO_CACHE_VERIFY", "every"),
    ])
    def test_a_malformed_env_count_is_refused_by_name(
        self, tmp_path, monkeypatch, capsys, name, value
    ):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        monkeypatch.setenv(name, value)
        with pytest.raises(ConfigurationError, match=f"{name}='{value}'"):
            cache_from_env()
        # ... and the CLI says so in one line, status 2, before any run
        with pytest.raises(SystemExit) as exc:
            main(["run", "--clusters", "2", "--apps", "2", "--n-cs", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{name}='{value}'" in err and "Traceback" not in err
        assert err.count("\n") == 1

    def test_default_dir_is_repro_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert str(ExperimentCache().root) == DEFAULT_CACHE_DIR

    def test_resolve_cache_convention(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert resolve_cache(None) is None
        assert resolve_cache("auto") is None  # env says off
        cache = ExperimentCache(cache_dir=tmp_path / "c")
        assert resolve_cache(cache) is cache
        opened = resolve_cache(CacheSpec(cache_dir=str(tmp_path / "c")))
        assert isinstance(opened, ExperimentCache)
        with pytest.raises(TypeError):
            resolve_cache("yes please")

    def test_run_experiment_without_cache_always_executes(self, cache):
        """Tier-1 safety paths never consult the cache implicitly."""
        result = run_experiment(CFG, cache=cache)
        assert cache.stats.hits + cache.stats.misses == 1
        run_experiment(CFG)  # no cache argument -> no cache traffic
        assert cache.stats.hits + cache.stats.misses == 1
        assert cache.get(CFG) == result


def test_the_http_tier_overrides_only_byte_io():
    """``ExperimentCache`` owns the contract — key derivation, the
    stored-key check, the counters, verification sampling, the spec — and
    the HTTP tier supplies only byte I/O."""
    contract = {"get", "put", "should_verify", "record_verification",
                "with_verify", "spec"}
    assert contract.isdisjoint(vars(HttpCache))
