"""Canonical serialization and code-fingerprint tests.

The golden string below is the contract: any drift in field order,
float formatting or tuple rendering splits (or aliases) cache keys, so
it must fail loudly here first.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cache.keys import (
    CACHE_SCHEMA_VERSION,
    DIGEST_RELEVANT_PACKAGES,
    canonical_json,
    code_fingerprint,
    config_key,
)
from repro.experiments import ExperimentConfig

TINY = ExperimentConfig(n_clusters=2, apps_per_cluster=2, n_cs=3, rho=4.0,
                        platform="two-tier", seed=7)

#: Exact canonical rendering of ``TINY`` — update deliberately (and bump
#: CACHE_SCHEMA_VERSION) when ExperimentConfig gains or renames a field.
GOLDEN = (
    '{"alpha_ms":10.0,"apps_per_cluster":2,'
    '"check_safety":true,"deadline_ms":null,'
    '"distribution":"exponential","fifo":false,"hierarchy":null,'
    '"inter":"naimi","intra":"naimi","jitter":0.0,"label":"",'
    '"lan_ms":0.05,"middle":[],"n_clusters":2,"n_cs":3,"obs":"off",'
    '"platform":"two-tier","rho":4.0,"seed":7,"system":"composition",'
    '"tie_seed":null,"wan_ms":10.0}'
)


class TestCanonicalJson:
    def test_golden_rendering_is_pinned(self):
        assert TINY.cache_key() == GOLDEN

    def test_every_config_field_participates(self):
        import json
        from dataclasses import fields

        rendered = json.loads(TINY.cache_key())
        assert sorted(rendered) == sorted(
            f.name for f in fields(TINY)
            if f.metadata.get("cache_key", True)
        )

    def test_backend_is_excluded_from_the_key(self):
        # Retired field, read by nothing: one cache entry.
        assert "backend" not in TINY.cache_key()
        assert (
            TINY.with_(backend="compiled").cache_key() == TINY.cache_key()
        )

    def test_queue_is_excluded_from_the_key(self):
        # Retired field, read by nothing: one cache entry.
        assert "queue" not in TINY.cache_key()
        assert TINY.with_(queue="calendar").cache_key() == TINY.cache_key()

    def test_batch_delivery_is_excluded_from_the_key(self):
        # Retired field, read by nothing: must not split the key space.
        assert "batch_delivery" not in TINY.cache_key()
        assert (
            TINY.with_(batch_delivery=True).cache_key() == TINY.cache_key()
        )
        assert (
            TINY.with_(batch_delivery=False).cache_key() == TINY.cache_key()
        )

    def test_metadata_excluded_fields_are_skipped(self):
        from dataclasses import dataclass, field

        @dataclass(frozen=True)
        class Cfg:
            x: int = 3
            scratch: str = field(default="a",
                                 metadata={"cache_key": False})

        assert canonical_json(Cfg()) == '{"x":3}'
        assert canonical_json(Cfg(scratch="b")) == '{"x":3}'

    def test_keys_are_sorted_regardless_of_field_order(self):
        # dict insertion order must never leak into the rendering
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
        assert canonical_json({"a": 2, "b": 1}) == '{"a":2,"b":1}'

    def test_float_formatting_is_shortest_roundtrip_repr(self):
        assert canonical_json(0.1) == "0.1"
        assert canonical_json(1.0) == "1.0"
        assert canonical_json(1e22) == "1e+22"
        assert canonical_json(0.1 + 0.2) == "0.30000000000000004"

    def test_non_finite_floats_are_rejected(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))
        with pytest.raises(ValueError):
            canonical_json(float("inf"))

    def test_int_and_float_render_distinctly(self):
        assert canonical_json(1) == "1"
        assert canonical_json(1.0) == "1.0"

    def test_nested_hierarchy_tuples_become_arrays(self):
        cfg = TINY.with_(
            middle=("suzuki", "martin"),
            hierarchy=((0, 1), (2, (3, 4))),
        )
        text = cfg.cache_key()
        assert '"middle":["suzuki","martin"]' in text
        assert '"hierarchy":[[0,1],[2,[3,4]]]' in text

    def test_strings_are_ascii_escaped(self):
        assert canonical_json("café") == '"caf\\u00e9"'

    def test_uncacheable_values_raise(self):
        with pytest.raises(TypeError):
            canonical_json(object())

    def test_distinct_configs_get_distinct_keys(self):
        assert TINY.cache_key() != TINY.with_(seed=8).cache_key()
        assert TINY.cache_key() != TINY.with_(rho=5.0).cache_key()


class TestConfigKey:
    def test_is_sha256_of_canonical_json(self):
        expected = hashlib.sha256(GOLDEN.encode("utf-8")).hexdigest()
        assert config_key(TINY) == expected

    def test_falls_back_to_canonical_json_without_cache_key_method(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Plain:
            x: int = 3

        expected = hashlib.sha256(b'{"x":3}').hexdigest()
        assert config_key(Plain()) == expected


class TestCodeFingerprint:
    def test_stable_within_a_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert code_fingerprint(refresh=True) == code_fingerprint()

    def test_is_short_hex(self):
        fp = code_fingerprint()
        assert len(fp) == 16
        int(fp, 16)  # raises if not hex

    def test_covers_exactly_the_digest_relevant_closure(self):
        assert DIGEST_RELEVANT_PACKAGES == (
            "sim", "net", "mutex", "core", "grid", "workload"
        )
        root = Path(repro.__file__).resolve().parent
        for package in DIGEST_RELEVANT_PACKAGES:
            assert (root / package).is_dir(), package

    def test_source_edit_changes_fingerprint(self, tmp_path, monkeypatch):
        """Editing any digest-relevant module must invalidate the cache."""
        fake = tmp_path / "repro"
        for package in DIGEST_RELEVANT_PACKAGES:
            (fake / package).mkdir(parents=True)
            (fake / package / "mod.py").write_text("X = 1\n")
        (fake / "__init__.py").write_text("")
        monkeypatch.setattr(repro, "__file__", str(fake / "__init__.py"))

        before = code_fingerprint(refresh=True)
        (fake / "sim" / "mod.py").write_text("X = 2\n")
        after = code_fingerprint(refresh=True)
        assert before != after

        # a non-digest-relevant edit (e.g. experiments/) does not
        (fake / "experiments").mkdir()
        (fake / "experiments" / "mod.py").write_text("Y = 1\n")
        assert code_fingerprint(refresh=True) == after

        code_fingerprint(refresh=True)  # leave the memo pointing at fake
        monkeypatch.undo()
        code_fingerprint(refresh=True)  # restore the real fingerprint

    def test_schema_version_participates(self, monkeypatch):
        import repro.cache.keys as keys

        before = code_fingerprint(refresh=True)
        monkeypatch.setattr(keys, "CACHE_SCHEMA_VERSION",
                            CACHE_SCHEMA_VERSION + 1)
        assert code_fingerprint(refresh=True) != before
        monkeypatch.undo()
        assert code_fingerprint(refresh=True) == before


# --------------------------------------------------------------------- #
# The renderer against the recursive one it replaced
# --------------------------------------------------------------------- #
def _oracle_canonical(value):
    """The recursive renderer every key was made by before the per-class
    plan, kept verbatim as the oracle the plan must match."""
    import json
    from dataclasses import is_dataclass

    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"non-finite float {value!r} is not cacheable")
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=True)
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(_oracle_canonical(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted((str(k), v) for k, v in value.items())
        body = ",".join(
            f"{_oracle_canonical(k)}:{_oracle_canonical(v)}" for k, v in items
        )
        return "{" + body + "}"
    if is_dataclass(value) and not isinstance(value, type):
        return _oracle_json(value)
    raise TypeError(f"uncacheable value of type {type(value).__name__}: {value!r}")


def _oracle_json(config):
    from dataclasses import fields, is_dataclass

    if is_dataclass(config) and not isinstance(config, type):
        payload = {
            f.name: getattr(config, f.name)
            for f in fields(config)
            if f.metadata.get("cache_key", True)
        }
        return _oracle_canonical(payload)
    return _oracle_canonical(config)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_number = st.one_of(st.integers(-10**20, 10**20), _finite)
_hierarchy = st.recursive(
    st.integers(0, 50),
    lambda inner: st.lists(inner, max_size=4).map(tuple),
    max_leaves=12,
)
_label = st.one_of(
    st.text(max_size=12),
    st.text(alphabet='"\\/\b\f\n\r\t\x00\x1fé€😀', max_size=8),
)


@st.composite
def _configs(draw):
    return ExperimentConfig(
        system=draw(st.sampled_from(("composition", "flat", "adaptive"))),
        middle=draw(st.lists(st.text(max_size=6), max_size=3).map(tuple)),
        hierarchy=draw(st.one_of(st.none(), _hierarchy)),
        n_clusters=draw(st.integers(1, 9)),
        jitter=draw(_number),
        fifo=draw(st.booleans()),
        alpha_ms=draw(_number),
        rho=draw(_number),
        seed=draw(st.integers(0, 2**64)),
        tie_seed=draw(st.one_of(st.none(), st.integers(-5, 2**40))),
        check_safety=draw(st.booleans()),
        deadline_ms=draw(st.one_of(st.none(), _number)),
        batch_delivery=draw(st.one_of(st.none(), st.booleans())),
        horizon=draw(st.booleans()),
        label=draw(_label),
    )


class TestAgainstTheRecursiveRenderer:
    @settings(max_examples=300, deadline=None)
    @given(_configs())
    def test_every_config_renders_as_the_oracle_does(self, config):
        assert config.cache_key() == _oracle_json(config)
        assert canonical_json(config) == _oracle_json(config)

    @settings(max_examples=100, deadline=None)
    @given(_hierarchy, _label, _number)
    def test_plain_values_render_as_the_oracle_does(self, tree, text, number):
        for value in (tree, text, number, {"b": tree, "a": [text, number]}):
            assert canonical_json(value) == _oracle_canonical(value)

    def test_golden_matches_the_oracle(self):
        assert _oracle_json(TINY) == GOLDEN

    def test_int_and_float_rho_stay_apart(self):
        # Equal configs, distinct keys: why nothing may memoise by equality.
        assert TINY.with_(rho=4) == TINY
        assert '"rho":4,' in TINY.with_(rho=4).cache_key()
        assert '"rho":4.0,' in TINY.cache_key()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("where", ["rho", "deadline_ms", "hierarchy"])
    def test_non_finite_floats_still_raise(self, bad, where):
        value = ((0, bad),) if where == "hierarchy" else bad
        with pytest.raises(ValueError):
            TINY.with_(**{where: value}).cache_key()

    @pytest.mark.parametrize("where", ["label", "hierarchy", "tie_seed"])
    def test_unsupported_types_still_raise(self, where):
        for value in (object(), frozenset({1}), (1, {2})):
            with pytest.raises(TypeError):
                TINY.with_(**{where: value}).cache_key()


class TestNumericSubclasses:
    """A config that passes ``validate()`` with a numpy float (or any int
    or float subclass) renders exactly as its plain twin: same run, same
    entry, and the key stays JSON."""

    def test_numpy_float_renders_as_a_plain_float(self):
        import json

        np = pytest.importorskip("numpy")
        config = TINY.with_(rho=np.float64(4.0), alpha_ms=np.float64(10.0))
        config.validate()
        assert config.cache_key() == TINY.cache_key() == GOLDEN
        assert json.loads(config.cache_key())["rho"] == 4.0

    def test_numpy_non_finite_float_still_raises(self):
        np = pytest.importorskip("numpy")
        with pytest.raises(ValueError):
            TINY.with_(rho=np.float64("nan")).cache_key()

    def test_int_subclass_renders_as_a_plain_int(self):
        import enum
        import json

        class Seed(enum.IntEnum):
            SEVEN = 7

        config = TINY.with_(seed=Seed.SEVEN)
        config.validate()
        assert config.cache_key() == GOLDEN
        assert json.loads(config.cache_key())["seed"] == 7
