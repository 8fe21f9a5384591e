"""``ExperimentConfig.with_`` builds its copy from one ``__dict__`` copy;
it must stay indistinguishable from ``dataclasses.replace``: equality,
hash, cache key, pickle and canonical bytes, and ``__dict__`` order."""

from __future__ import annotations

import pickle
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.store import canonical_dumps
from repro.experiments import ExperimentConfig
from repro.experiments.config import (
    BACKENDS,
    OBS_LEVELS,
    PLATFORMS,
    QUEUES,
    SYSTEMS,
)

_finite = st.floats(allow_nan=False, allow_infinity=False)
_number = st.one_of(st.integers(-10**6, 10**6), _finite)  # int vs float
_optional_number = st.one_of(st.none(), _number)
_algorithm = st.sampled_from(("naimi", "suzuki", "martin", "raymond"))
_hierarchy = st.recursive(
    st.integers(0, 8),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=8,
)
_label = st.one_of(
    st.text(max_size=10),
    st.text(alphabet="é€😀ßΩ\x00\"\\", max_size=6),
)

#: A value strategy for every field, so a new field cannot slip past.
FIELDS = {
    "system": st.sampled_from(SYSTEMS),
    "intra": _algorithm,
    "inter": _algorithm,
    "middle": st.lists(_algorithm, max_size=3).map(tuple),
    "hierarchy": st.one_of(st.none(), _hierarchy),
    "platform": st.sampled_from(PLATFORMS),
    "n_clusters": st.integers(1, 9),
    "apps_per_cluster": st.integers(1, 30),
    "jitter": _number,
    "fifo": st.booleans(),
    "lan_ms": _number,
    "wan_ms": _number,
    "alpha_ms": _number,
    "rho": _number,
    "n_cs": st.integers(1, 200),
    "distribution": st.sampled_from(("exponential", "fixed")),
    "seed": st.integers(0, 2**40),
    "tie_seed": st.one_of(st.none(), st.integers(-5, 2**40)),
    "check_safety": st.booleans(),
    "deadline_ms": _optional_number,
    "obs": st.sampled_from(OBS_LEVELS),
    "backend": st.sampled_from(BACKENDS),
    "queue": st.sampled_from(QUEUES),
    "batch_delivery": st.one_of(st.none(), st.booleans()),
    "horizon": st.booleans(),
    "label": _label,
}

_subset = st.fixed_dictionaries({}, optional=FIELDS)


def test_every_field_has_a_strategy():
    assert sorted(FIELDS) == sorted(f.name for f in fields(ExperimentConfig))


def test_config_has_nothing_the_dict_copy_would_skip():
    # with_ copies __dict__ and never runs __init__: each of these would
    # make it differ from dataclasses.replace.  Go back to replace (or
    # teach with_ the new case) before relaxing any of them.
    assert not hasattr(ExperimentConfig, "__post_init__"), (
        "ExperimentConfig gained __post_init__, which with_ would skip"
    )
    assert all(f.init for f in fields(ExperimentConfig)), (
        "ExperimentConfig gained an init=False field, which with_ would copy "
        "where replace recomputes it"
    )
    assert ExperimentConfig.__subclasses__() == [], (
        "ExperimentConfig has a subclass, whose __init__ with_ would skip"
    )
    assert list(vars(ExperimentConfig())) == [
        f.name for f in fields(ExperimentConfig)
    ], "a config's __dict__ must hold exactly its fields, in declaration order"


def _same(a: ExperimentConfig, b: ExperimentConfig) -> None:
    assert type(a) is type(b)
    assert a == b and hash(a) == hash(b)
    assert a.cache_key() == b.cache_key()
    assert pickle.dumps(a) == pickle.dumps(b)
    assert canonical_dumps(a) == canonical_dumps(b)
    assert list(vars(a)) == list(vars(b))
    assert all(vars(a)[k] is vars(b)[k] for k in vars(a))


@settings(max_examples=300, deadline=None)
@given(_subset, _subset)
def test_with_matches_replace(base, changes):
    config = ExperimentConfig(**base)
    _same(config.with_(**changes), replace(config, **changes))


@settings(max_examples=50, deadline=None)
@given(_subset)
def test_with_leaves_the_original_alone(changes):
    config = ExperimentConfig()
    before = pickle.dumps(config)
    config.with_(**changes)
    assert pickle.dumps(config) == before


@pytest.mark.parametrize(
    "changes",
    [{"nope": 1}, {"seed": 3, "nope": 1}, {"nope": 1, "seed": 3},
     {"rho_over_n": 0.5}, {"a": 1, "b": 2}],
)
def test_unknown_field_raises_replaces_type_error(changes):
    config = ExperimentConfig()
    with pytest.raises(TypeError) as ours:
        config.with_(**changes)
    with pytest.raises(TypeError) as theirs:
        replace(config, **changes)
    assert str(ours.value) == str(theirs.value)


def test_copy_is_frozen():
    from dataclasses import FrozenInstanceError

    copy = ExperimentConfig().with_(seed=5)
    with pytest.raises(FrozenInstanceError):
        copy.seed = 6  # type: ignore[misc]
