"""Unit tests for experiment configuration."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig, run_experiment


def test_defaults_match_paper():
    cfg = ExperimentConfig()
    cfg.validate()
    assert cfg.n_apps == 180
    assert cfg.alpha_ms == 10.0
    assert cfg.n_cs == 100
    assert cfg.platform == "grid5000"
    assert cfg.nodes_per_cluster == 21  # 20 apps + coordinator slot


def test_rho_over_n():
    cfg = ExperimentConfig(rho=360.0)
    assert cfg.rho_over_n == pytest.approx(2.0)


def test_with_copies():
    cfg = ExperimentConfig()
    other = cfg.with_(rho=90.0, intra="martin")
    assert other.rho == 90.0 and other.intra == "martin"
    assert cfg.rho == 180.0  # original untouched


def test_reserved_slots():
    assert ExperimentConfig(system="flat").reserved_slots == 1
    assert ExperimentConfig(system="composition").reserved_slots == 1
    ml = ExperimentConfig(
        intra="naimi", middle=("naimi",), inter="martin",
        hierarchy=((0, 1), (2, 3)),
        n_clusters=4,
    )
    assert ml.reserved_slots == 2
    assert ml.nodes_per_cluster == 22


def test_default_deadline_scales_with_workload():
    small = ExperimentConfig(apps_per_cluster=2, n_cs=5)
    large = ExperimentConfig(apps_per_cluster=20, n_cs=100)
    assert large.default_deadline() > small.default_deadline()


@pytest.mark.parametrize(
    "changes",
    [
        {"system": "nonsense"},
        {"platform": "ethernet"},
        {"intra": "unknown-algo"},
        {"inter": "unknown-algo"},
        {"middle": ("naimi",)},  # no hierarchy
        {"hierarchy": ((0, 1), (2, 3)), "n_clusters": 4},  # no middle
        {"platform": "grid5000", "n_clusters": 10},
        {"n_clusters": 0},
        {"apps_per_cluster": 0},
        {"alpha_ms": 0.0},
        {"rho": 0.0},
        {"n_cs": 0},
        {"distribution": "pareto"},
        {"backend": "jit"},
        {"queue": "fifo"},
    ],
)
def test_validation_rejects(changes):
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**changes).validate()


@pytest.mark.parametrize(
    "field,value",
    [
        ("horizon", "no"),  # each of these used to run, and answer wrongly
        ("batch_delivery", "yes"),
        ("n_cs", 1.5),
        ("jitter", -0.5),
        ("rho", float("nan")),
        ("alpha_ms", float("inf")),
        ("deadline_ms", -1),
        ("n_clusters", True),
        ("queue", "no-such-queue"),
        ("seed", -1),  # died inside numpy, after a sweep had "validated" it
        ("seed", 1.0),
        ("tie_seed", True),
        ("tie_seed", "3"),
    ],
)
def test_invalid_value_is_refused_by_field_name_before_anything_runs(field, value):
    with pytest.raises(ConfigurationError, match=field):
        run_experiment(ExperimentConfig(**{field: value}))


@pytest.mark.parametrize(
    "field,changes",
    [
        ("hierarchy", {"hierarchy": "abc"}),  # was a RecursionError in build()
        ("hierarchy", {"hierarchy": [0, 1, 2]}),  # ran, but unhashable
        ("hierarchy", {"hierarchy": (0, 1)}),  # the rest failed in build()
        ("hierarchy", {"hierarchy": (0, 0, 1, 2)}),
        ("hierarchy", {"hierarchy": (True, 1, 2)}),
        ("hierarchy", {"hierarchy": (0, (1, 2))}),
        ("hierarchy", {"hierarchy": None, "middle": ("naimi",)}),
        ("middle", {"middle": ("naimi",)}),
        ("middle", {"hierarchy": ((0, 1), (2,))}),
        ("middle", {"hierarchy": ((0, 1), (2,)), "middle": ["naimi"]}),
    ],
    ids=["string", "list", "missing", "repeated", "bool", "mixed-depth",
         "none", "too-many-algorithms", "too-few-algorithms",
         "algorithm-list"],
)
def test_multilevel_tree_is_refused_by_field_name(field, changes):
    config = ExperimentConfig(
        intra="naimi", inter="naimi",
        hierarchy=(0, 1, 2), n_clusters=3, apps_per_cluster=2, n_cs=2,
    )
    config.validate()
    config = config.with_(**changes)
    with pytest.raises(ConfigurationError, match=field):
        config.validate()


@pytest.mark.parametrize("inter", ["ricart-agrawala", "maekawa"])
def test_adaptive_with_a_permission_inter_is_refused_by_validate(inter):
    # Used to validate, then raise a CompositionError inside build().
    config = ExperimentConfig(system="adaptive", inter=inter)
    with pytest.raises(ConfigurationError, match="inter"):
        config.validate()


@pytest.mark.parametrize("system", ["flat", "adaptive"])
@pytest.mark.parametrize(
    "field,value,default",
    [("hierarchy", (2, 0, 1), None), ("middle", ("naimi",), ())],
)
def test_multilevel_fields_are_refused_elsewhere(system, field, value, default):
    # Such a config ran as the default one but cached under its own key.
    config = ExperimentConfig(system=system, n_clusters=3, **{field: value})
    assert config.cache_key() != config.with_(**{field: default}).cache_key()
    with pytest.raises(ConfigurationError, match=field):
        config.validate()


def test_flat_refuses_an_inter_it_never_reads():
    # FlatMutex runs intra alone: such a config ran as the default one
    # but cached under its own key.
    config = ExperimentConfig(system="flat", inter="martin")
    assert config.cache_key() != config.with_(inter="naimi").cache_key()
    with pytest.raises(ConfigurationError, match="inter"):
        config.validate()
    config.with_(inter="naimi").validate()


def test_valid_multilevel_config_is_hashable():
    config = ExperimentConfig(
        intra="naimi", middle=("suzuki",), inter="martin",
        hierarchy=((0, 2), (1,)), n_clusters=3,
    )
    config.validate()
    assert hash(config) == hash(config.with_())


def test_describe():
    assert "naimi-martin" in ExperimentConfig(inter="martin").describe()
    assert "(flat)" in ExperimentConfig(system="flat").describe()
    assert ExperimentConfig(label="custom").describe() == "custom"
    two = ExperimentConfig(
        intra="naimi", inter="martin", hierarchy=(0,), n_clusters=1,
    )
    assert two.describe().startswith("naimi-martin:h(0,) on ")
    three = two.with_(
        middle=("suzuki",), hierarchy=((0, 1), (2,)), n_clusters=3,
    )
    assert three.describe().startswith("naimi-suzuki-martin:h((0,1),(2,)) on ")
