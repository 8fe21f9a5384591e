"""Unit tests for the algorithm registry."""

import pytest

from repro.errors import ConfigurationError
from repro.mutex import (
    AlgorithmInfo,
    MartinPeer,
    NaimiTrehelPeer,
    SuzukiKasamiPeer,
    available_algorithms,
    get_algorithm,
    register,
)
from repro.mutex import registry


def test_builtins_present():
    algos = available_algorithms()
    for name in (
        "martin", "naimi", "suzuki", "raymond",
        "ricart-agrawala", "maekawa", "centralized", "priority-naimi",
    ):
        assert name in algos


def test_lookup_by_name_and_alias():
    assert get_algorithm("naimi").peer_class is NaimiTrehelPeer
    assert get_algorithm("naimi-trehel").peer_class is NaimiTrehelPeer
    assert get_algorithm("suzuki_kasami").peer_class is SuzukiKasamiPeer
    assert get_algorithm("MARTIN").peer_class is MartinPeer
    assert get_algorithm("  ra ").peer_class.algorithm_name == "ricart-agrawala"


def test_unknown_name_lists_known():
    with pytest.raises(ConfigurationError) as exc:
        get_algorithm("zookeeper")
    assert "naimi" in str(exc.value)


def test_metadata():
    naimi = get_algorithm("naimi")
    assert naimi.token_based
    assert naimi.topology == "dynamic tree"
    assert "log" in naimi.messages_per_cs
    ra = get_algorithm("ricart-agrawala")
    assert not ra.token_based


def test_register_custom_and_reject_duplicates(monkeypatch):
    # On a copy: a registration left behind would change what every later
    # test sees as "every registered algorithm".
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))

    class MyPeer(NaimiTrehelPeer):
        algorithm_name = "my-algo"

    register(AlgorithmInfo("my-algo-test", MyPeer, True, "tree", "O(log N)"))
    assert get_algorithm("my-algo-test").peer_class is MyPeer
    with pytest.raises(ConfigurationError):
        register(AlgorithmInfo("my-algo-test", MyPeer, True, "tree", "O(log N)"))


def test_register_rejects_non_peer_class():
    with pytest.raises(ConfigurationError):
        register(AlgorithmInfo("bogus-class", dict, True, "none", "?"))


def test_available_algorithms_returns_copy():
    algos = available_algorithms()
    algos.clear()
    assert available_algorithms()  # registry unaffected
