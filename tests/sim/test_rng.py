"""Unit tests for deterministic RNG streams."""

import ast
import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.rng as rng_module
from repro.core import Composition
from repro.net import ConstantLatency, Network, uniform_topology
from repro.sim import RngRegistry, Simulator, stable_hash
from repro.workload import ApplicationProcess, deploy_workload


def test_same_seed_same_stream():
    a = RngRegistry(42).stream("node/0")
    b = RngRegistry(42).stream("node/0")
    assert a.random(5).tolist() == b.random(5).tolist()


def test_different_labels_independent():
    reg = RngRegistry(42)
    a = reg.stream("node/0").random(5)
    b = reg.stream("node/1").random(5)
    assert a.tolist() != b.tolist()


def test_stream_is_cached_and_stateful():
    reg = RngRegistry(42)
    first = reg.stream("x").random()
    second = reg.stream("x").random()
    assert first != second  # same generator, state advanced
    assert reg.stream("x") is reg.stream("x")


def test_fresh_replays_from_start():
    reg = RngRegistry(42)
    reg.stream("x").random(10)  # advance the cached stream
    replay1 = reg.fresh("x").random(3)
    replay2 = reg.fresh("x").random(3)
    assert replay1.tolist() == replay2.tolist()


def test_creation_order_does_not_matter():
    r1 = RngRegistry(7)
    r1.stream("a")
    va = r1.stream("b").random(4)

    r2 = RngRegistry(7)
    vb = r2.stream("b").random(4)  # "a" never created here
    assert va.tolist() == vb.tolist()


def test_stable_hash_is_stable_and_distinct():
    assert stable_hash("alpha") == stable_hash("alpha")
    assert stable_hash("alpha") != stable_hash("beta")
    assert 0 <= stable_hash("anything") < 2**64


def test_none_seed_draws_entropy():
    a = RngRegistry(None)
    b = RngRegistry(None)
    assert a.seed != b.seed  # astronomically unlikely to collide


# --------------------------------------------------------------------- #
# The bulk derivation against numpy's own SeedSequence
# --------------------------------------------------------------------- #
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 12345, 2**130]


def oracle(seed, entropy):
    return np.random.default_rng(np.random.SeedSequence([seed, entropy]))


def assert_same_stream(gen, expected):
    assert gen.bit_generator.state == expected.bit_generator.state
    assert gen.random(4).tolist() == expected.random(4).tolist()
    assert gen.integers(0, 2**40, 3).tolist() == (
        expected.integers(0, 2**40, 3).tolist()
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**140),
    labels=st.lists(st.text(max_size=12), min_size=1, max_size=12),
)
def test_streams_match_seedsequence(seed, labels):
    labels = labels + labels[:2]  # duplicates
    reg = RngRegistry(seed)
    gens = reg.streams(labels)
    assert len(gens) == len(labels)
    for label, gen in zip(labels, gens):
        assert gen is reg.stream(label)
    for label in dict.fromkeys(labels):
        assert_same_stream(reg.stream(label), oracle(seed, stable_hash(label)))


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_stream_and_fresh_match_seedsequence(seed):
    reg = RngRegistry(seed)
    for label in ("network/latency", "app@0/think", "ünïcødé/λ", ""):
        assert_same_stream(reg.fresh(label), oracle(seed, stable_hash(label)))
        assert_same_stream(reg.stream(label), oracle(seed, stable_hash(label)))


def test_os_entropy_seed_matches_seedsequence():
    reg = RngRegistry(None)
    assert reg.seed >= 2**64  # 128 bits: six entropy words with the hash
    for label, gen in zip(["a", "b"], reg.streams(["a", "b"])):
        assert_same_stream(gen, oracle(reg.seed, stable_hash(label)))


def test_short_hashes_mix_as_fewer_words(monkeypatch):
    # A hash below 2**32 is one entropy word; one of 2**32 labels has
    # one, so the hash is forced here.
    hashes = {"zero": 0, "one": 1, "low": 2**32 - 1, "wide": 2**32,
              "top": 2**64 - 1}
    monkeypatch.setattr(rng_module, "stable_hash", hashes.__getitem__)
    for seed in (0, 9, 2**40, 2**64 + 5, 2**130):
        gens = RngRegistry(seed).streams(list(hashes))
        for label, gen in zip(hashes, gens):
            assert_same_stream(gen, oracle(seed, hashes[label]))


def test_cached_label_comes_back_unreset():
    reg = RngRegistry(3)
    gen = reg.stream("x")
    gen.random(5)
    state = gen.bit_generator.state
    again, new = reg.streams(["x", "y"])
    assert again is gen
    assert again.bit_generator.state == state
    assert_same_stream(new, oracle(3, stable_hash("y")))


def test_derived_stream_survives_pickle_and_deepcopy():
    gen = RngRegistry(11).stream("p")
    gen.random(3)
    for clone in (pickle.loads(pickle.dumps(gen)), copy.deepcopy(gen)):
        assert clone is not gen
        assert clone.bit_generator.state == gen.bit_generator.state
        assert clone.random(5).tolist() == copy.deepcopy(gen).random(5).tolist()


def test_seed_words_are_let_go_once_pcg64_has_read_them():
    registry = RngRegistry(7)
    gen = registry.stream("a")
    first = gen.random(4).tolist()
    seed_words = gen.bit_generator._seed_seq
    assert seed_words.words is None
    with pytest.raises(ValueError, match=r"read once, by its PCG64.*fresh"):
        seed_words.generate_state(4, np.uint64)
    assert registry.fresh("a").random(4).tolist() == first
    assert_same_stream(registry.fresh("a"), oracle(7, stable_hash("a")))


# --------------------------------------------------------------------- #
# Seeds the registry refuses
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [1.5, 1.0, True, False, "7", -1, -(2**70),
                                  np.int64(-2), np.float64(3.0), np.bool_(1)])
def test_refuses_non_integer_and_negative_seeds(seed):
    with pytest.raises(ValueError, match=re.escape(repr(seed))):
        RngRegistry(seed)


@pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), np.uint8(7)])
def test_numpy_integer_seeds_are_accepted(seed):
    reg = RngRegistry(seed)
    assert reg.seed == 7 and type(reg.seed) is int
    assert_same_stream(reg.stream("s"), RngRegistry(7).fresh("s"))


# --------------------------------------------------------------------- #
# Where derivations happen
# --------------------------------------------------------------------- #
def test_seedsequence_is_called_only_for_os_entropy():
    # No other module calls it: the invariant table's SeedSequence row.
    with open(rng_module.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    owners = [
        (cls.name, fn.name)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "SeedSequence"
    ]
    assert owners == [("RngRegistry", "__init__")]


def _system(seed, n_apps=6):
    sim = Simulator(seed=seed)
    topo = uniform_topology(2, n_apps // 2 + 1)
    net = Network(sim, topo, ConstantLatency(0.5))
    return Composition(sim, net, topo, intra="naimi", inter="naimi")


def test_one_deploy_is_one_derivation(monkeypatch):
    system = _system(4)
    calls = []
    derive = RngRegistry._derive

    def counting(self, labels):
        calls.append(list(labels))
        return derive(self, labels)

    monkeypatch.setattr(RngRegistry, "_derive", counting)
    apps, _ = deploy_workload(system, alpha_ms=1.0, rho=2.0, n_cs=3)
    assert calls == [
        [ApplicationProcess.think_label(n) for n in system.app_nodes]
    ]
    for app in apps:
        assert app._rng is system.sim.rng.stream(f"{app.name}/think")


def test_second_deploy_continues_each_stream():
    system = _system(8)
    first, _ = deploy_workload(system, alpha_ms=1.0, rho=2.0, n_cs=3)
    system.sim.run()
    states = {app.peer.node: app._rng.bit_generator.state for app in first}
    second, _ = deploy_workload(system, alpha_ms=1.0, rho=2.0, n_cs=3)
    for old, new in zip(first, second):
        assert new._rng is old._rng
    # The second phase's first draws follow on from the first phase's.
    for app in second:
        replay = system.sim.rng.fresh(app.think_label(app.peer.node))
        replay.bit_generator.state = states[app.peer.node]
        block = min(64, app.n_cs)
        expected = replay.exponential(app.beta, size=block)
        assert app._thinks[::-1] == expected.tolist()[1:]
