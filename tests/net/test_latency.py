"""Unit tests for latency models."""

import numpy as np
import pytest

from repro.errors import NetworkError
from repro.net import (
    LOCAL_DELIVERY_MS,
    ConstantLatency,
    MatrixLatency,
    TwoTierLatency,
    uniform_topology,
)

RNG = np.random.default_rng(0)


def test_constant_latency():
    model = ConstantLatency(5.0)
    assert model.one_way(0, 1, RNG) == 5.0
    assert model.one_way(1, 0, RNG) == 5.0
    assert model.one_way(2, 2, RNG) == LOCAL_DELIVERY_MS


def test_constant_latency_negative_rejected():
    with pytest.raises(NetworkError):
        ConstantLatency(-1.0)


def test_two_tier_latency_hierarchy():
    topo = uniform_topology(2, 3)
    model = TwoTierLatency(topo, lan_ms=0.1, wan_ms=10.0)
    assert model.one_way(0, 1, RNG) == 0.1  # same cluster
    assert model.one_way(0, 3, RNG) == 10.0  # different clusters
    assert model.one_way(4, 4, RNG) == LOCAL_DELIVERY_MS


def test_two_tier_rejects_inverted_hierarchy():
    topo = uniform_topology(2, 2)
    with pytest.raises(NetworkError):
        TwoTierLatency(topo, lan_ms=5.0, wan_ms=1.0)
    with pytest.raises(NetworkError):
        TwoTierLatency(topo, lan_ms=-1.0, wan_ms=1.0)


def test_matrix_latency_uses_half_rtt():
    topo = uniform_topology(2, 2)
    rtt = [[0.1, 8.0], [6.0, 0.2]]
    model = MatrixLatency(topo, rtt)
    assert model.one_way(0, 2, RNG) == 4.0  # cluster 0 -> 1
    assert model.one_way(2, 0, RNG) == 3.0  # asymmetric direction
    assert model.one_way(0, 1, RNG) == 0.05  # intra-cluster, RTT/2
    assert model.mean_one_way(0, 1) == 4.0


def test_matrix_latency_validation():
    topo = uniform_topology(2, 2)
    with pytest.raises(NetworkError):
        MatrixLatency(topo, [[0.1, 1.0]])  # not square
    with pytest.raises(NetworkError):
        MatrixLatency(topo, [[0.1]])  # wrong size
    with pytest.raises(NetworkError):
        MatrixLatency(topo, [[0.1, -1.0], [1.0, 0.1]])  # negative


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_non_finite_or_negative_latencies_are_refused_by_name(bad):
    # A NaN passed every `< 0` check and reached the kernel as a due time.
    topo = uniform_topology(2, 2)
    builds = {
        "delay_ms": lambda: ConstantLatency(bad),
        "lan_ms": lambda: TwoTierLatency(topo, lan_ms=bad),
        "wan_ms": lambda: TwoTierLatency(topo, wan_ms=bad),
        "jitter": lambda: ConstantLatency(1.0, jitter=bad),
    }
    for name, build in builds.items():
        with pytest.raises(NetworkError, match=rf"{name} must be finite and >= 0, got {bad}"):
            build()
    with pytest.raises(NetworkError, match=rf"entry \[1, 0\] must be finite and >= 0, got {bad}"):
        MatrixLatency(topo, [[0.1, 8.0], [bad, 0.1]])


def test_jitter_preserves_mean_and_varies():
    topo = uniform_topology(2, 2)
    model = TwoTierLatency(topo, lan_ms=0.1, wan_ms=10.0, jitter=0.2)
    rng = np.random.default_rng(123)
    samples = np.array([model.one_way(0, 3, rng) for _ in range(4000)])
    assert samples.std() > 0.5  # jitter actually applied
    assert abs(samples.mean() - 10.0) < 0.5  # unbiased
    assert np.all(samples > 0)


def test_zero_jitter_is_deterministic():
    topo = uniform_topology(2, 2)
    model = TwoTierLatency(topo, lan_ms=0.1, wan_ms=10.0, jitter=0.0)
    rng = np.random.default_rng(123)
    assert {model.one_way(0, 3, rng) for _ in range(10)} == {10.0}


# --------------------------------------------------------------------- #
# the precomputed cluster-pair table and the jitter constants
# --------------------------------------------------------------------- #
def test_node_table_matches_cluster_math():
    topo = uniform_topology(3, 4)
    rtt = [[0.2, 8.0, 14.0], [6.0, 0.4, 20.0], [12.0, 18.0, 0.6]]
    model = MatrixLatency(topo, rtt)
    for src in range(topo.n_nodes):
        for dst in range(topo.n_nodes):
            got = model.one_way(src, dst, RNG)
            if src == dst:
                assert got == LOCAL_DELIVERY_MS
            else:
                ci, cj = topo.cluster_of(src), topo.cluster_of(dst)
                assert got == rtt[ci][cj] / 2.0
                assert got == model.mean_one_way(ci, cj)


def test_unbatched_jitter_matches_reference_formula():
    # Jitter must stay draw-for-draw identical to the seed
    # implementation: one lognormal(mean=-sigma^2/2, sigma) per call.
    sigma = 0.3
    model = ConstantLatency(10.0, jitter=sigma)
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
    seq = [model.one_way(0, 1, rng_a) for _ in range(20)]
    ref_seq = [
        10.0 * float(rng_b.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma))
        for _ in range(20)
    ]
    assert seq == ref_seq
