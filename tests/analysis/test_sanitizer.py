"""Tests for the schedule-race sanitizer.

The headline assertion (acceptance criterion): the full
``{naimi, suzuki, martin} x {flat, composition}`` matrix shows **zero
divergence** under perturbed same-timestamp tie-breaking.  Alongside it,
a toy order-dependent system proves the sanitizer machinery actually
*can* detect a race — zero divergence means something only if the
detector has a demonstrated positive.
"""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import (
    DEFAULT_TIE_SEEDS,
    CanonicalDigest,
    default_sanitizer_matrix,
    sanitize_config,
    sanitize_matrix,
)
from repro.errors import LivenessViolation
from repro.sim import Simulator


# --------------------------------------------------------------------- #
# CanonicalDigest
# --------------------------------------------------------------------- #
def digest_of(records):
    """Canonical digest of a list of (kind, fields) emitted in order."""
    sim = Simulator(seed=0)
    digest = CanonicalDigest(sim)
    for kind, fields in records:
        sim.trace.emit(kind, **fields)
    return digest.hexdigest


class TestCanonicalDigest:
    def test_invariant_under_same_instant_reordering(self):
        a = [
            ("send", {"time": 1.0, "src": 0, "dst": 1}),
            ("send", {"time": 1.0, "src": 2, "dst": 3}),
            ("cs_enter", {"time": 2.0, "node": 1}),
        ]
        b = [a[1], a[0], a[2]]  # swap the two t=1.0 records
        assert digest_of(a) == digest_of(b)

    def test_sensitive_to_cross_instant_reordering(self):
        a = [
            ("send", {"time": 1.0, "src": 0, "dst": 1}),
            ("send", {"time": 2.0, "src": 2, "dst": 3}),
        ]
        b = [
            ("send", {"time": 1.0, "src": 2, "dst": 3}),
            ("send", {"time": 2.0, "src": 0, "dst": 1}),
        ]
        assert digest_of(a) != digest_of(b)

    def test_sensitive_to_content(self):
        a = [("send", {"time": 1.0, "src": 0, "dst": 1})]
        b = [("send", {"time": 1.0, "src": 0, "dst": 2})]
        assert digest_of(a) != digest_of(b)

    def test_sensitive_to_multiplicity(self):
        a = [("send", {"time": 1.0, "src": 0, "dst": 1})]
        assert digest_of(a) != digest_of(a + a)

    def test_counts_events(self):
        sim = Simulator(seed=0)
        digest = CanonicalDigest(sim)
        sim.trace.emit("send", time=0.0)
        sim.trace.emit("cs_enter", time=0.0)
        sim.trace.emit("deliver", time=0.0)  # not a digest kind
        assert digest.events == 2

    def test_blind_to_the_send_seq(self):
        # A send's seq numbers it in scheduling order — exactly what a tie
        # seed permutes — so two runs may differ there and nowhere else.
        a = [
            ("send", {"time": 1.0, "src": 0, "dst": 1, "seq": 4}),
            ("send", {"time": 1.0, "src": 2, "dst": 3, "seq": 5}),
        ]
        b = [(kind, {**fields, "seq": 9 - fields["seq"]}) for kind, fields in a]
        assert digest_of(a) == digest_of(b)
        c = [(kind, {**fields, "dst": 7}) for kind, fields in b]
        assert digest_of(a) != digest_of(c)


# --------------------------------------------------------------------- #
# positive control: the sanitizer CAN see a race
# --------------------------------------------------------------------- #
def _racy_digest(tie_seed):
    """A deliberately order-dependent system: same-instant events append
    to a shared log, and a later event publishes the accumulated order.
    Under perturbed tie-breaking the *content* of the published record
    changes — a genuine race the canonical digest must catch."""
    sim = Simulator(seed=0, tie_seed=tie_seed)
    digest = CanonicalDigest(sim)
    order = []
    for i in range(8):
        sim.schedule_at(1.0, lambda i=i: order.append(i))
    sim.schedule_at(
        2.0,
        lambda: sim.trace.emit("send", time=2.0, seq=8, payload=tuple(order)),
    )
    sim.run(until=3.0)
    return digest.hexdigest


def test_order_dependent_system_diverges():
    baseline = _racy_digest(None)
    perturbed = {seed: _racy_digest(seed) for seed in DEFAULT_TIE_SEEDS}
    assert any(d != baseline for d in perturbed.values()), (
        "tie-break perturbation left an order-dependent payload unchanged "
        "— the sanitizer would be blind to real races"
    )


# --------------------------------------------------------------------- #
# the real matrix
# --------------------------------------------------------------------- #
def small_config(**overrides):
    config = default_sanitizer_matrix(
        n_clusters=2, apps_per_cluster=2, n_cs=2
    )[0]
    return config.with_(**overrides) if overrides else config


class TestSanitizeConfig:
    def test_single_config_is_clean(self):
        result = sanitize_config(small_config(), tie_seeds=(1, 2))
        assert result.ok
        assert result.diverged == ()
        assert sorted(result.perturbed) == [1, 2]
        assert "ok" in result.format()

    def test_unfinished_run_is_a_liveness_violation_naming_the_tie_seed(self):
        with pytest.raises(LivenessViolation, match=r"tie_seed=None.*unfinished"):
            sanitize_config(small_config(deadline_ms=1.0), tie_seeds=(1,))

    def test_result_reports_divergence(self):
        result = sanitize_config(small_config(), tie_seeds=(1,))
        tampered = type(result)(
            config=result.config,
            baseline_digest="0" * 64,
            perturbed=result.perturbed,
            reordered=(),
        )
        assert not tampered.ok
        assert tampered.diverged == (1,)
        assert "DIVERGED" in tampered.format()


class TestMatrix:
    def test_default_matrix_shape(self):
        configs = default_sanitizer_matrix()
        assert len(configs) == 6
        assert {(c.system, c.intra) for c in configs} == {
            (system, algo)
            for system in ("flat", "composition")
            for algo in ("naimi", "suzuki", "martin")
        }
        # constant latencies maximise same-instant collisions
        assert all(c.jitter == 0.0 for c in configs)

    def test_full_matrix_zero_divergence(self):
        """Acceptance criterion: {naimi,suzuki,martin} x
        {flat,composition} sanitizes with zero divergence."""
        report = sanitize_matrix()
        assert len(report.results) == 6
        assert report.ok, report.format()
        assert report.divergent == ()
        assert "no divergence" in report.format()
