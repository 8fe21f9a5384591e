"""A run is observed one way, through the tracer's records: nothing in
``src/`` wraps a handler to watch the traffic.  ``Network.wrap_handler``
keeps one job — the recovery layer's epoch fence, which *filters*
messages — so only ``core/recovery.py`` calls it.  An observer that
wrapped handlers would see a fenced message or not depending on which
wrapper went on first, and would keep the network off its direct path
after it detached."""

from .test_one_run_sequence import calls_outside


def test_only_the_recovery_fence_wraps_handlers():
    assert calls_outside({"wrap_handler": {"core/recovery.py"}}) == []
