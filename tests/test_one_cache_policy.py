"""One cache contract and one lookup policy.

``ExperimentCache`` owns the contract — key derivation, the stored-key
check, the counters, verification sampling, the spec — and the HTTP
tier supplies only byte I/O.  The sweep scheduler
(``experiments/parallel.py``) is the only code that samples hits for
verification: ``run_experiment(config, cache)``, the farm's workers and
its collector all go through it.  Only the store serialises blobs."""

from repro.cache.http import HttpCache

from .test_one_run_sequence import calls_outside

ALLOWED = {
    "should_verify": {"experiments/parallel.py"},
    "record_verification": {"experiments/parallel.py"},
    "canonical_dumps": {"cache/store.py"},
}


def test_only_the_scheduler_verifies_and_only_the_store_serialises():
    assert calls_outside(ALLOWED) == []


def test_the_http_tier_overrides_only_byte_io():
    contract = {"get", "put", "should_verify", "record_verification",
                "with_verify", "spec", "key_for"}
    assert contract.isdisjoint(vars(HttpCache))
