"""Deterministic random-stream management.

Every source of randomness in a simulation (per-node think times, latency
jitter, workload shuffles...) pulls from its own named stream derived from a
single master seed.  Two properties follow:

* **Reproducibility** — the same master seed gives bit-identical runs.
* **Independence from iteration order** — a stream's values depend only on
  its *label*, not on how many other streams were created before it, so
  adding a new random consumer does not perturb existing ones.

Streams are :class:`numpy.random.Generator` instances (PCG64), the idiom
recommended by the scientific-Python optimization guides.  The stream for
``label`` is bit-identical to
``default_rng(SeedSequence([seed, stable_hash(label)]))``; the registry
runs SeedSequence's mixing itself, as uint32 array arithmetic over many
labels at once, because numpy's per-object set-up cost dominates a
5 000-process deployment.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from itertools import count
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    import numpy.typing as npt
    from numpy.random import Generator

__all__ = ["RngRegistry", "stable_hash"]


def stable_hash(label: str) -> int:
    """Map ``label`` to a stable 64-bit integer (process-independent,
    unlike the built-in ``hash``)."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx, after
# Melissa O'Neill's seed_seq_fe).
_MASK32 = 0xFFFFFFFF
_POOL = 4  # SeedSequence's default pool size, in uint32 words
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)

#: One hash step: the constants each row is xored with, then multiplied
#: by, as ``(rows, 1)`` columns that broadcast over the labels.
_Step = Tuple[np.ndarray, np.ndarray]


def _step(init: int, mult: int, calls: Sequence[int]) -> _Step:
    """The step whose row ``r`` is hash call ``calls[r]`` of the constant
    chain ``init * mult**k``: call k xors with link k and multiplies by
    link k + 1.  A row whose call is -1 hashes to 0."""
    chain = [init]
    while len(chain) < max(calls) + 2:
        chain.append(chain[-1] * mult & _MASK32)
    return (
        np.array([[chain[k] if k >= 0 else 0] for k in calls], np.uint32),
        np.array([[chain[k + 1] if k >= 0 else 0] for k in calls], np.uint32),
    )


@lru_cache(maxsize=16)
def _mix_steps(n_words: int) -> List[_Step]:
    """SeedSequence's mixing of ``n_words`` of entropy, its hash calls
    numbered in the order they run: the pool fill, one step per pool word
    mixed into the other three (its own row unused), then one step per
    entropy word past the pool."""
    call = count()
    fill = [next(call) for _ in range(_POOL)]
    cross = [
        [-1 if dst == src else next(call) for dst in range(_POOL)]
        for src in range(_POOL)
    ]
    extra = [[next(call) for _ in range(_POOL)] for _ in range(_POOL, n_words)]
    return [
        _step(0x43B0D7E5, 0x931E8875, calls) for calls in [fill, *cross, *extra]
    ]


#: ``generate_state``: eight uint32 words cycling over the pool.
_GENERATE = _step(0x8B51F9DD, 0x58F38DED, range(2 * _POOL))


def _hashmix(values: np.ndarray, step: _Step) -> np.ndarray:
    """One hash call per row of ``step`` (SeedSequence's ``hashmix``)."""
    hashed = (values ^ step[0]) * step[1]
    return hashed ^ (hashed >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = _MIX_L * x - _MIX_R * y
    return mixed ^ (mixed >> 16)


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """PCG64 seed words of ``SeedSequence(column)`` for every column.

    ``entropy`` is a ``(k, n)`` uint32 array, one assembled entropy
    vector per column; the result is ``(4, n)`` uint64, column ``i``
    equal to ``SeedSequence(entropy[:, i]).generate_state(4, np.uint64)``.
    """
    k, n = entropy.shape
    fill, *steps = _mix_steps(k)
    if k < _POOL:
        entropy = np.vstack([entropy, np.zeros((_POOL - k, n), np.uint32)])
    pool = _hashmix(entropy[:_POOL], fill)
    for src, step in enumerate(steps[:_POOL]):
        mixed = _mix(pool, _hashmix(pool[src], step))
        mixed[src] = pool[src]
        pool = mixed
    for word, step in zip(entropy[_POOL:], steps[_POOL:]):
        pool = _mix(pool, _hashmix(word, step))
    state = _hashmix(np.vstack([pool, pool]), _GENERATE).astype(np.uint64)
    return state[0::2] | state[1::2] << np.uint64(32)


def _uint32_words(value: int) -> Tuple[int, ...]:
    """``value`` as SeedSequence coerces an integer: little-endian uint32
    words, ``(0,)`` for zero."""
    words = []
    while True:
        words.append(value & _MASK32)
        value >>= 32
        if not value:
            return tuple(words)


class _SeedWords:
    """Stands in for the SeedSequence a stream was derived from: PCG64
    reads its seed words once, through ``generate_state(4, uint64)``,
    and the generator keeps this object for as long as it lives, so the
    words are let go at that read.

    It becomes a numpy ``ISeedSequence`` at the first derivation, not at
    import: importing ``numpy.random`` costs a process that derives no
    stream, such as a warm cache sweep, about 2 MB."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words: Optional[np.ndarray] = words

    def generate_state(
        self, n_words: int, dtype: npt.DTypeLike = np.uint32
    ) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a derived stream holds only PCG64's seed words")
        words, self.words = self.words, None
        if words is None:
            raise ValueError(
                "a derived stream's seed words are read once, by its PCG64; "
                "RngRegistry.fresh(label) derives the stream again"
            )
        return words


class RngRegistry:
    """Factory of named, independent random generators.

    Parameters
    ----------
    seed:
        Master entropy: a non-negative integer (Python or numpy).
        ``None`` draws fresh OS entropy.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        if seed is None:
            seed = int(np.random.SeedSequence().entropy)
        elif (
            isinstance(seed, bool)
            or not isinstance(seed, (int, np.integer))
            or seed < 0
        ):
            raise ValueError(
                f"seed must be a non-negative integer or None, got {seed!r}"
            )
        self._seed = int(seed)
        self._seed_words = _uint32_words(self._seed)
        self._streams: Dict[str, Generator] = {}

    @property
    def seed(self) -> int:
        """The master seed this registry was built from."""
        return self._seed

    def _derive(self, labels: Sequence[str]) -> List[Generator]:
        """New generators for ``labels``, in one pass over all of them."""
        n = len(labels)
        hashes = np.array([stable_hash(label) for label in labels], np.uint64)
        entropy = np.vstack([
            np.repeat(np.array(self._seed_words, np.uint32)[:, None], n, 1),
            (hashes & _MASK32).astype(np.uint32),
            (hashes >> np.uint64(32)).astype(np.uint32),
        ])
        # A hash below 2**32 is one entropy word, not two (SeedSequence
        # writes no zero high word), so those columns mix separately.
        seeds = np.empty((4, n), dtype=np.uint64)
        wide = entropy[-1] != 0
        for cols, k in ((wide, len(entropy)), (~wide, len(entropy) - 1)):
            if cols.any():
                seeds[:, cols] = _pcg64_seeds(entropy[:k, cols])
        random = np.random
        random.bit_generator.ISeedSequence.register(_SeedWords)
        return [
            random.Generator(random.PCG64(_SeedWords(row)))
            for row in seeds.T.copy()
        ]

    def streams(self, labels: Sequence[str]) -> List[Generator]:
        """The generators for ``labels``, in order, creating in one pass
        every one not yet in use.

        A label already in use returns its existing generator, state
        untouched; a label repeated in ``labels`` is derived once."""
        cache = self._streams
        new = [label for label in dict.fromkeys(labels) if label not in cache]
        if new:
            cache.update(zip(new, self._derive(new)))
        return [cache[label] for label in labels]

    def stream(self, label: str) -> Generator:
        """Return the generator for ``label``, creating it on first use.

        Repeated calls with the same label return the *same* generator
        object (so its state advances across calls), which is what a
        long-lived consumer such as a workload process wants.
        """
        gen = self._streams.get(label)
        return gen if gen is not None else self.streams((label,))[0]

    def fresh(self, label: str) -> Generator:
        """Return a *new* generator for ``label`` with pristine state,
        bypassing the cache.  Useful in tests that want to replay a
        stream from its beginning."""
        return self._derive((label,))[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngRegistry seed={self._seed} streams={len(self._streams)}>"
