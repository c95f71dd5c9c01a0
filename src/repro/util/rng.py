"""Deterministic random number plumbing.

All stochastic components of the library (the annealer, fault injection,
workload generators) accept either an integer seed, an existing
:class:`random.Random` instance, or ``None``. :func:`ensure_rng`
normalizes those three cases so that every experiment is reproducible
when a seed is supplied and remains convenient when one is not.
:func:`derive_seed` names a seed by content instead of by position, which
is how the scenario runners seed every synthesis and scenario.
"""

from __future__ import annotations

import hashlib
import random


def ensure_rng(seed_or_rng: int | random.Random | None) -> random.Random:
    """Return a ``random.Random`` for *seed_or_rng*.

    * ``None`` -> a fresh, OS-seeded generator.
    * ``int`` -> a generator seeded with that value (reproducible).
    * ``random.Random`` -> returned unchanged (caller-owned stream).
    """
    if seed_or_rng is None:
        return random.Random()
    if isinstance(seed_or_rng, random.Random):
        return seed_or_rng
    if isinstance(seed_or_rng, bool) or not isinstance(seed_or_rng, int):
        raise TypeError(
            f"seed must be None, int, or random.Random, got {type(seed_or_rng).__name__}"
        )
    return random.Random(seed_or_rng)


def spawn_seed(rng: random.Random) -> int:
    """Draw one 64-bit child seed from *rng*.

    The child seed is a plain ``int``, so it crosses process boundaries
    (pickled into a worker) without dragging generator state along. Two
    parents seeded identically spawn identical seed sequences, which is
    what makes portfolio search reproducible regardless of how many
    workers execute the instances.
    """
    return rng.getrandbits(64)


def spawn_rng(rng: random.Random) -> random.Random:
    """Derive an independent child generator from *rng*.

    Used when a component needs its own stream (e.g. fault injection
    inside a simulation) without perturbing the parent's sequence.
    """
    return random.Random(spawn_seed(rng))


def derive_seed(*parts: str) -> int:
    """A 63-bit seed from hashing *parts* joined by the unit separator.

    The delimiter keeps the derivation injective over parts
    (``("ab", "c")`` and ``("a", "bc")`` differ), and hashing makes the
    seed depend only on the parts, never on how many seeds were drawn
    before it: adding, reordering or skipping grid entries reseeds
    nothing else.
    """
    digest = hashlib.sha256("\x1f".join(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1
