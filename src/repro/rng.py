"""Deterministic random-number management.

All stochastic components of the simulator (retention-time sampling, VRT
episode arrival, data-pattern alignment draws, thermal noise, workload
generation) draw from :class:`numpy.random.Generator` instances derived from
a single experiment seed.  Derivation is *keyed*: a component asks for a
stream named by a tuple of strings/ints, and the same (seed, key) pair always
yields the same stream regardless of the order in which components are
constructed.  This keeps large experiments reproducible while letting
independent components evolve without perturbing each other's draws.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence, Tuple, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

KeyPart = Union[str, int, bytes]

#: Default seed used when a component is constructed without an explicit one.
DEFAULT_SEED = 0x5EED


def _digest_bytes(seed: int, parts: tuple) -> bytes:
    """Hash ``(seed, *parts)`` into 16 bytes, read big-endian as the seed."""
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(str(int(seed)).encode("utf-8"))
    for part in parts:
        if isinstance(part, bytes):
            raw = part
        else:
            raw = str(part).encode("utf-8")
        hasher.update(b"\x00")
        hasher.update(raw)
    return hasher.digest()


def _digest(seed: int, parts: tuple) -> int:
    """Hash ``(seed, *parts)`` into a 128-bit integer seed."""
    return int.from_bytes(_digest_bytes(seed, parts), "big")


def derive(seed: int, *parts: KeyPart) -> np.random.Generator:
    """Return a generator for the stream identified by ``(seed, *parts)``.

    >>> a = derive(7, "chip", 0)
    >>> b = derive(7, "chip", 0)
    >>> float(a.random()) == float(b.random())
    True
    """
    return np.random.default_rng(_digest(seed, parts))


def derive_many(seed: int, keys: Sequence[Tuple[KeyPart, ...]]) -> List[np.random.Generator]:
    """One generator per key, each in exactly the state ``derive(seed,
    *key)`` returns, derived together.

    ``np.random.default_rng(digest)`` runs numpy's ``SeedSequence`` mix
    over the digest's 32-bit words and seeds ``PCG64`` from the first
    eight words it generates.  Here that mix runs once, vectorized over
    every key's digest (:func:`_seed_sequence_states`), and each key's
    four 64-bit words reach ``PCG64`` through :class:`_FixedSeed`, so a
    key costs a digest and a generator construction, not a seed
    sequence of its own.
    """
    # Each digest reversed is its 128-bit seed's little-endian bytes.
    raw = b"".join(_digest_bytes(seed, tuple(key))[::-1] for key in keys)
    states = _seed_sequence_states(np.frombuffer(raw, dtype="<u4").reshape(-1, _POOL_SIZE))
    return [np.random.Generator(np.random.PCG64(_FixedSeed(state))) for state in states]


class _FixedSeed(ISeedSequence):
    """A seed sequence that hands ``PCG64`` one precomputed state."""

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray) -> None:
        self._state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self._state


# numpy's SeedSequence constants (pool of four 32-bit words).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _seed_sequence_states(words: np.ndarray) -> np.ndarray:
    """``SeedSequence(d).generate_state(4, np.uint64)`` for every 128-bit
    seed ``d``, given as the rows of ``words``: its four little-endian
    32-bit words.  Returns one ``(len(words), 4)`` uint64 array.

    The entropy of an integer seed is its little-endian 32-bit words;
    a seed below ``2**96`` has fewer than four, and the mix fills a
    missing word with ``hashmix(0)``, exactly what a zero word gets, so
    every seed is mixed as four words.  The hash constants follow a
    fixed sequence, independent of the data, so every step is one uint32
    array operation over all seeds (arithmetic mod ``2**32``).
    """
    hash_const = [_INIT_A]

    def hashmix(value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(hash_const[0])
        hash_const[0] = (hash_const[0] * _MULT_A) & 0xFFFFFFFF
        value *= np.uint32(hash_const[0])
        value ^= value >> np.uint32(16)
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        result ^= result >> np.uint32(16)
        return result

    mixer = [hashmix(words[:, i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixer[dst] = mix(mixer[dst], hashmix(mixer[src]))
    state = np.empty((len(words), 2 * _POOL_SIZE), dtype=np.uint32)
    hb = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = mixer[i % _POOL_SIZE] ^ np.uint32(hb)
        hb = (hb * _MULT_B) & 0xFFFFFFFF
        value *= np.uint32(hb)
        value ^= value >> np.uint32(16)
        state[:, i] = value
    return state.astype("<u4", copy=False).view("<u8")


def derive_seed(seed: int, *parts: KeyPart) -> int:
    """Return a plain integer sub-seed for the stream ``(seed, *parts)``.

    Useful when a component wants to further derive its own sub-streams.
    """
    return _digest(seed, parts)


def fingerprint(seed: int, *parts: KeyPart) -> str:
    """Return a short stable hex fingerprint of ``(seed, *parts)``.

    The digest is the same 128-bit hash :func:`derive` seeds its streams
    from, rendered as 32 hex characters.  Used wherever a configuration
    needs a filesystem- and JSON-friendly identity: work-unit ids, run
    directory manifests, cache keys.

    >>> fingerprint(7, "chip", 0) == fingerprint(7, "chip", 0)
    True
    """
    return format(_digest(seed, parts), "032x")
