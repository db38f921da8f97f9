"""numpy's SeedSequence hash over a whole block of spawn keys at once.

`np.random.SeedSequence(entropy, spawn_key=key).generate_state(k, np.uint64)`
is O'Neill's seed_seq mixing: `hashmix` and `mix` on uint32 words, first of
the entropy words and then of the spawn-key words, then one hash per output
word. Its control flow does not depend on the data, so here it runs word by
word over arrays. A word is a Python int when every key shares it, or a
uint64 array holding one uint32 value per key; products are taken in 64 bits
and masked to 32.

The states equal numpy's key for key (the tests compare them at edge
entropies), and `pcg64` opens the PCG64 stream a SeedSequence-seeded
generator would from such a 4-word state. numpy's own SeedSequence stays the
cheaper route for a single key.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DomainError

_MASK = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _int_words(value: int) -> list:
    """numpy's uint32 words of a nonnegative int, least significant first
    (one zero word for 0)."""
    if value < 0:
        raise DomainError("seed-sequence entropy must be nonnegative")
    words = [value & _MASK]
    value >>= 32
    while value:
        words.append(value & _MASK)
        value >>= 32
    return words


def _key_word(key) -> np.ndarray:
    """A spawn-key column as one uint32 word per row."""
    key = np.asarray(key)
    if key.dtype.kind not in "ui" or np.any(key < 0) or np.any(key >> 32):
        raise DomainError("array spawn-key entries must be integers in [0, 2**32)")
    return key.astype(np.uint64)


def spawned_states(entropy, spawn_key: tuple, n_words: int) -> np.ndarray:
    """SeedSequence(entropy, spawn_key=key).generate_state(n_words, np.uint64)
    for every element of the broadcast of the array arguments: a uint64
    array of the broadcast shape plus (n_words,).

    `entropy` is a nonnegative int or an array of values below 2**64; each
    entry of the non-empty `spawn_key` is a nonnegative int or an array of
    values below 2**32 (DomainError otherwise). A spawn key makes numpy pad
    the run entropy with zero words to the pool size, so an entropy below
    2**64 always hashes as its two words. The pool is mixed at the shape of
    the words that reach it, so entropy of shape (R, 1) and a last key entry
    of shape (P,) hash the R entropies once for all P keys.
    """
    if not spawn_key:
        raise DomainError("spawned_states needs a spawn key")
    if isinstance(entropy, np.ndarray):
        if entropy.dtype.kind not in "ui" or np.any(entropy < 0):
            raise DomainError("seed-sequence entropy must be nonnegative integers")
        entropy = entropy.astype(np.uint64)
        run = [entropy & _MASK, entropy >> 32]
    else:
        run = _int_words(entropy)
    run += [0] * (_POOL_SIZE - len(run))
    words = run + [w for key in spawn_key
                   for w in ([_key_word(key)] if isinstance(key, np.ndarray)
                             else _int_words(key))]

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK
        value = (value * hash_const) & _MASK
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(w))

    hash_const = _INIT_B
    out = []
    for i in range(2 * n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK
        value = (value * hash_const) & _MASK
        out.append(value ^ (value >> _XSHIFT))
    # little-endian pairs of uint32 words, as numpy views them
    states = [np.asarray(lo | (hi << 32), dtype=np.uint64)
              for lo, hi in zip(out[0::2], out[1::2])]
    return np.stack(np.broadcast_arrays(*states), axis=-1)


class _State(ISeedSequence):
    """A precomputed `generate_state(4, np.uint64)`, handed to PCG64."""

    def __init__(self, words: np.ndarray):
        # PCG64 reads the returned buffer directly
        self.words = np.ascontiguousarray(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
            raise DomainError("a fixed state answers only its own 64-bit request")
        return self.words


def pcg64(state: np.ndarray) -> np.random.Generator:
    """The generator `default_rng(seed_sequence)` gives, from the 4-word
    state that seed sequence generates for PCG64."""
    return np.random.Generator(np.random.PCG64(_State(state)))
