"""numpy's ``np.random.default_rng(seed).random(count)``, bit for bit,
without importing ``numpy.random``.

The sampled hypothesis checks draw a few thousand doubles from fixed
seeds.  Importing ``numpy.random`` for them would cost a command process
10-15 ms and 6 MiB of resident memory, most of it OpenSSL's libcrypto
(``secrets`` -> ``hmac`` -> ``_hashlib``).  The stream is small enough to
reproduce:

* ``SeedSequence`` (NEP 19) hashes the seed's 32-bit words into a pool of
  four words and expands the pool into the four 64-bit words that seed the
  generator;
* PCG64 is the 128-bit LCG with the XSL-RR 128/64 output (O'Neill, "PCG: A
  Family of Simple Fast Space-Efficient Statistically Good Algorithms for
  Random Number Generation", HMC-CS-2014-0905); each draw steps the LCG and
  outputs the new state;
* a double ``d`` is the top 53 bits of an output times 2**-53, and
  ``rng.uniform(low, high)`` maps it to ``low + (high - low) d``.

The hashing and the LCG run on Python integers, the output function and
the conversion to doubles on numpy ``uint64`` arrays.  NEP 19 does not
promise a stable stream across numpy releases; the goldens pin it, and
``tests/test_pcg64.py`` compares this module with ``numpy.random``, so a
release that changes the stream fails there first.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .errors import ConfigurationError

_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
_XSHIFT = 16
_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
# a command draws from at most five (seed, count) pairs
MEMO_SIZE = 16


def _hasher(const: int, mult: int):
    """SeedSequence's ``hashmix``: a word hash whose constant advances by
    ``mult`` on every call."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> _XSHIFT
    return hashmix


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> _XSHIFT


def _seed_words(seed: int) -> list[int]:
    """The four 64-bit words ``SeedSequence(seed).generate_state(4, uint64)``."""
    entropy = [seed & _MASK32]  # the little-endian 32-bit words of the seed
    while seed >> 32 * len(entropy):
        entropy.append(seed >> 32 * len(entropy) & _MASK32)
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    halves = [hashmix(pool[i % _POOL_SIZE]) for i in range(8)]
    return [halves[2 * k] | halves[2 * k + 1] << 32 for k in range(4)]


@functools.lru_cache(maxsize=MEMO_SIZE)
def _draw(seed: int, count: int) -> np.ndarray:
    w = _seed_words(seed)
    # PCG64's seeding: the increment from the last two words; from state 0,
    # one step, the first two words added, and one more step
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
    state = ((inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc) & _MASK128
    raw = bytearray()
    for _ in range(count):
        state = (state * _PCG_MULT + inc) & _MASK128
        raw += state.to_bytes(16, "little")
    words = np.frombuffer(raw, dtype="<u8").reshape(count, 2)
    lo, hi = words[:, 0], words[:, 1]
    rot = hi >> np.uint64(58)  # state >> 122
    xored = hi ^ lo
    out = (xored >> rot) | (xored << ((np.uint64(64) - rot) & np.uint64(63)))
    doubles = (out >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
    doubles.flags.writeable = False
    return doubles


def random_doubles(seed: int, count: int) -> np.ndarray:
    """The ``count`` doubles ``np.random.default_rng(seed).random(count)``,
    as a read-only array shared by every call with the same arguments; the
    last :data:`MEMO_SIZE` pairs are kept.  ``seed`` must be a nonnegative
    integer, or :class:`ConfigurationError` is raised."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ConfigurationError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise ConfigurationError(f"seed must be nonnegative, got {seed}")
    return _draw(seed, operator.index(count))


def uniform(seed: int, shape, low, high) -> np.ndarray:
    """``np.random.default_rng(seed).uniform(low, high, shape)``: the doubles of
    :func:`random_doubles` in C order, with ``low`` and ``high`` broadcast."""
    return low + (high - low) * random_doubles(seed, int(np.prod(shape))).reshape(shape)
