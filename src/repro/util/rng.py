"""Deterministic randomness for the whole reproduction.

Two complementary facilities live here:

* :class:`SeedBank` — a hierarchical seed dispenser built on
  :class:`numpy.random.SeedSequence`.  Components ask for a *named* fork
  (``bank.fork("world/channels")``) and receive an independent
  :class:`numpy.random.Generator`.  The name, not call order, determines the
  stream, so adding a new consumer never perturbs existing ones.

* ``stable_*`` — stateless, content-addressed draws.  These hash a tuple of
  labels (for example ``("churn", video_id, "2025-02-09")``) into a 64-bit
  value and map it onto a uniform or normal variate.  They are the backbone of
  the API behavior engine: the simulated platform must answer a query as a
  *function of the request date*, independent of how many or in which order
  queries were issued before it.

* :func:`pcg64_seeds` / :func:`seeded_normals` — many
  ``default_rng(SeedSequence(entropy))`` streams at once.  Seeding is
  vectorized over the entropies and the draws reuse one generator, so a
  long run of per-day streams costs no per-stream ``SeedSequence``.
"""

from __future__ import annotations

import hashlib
import math
from itertools import islice
from statistics import NormalDist
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "SeedBank",
    "stable_hash",
    "stable_uniform",
    "stable_normal",
    "hashed_prefix",
    "stable_uniform_suffixed",
    "stable_normal_suffixed",
    "pcg64_seeds",
    "seeded_normals",
]

_U64 = 2**64

_blake2b = hashlib.blake2b
_from_bytes = int.from_bytes

# One shared standard-normal distribution: constructing NormalDist per draw
# costs more than the inverse CDF itself on the hot path, and inv_cdf is a
# pure function, so a module-level instance is safe to share.
_STD_NORMAL = NormalDist()


def stable_hash(*parts: object) -> int:
    """Hash arbitrary labels into a stable unsigned 64-bit integer.

    The hash is computed with BLAKE2b over the ``repr``-free, explicitly
    delimited string rendering of each part, so it is stable across
    processes and Python versions (unlike :func:`hash`).

    A hot-path note: the parts are joined into a single buffer before
    hashing — a sequence of ``update`` calls over the same bytes produces
    the same digest, so this is byte-identical to hashing part by part
    with a trailing ``\\x1f`` unit separator after each one (which is
    what keeps ``("ab","c")`` distinct from ``("a","bc")``).  Joining as
    ``str`` then encoding once is likewise exact: UTF-8 encoding
    distributes over concatenation and ``"\\x1f"`` encodes to ``b"\\x1f"``.
    """
    buf = "\x1f".join(map(str, parts)) + "\x1f" if parts else ""
    return _from_bytes(_blake2b(buf.encode("utf-8"), digest_size=8).digest(), "big")


def stable_uniform(*parts: object) -> float:
    """Map labels onto a uniform draw in the open interval (0, 1)."""
    # +0.5 keeps the result strictly inside (0, 1) so it is always safe to
    # feed through inverse CDFs.
    return (stable_hash(*parts) + 0.5) / _U64


def stable_normal(*parts: object) -> float:
    """Map labels onto a standard normal draw via the probit transform."""
    u = stable_uniform(*parts)
    # Acklam-style rational approximation is unnecessary; scipy-free probit
    # using the error function inverse from math (available as erfinv only in
    # scipy) — use the Beasley-Springer/Moro-free closed form via
    # statistics.NormalDist, which is exact enough and dependency-free.
    return _STD_NORMAL.inv_cdf(u)


def hashed_prefix(*parts: object) -> str:
    """The shared string prefix of stable draws over ``(*parts, suffix)``.

    Sweep-scale consumers draw thousands of variates whose key tuples share
    a common head (``("pool-heap", topic, date, <window>)`` varies only in
    the window).  Joining the head once and appending each suffix is
    byte-identical to re-joining the whole tuple per draw — the delimiter
    layout ``p1 \\x1f p2 \\x1f ... \\x1f`` is associative in that split.
    """
    return "\x1f".join(map(str, parts)) + "\x1f" if parts else ""


def stable_uniform_suffixed(prefix: str, suffix: object) -> float:
    """``stable_uniform(*parts, suffix)`` with the parts prefix precomputed.

    ``prefix`` must come from :func:`hashed_prefix`; the pair of calls is
    exactly equivalent to one :func:`stable_uniform` over the full tuple.
    """
    h = _from_bytes(
        _blake2b((prefix + str(suffix) + "\x1f").encode("utf-8"), digest_size=8).digest(),
        "big",
    )
    return (h + 0.5) / _U64


def stable_normal_suffixed(prefix: str, suffix: object) -> float:
    """``stable_normal(*parts, suffix)`` with the parts prefix precomputed."""
    return _STD_NORMAL.inv_cdf(stable_uniform_suffixed(prefix, suffix))


# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx).
_SS_INIT_A = 0x43B0D7E5
_SS_MULT_A = 0x931E8875
_SS_INIT_B = 0x8B51F9DD
_SS_MULT_B = 0x58F38DED
_SS_MIX_MULT_L = np.uint32(0xCA01F9DD)
_SS_MIX_MULT_R = np.uint32(0x4973F715)
_SS_XSHIFT = np.uint32(16)
_SS_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
# Entropies seeded per vectorized pass in seeded_normals: large enough to
# amortize the pass's ~40 array operations, small enough that a multi-year
# run of per-day streams never holds more than this many states.
_SEED_CHUNK = 512


def _hash_steps(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """XOR and multiplier constants of ``count`` successive hashmix steps.

    SeedSequence's hash constant evolves the same way whatever the data,
    so every step's constants are fixed and the data can be hashed as
    arrays.  Returned as ``(count, 1)`` columns that broadcast over words.
    """
    xors, mults = [], []
    h = init
    for _ in range(count):
        xors.append(h)
        h = (h * mult) & _M32
        mults.append(h)
    return (
        np.array(xors, dtype=np.uint32)[:, None],
        np.array(mults, dtype=np.uint32)[:, None],
    )


def _hashmix(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    words = (words ^ xor) * mult
    return words ^ (words >> _SS_XSHIFT)


# mix_entropy hashes the 4 pool words, then, for each source word, hashes
# it once per other word and mixes it into that word; generate_state
# hashes 8 output words, cycling over the pool.
_SS_HASH_XOR, _SS_HASH_MULT = _hash_steps(_SS_INIT_A, _SS_MULT_A, 4 * _SS_POOL_SIZE)
_SS_INIT_STEP = (_SS_HASH_XOR[:_SS_POOL_SIZE], _SS_HASH_MULT[:_SS_POOL_SIZE])
_SS_ROUNDS = [
    (
        src,
        np.array([d for d in range(_SS_POOL_SIZE) if d != src], dtype=np.intp),
        _SS_HASH_XOR[_SS_POOL_SIZE + 3 * src : _SS_POOL_SIZE + 3 * src + 3],
        _SS_HASH_MULT[_SS_POOL_SIZE + 3 * src : _SS_POOL_SIZE + 3 * src + 3],
    )
    for src in range(_SS_POOL_SIZE)
]
_SS_OUT_WORDS = np.arange(2 * _SS_POOL_SIZE, dtype=np.intp) % _SS_POOL_SIZE
_SS_OUT_XOR, _SS_OUT_MULT = _hash_steps(_SS_INIT_B, _SS_MULT_B, 2 * _SS_POOL_SIZE)


def _seed_words(entropies: Sequence[int]) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` for each entropy, as rows.

    Bit-exact port of NumPy's ``SeedSequence`` for an int entropy below
    2**64 and no spawn key.  Such an entropy is one or two 32-bit words,
    fewer than the pool's four, and ``mix_entropy`` hashes a 0 into every
    pool word past the entropy, so hashing the high word as 0 when the
    entropy fits in 32 bits is the same as giving only one word.  Within
    one source word's round the other three words are mixed independently,
    which is what lets each round run as one ``(3, N)`` operation.
    """
    e = np.asarray(entropies, dtype=np.uint64)
    pool = np.zeros((_SS_POOL_SIZE, e.size), dtype=np.uint32)
    pool[0] = e & np.uint64(_M32)
    pool[1] = e >> np.uint64(32)
    pool = _hashmix(pool, *_SS_INIT_STEP)
    for src, others, xor, mult in _SS_ROUNDS:
        mixed = _SS_MIX_MULT_L * pool.take(others, axis=0) - _SS_MIX_MULT_R * _hashmix(
            pool[src], xor, mult
        )
        pool[others] = mixed ^ (mixed >> _SS_XSHIFT)
    out = _hashmix(pool.take(_SS_OUT_WORDS, axis=0), _SS_OUT_XOR, _SS_OUT_MULT)
    # generate_state pairs the words little-endian into uint64s.
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8")


def pcg64_seeds(entropies: Sequence[int]) -> tuple[list[int], list[int]]:
    """PCG64's 128-bit ``state`` and ``inc`` after seeding from each ``SeedSequence(e)``.

    That is ``PCG64(SeedSequence(e)).state["state"]`` for every entropy
    ``e`` in ``[0, 2**64)``, returned as two parallel lists.  The seed
    words of all entropies come from one vectorized pass
    (:func:`_seed_words`); PCG64 then seeds its LCG as
    ``pcg_setseq_128_srandom_r`` does: ``inc = 2*seq + 1``, one step
    from 0, add the initial state, one more step.
    """
    states, incs = [], []
    for s_hi, s_lo, q_hi, q_lo in zip(*_seed_words(entropies).T.tolist()):
        inc = ((((q_hi << 64) | q_lo) << 1) | 1) & _M128
        incs.append(inc)
        states.append(((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _M128)
    return states, incs


def seeded_normals(entropies: Iterable[int], n: int) -> Iterator[np.ndarray]:
    """Yield ``default_rng(SeedSequence(e)).standard_normal(n)`` per entropy.

    Bit-identical to seeding a fresh generator per entropy, but every
    stream reuses one ``PCG64``/``Generator`` pair whose state is set from
    :func:`pcg64_seeds`, seeded ``_SEED_CHUNK`` entropies at a time.  The
    entropies are consumed lazily, so a caller can stream thousands of
    days without holding them.  One state dict is reused for every
    stream, so the streams allocate no Python containers apiece and do not
    drive the garbage collector.
    """
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    full = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    lcg = full["state"]
    pending = iter(entropies)
    while chunk := list(islice(pending, _SEED_CHUNK)):
        for state, inc in zip(*pcg64_seeds(chunk)):
            lcg["state"], lcg["inc"] = state, inc
            bitgen.state = full
            yield gen.standard_normal(n)


class SeedBank:
    """Hierarchical deterministic seed dispenser.

    Parameters
    ----------
    seed:
        Root seed.  Two banks with the same root seed hand out identical
        generators for identical fork names.

    Examples
    --------
    >>> bank = SeedBank(7)
    >>> g1 = bank.generator("world/videos")
    >>> g2 = SeedBank(7).generator("world/videos")
    >>> float(g1.random()) == float(g2.random())
    True
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = seed

    @property
    def seed(self) -> int:
        """The root seed this bank was constructed with."""
        return self._seed

    def fork(self, name: str) -> "SeedBank":
        """Return a child bank whose streams are independent of the parent's."""
        return SeedBank(stable_hash("seedbank-fork", self._seed, name) % _U64)

    def generator(self, name: str) -> np.random.Generator:
        """Return a fresh, independent generator for the named stream."""
        entropy = stable_hash("seedbank-generator", self._seed, name) % _U64
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def integers(self, name: str, low: int, high: int, size: int) -> np.ndarray:
        """Convenience: draw ``size`` integers in ``[low, high)`` from a named stream."""
        return self.generator(name).integers(low, high, size=size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeedBank(seed={self._seed})"


def stable_normal_array(n: int, *parts: object) -> np.ndarray:
    """Vector of ``n`` independent stable normals keyed by ``parts``.

    Uses a counter-based construction: element ``i`` is keyed by
    ``(*parts, i)`` through a dedicated Generator seeded from the hash, which
    is much faster than ``n`` separate probit evaluations.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    entropy = stable_hash("stable-normal-array", *parts) % _U64
    gen = np.random.default_rng(np.random.SeedSequence(entropy))
    return gen.standard_normal(n)


def stable_uniform_array(n: int, *parts: object) -> np.ndarray:
    """Vector of ``n`` independent stable uniforms keyed by ``parts``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    entropy = stable_hash("stable-uniform-array", *parts) % _U64
    gen = np.random.default_rng(np.random.SeedSequence(entropy))
    return gen.random(n)


def spread_evenly(total: float, weights: Iterable[float]) -> list[int]:
    """Apportion ``total`` into integer counts proportional to ``weights``.

    Uses the largest-remainder method so the counts always sum to
    ``round(total)``.  Useful for deterministic corpus sizing.
    """
    w = np.asarray(list(weights), dtype=float)
    if w.size == 0:
        return []
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total_int = int(round(total))
    s = w.sum()
    if s <= 0:
        out = [0] * w.size
        for i in range(total_int):
            out[i % w.size] += 1
        return out
    exact = w / s * total_int
    floors = np.floor(exact).astype(int)
    remainder = total_int - int(floors.sum())
    if remainder > 0:
        order = np.argsort(-(exact - floors), kind="stable")
        for i in order[:remainder]:
            floors[i] += 1
    return [int(x) for x in floors]


def mix_streams(a: float, b: float, weight: float) -> float:
    """Convex combination helper kept here for reuse by samplers."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must be within [0, 1]")
    return a * (1.0 - weight) + b * weight


def probit(u: float) -> float:
    """Inverse standard-normal CDF for scalars (clipped away from {0,1})."""
    eps = 1e-12
    return _STD_NORMAL.inv_cdf(min(max(u, eps), 1.0 - eps))


def logistic(x: float) -> float:
    """Numerically stable logistic sigmoid."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)
