"""Counter-based random streams for replayable qutrit rounds.

Randomness is counter-based Philox4x64-10 keyed by ``(seed, stream_id)``
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), so any
round of a larger simulation can be replayed in isolation.  It comes in two
forms that give the same numbers bit for bit.  :class:`RngStream` wraps
numpy's Philox generator for one stream and draws one value at a time; the
scalar replay of a round and the security test's subset use it.
:func:`uniforms` evaluates one Philox block of up to ``_LANES`` = 1536 streams
of one seed with uint64 numpy arithmetic, as the doubles ``RngStream.uniform``
returns; the session kernel draws from it.  Each Philox round is 19 ufunc
calls on ufuncs and tables bound to locals, 15 of them the two 64x64 ->
128-bit products in 32-bit halves, each given its output positionally, which
dispatches faster than ``out=``.  Every call starts from its known counter
(b, 0, 0, 0), so for an int block, as the prepare-and-measure passes give,
round 1 is one Python product and the loop runs nine rounds; for a block per
lane, as the entangled sweeps give, it runs all ten.  The seed's round keys
are built once per seed.
A call holds about 81 bytes a lane: its (4, m) result, in which the
partial products live until it is written, the (4, m) words and the (2, m)
high halves of the products.
The pentagon's rays, projectors and overlaps are the arrays of
``kcbs.KcbsBasis``; the package samples from its overlaps and Eve's exact
channel of ``adversary.build_channel``, and the tests' state-vector reference
(``tests/reference.py``) samples measurements and collapses states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

KEY_LIMIT = 1 << 64  # seeds and stream ids lie in [0, KEY_LIMIT)

__all__ = ["KEY_LIMIT", "RngStream", "uniforms"]


def _is_key(x) -> bool:
    """Whether ``x`` is a Philox key word: an int, not a bool, in [0, 2^64)."""
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < KEY_LIMIT


@dataclass
class RngStream:
    """Counter-based random stream, reproducible across platforms.

    Wraps numpy's Philox generator keyed by ``(seed, stream_id)``, each an
    integer in [0, 2^64).  Distinct stream ids give statistically independent
    streams; a simulation derives one stream per round (stream_id = round
    index).  ``counter`` tracks the number of uniform doubles drawn so far.
    """

    seed: int
    stream_id: int = 0
    counter: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (_is_key(self.seed) and _is_key(self.stream_id)):
            raise ValueError(
                f"seed {self.seed!r} and stream id {self.stream_id!r} must be ints in [0, 2^64)"
            )
        # an explicit uint64 key: numpy would turn a list holding a value
        # >= 2^63 into float64 and lose its low bits
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self) -> float:
        """One double uniform on [0, 1)."""
        self.counter += 1
        return self._gen.random()

    def integer(self, upper: int) -> int:
        """Uniform integer in [0, upper), derived from one uniform draw."""
        return min(int(self.uniform() * upper), upper - 1)

    def subset(self, n: int, m: int) -> np.ndarray:
        """m distinct indices sampled uniformly from range(n), sorted, in the
        narrowest unsigned dtype that holds n - 1.  The shuffle draws what
        ``Generator.permutation(n)`` draws and gives the same order."""
        self.counter += n
        indices = np.arange(n, dtype=np.min_scalar_type(max(n - 1, 0)))
        self._gen.shuffle(indices)
        return np.sort(indices[:m])


# streams one uniforms call takes at most, and prepare-and-measure rounds per
# pass of the session kernel: bounds their scratch
_LANES = 1536
# 0-d arrays, not numpy scalars: a ufunc takes an array operand faster
_U32 = np.array(0xFFFFFFFF, np.uint64)
_S32 = np.array(32, np.uint64)
_S11 = np.array(11, np.uint64)
# Philox4x64-10 round multipliers of the two multiplied words (0 and 2) of a
# block, stored flat as _LANES copies of each: see _lane_tables
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_MUL = np.repeat(np.array([_M0, _M1], np.uint64), _LANES)
_MUL_HI = _MUL >> _S32
_MUL_LO = _MUL & _U32
# round r is keyed by (k0 + r B0, k1 + r B1) mod 2^64: the steps r B0, and
# r B1 as 0-d arrays
_K0_STEPS = np.array([r * 0x9E3779B97F4A7C15 % KEY_LIMIT for r in range(10)], np.uint64)
_K1_STEPS = [np.array(r * 0xBB67AE8584CAA73B % KEY_LIMIT, np.uint64) for r in range(10)]
for _table in (_U32, _S32, _S11, _MUL, _MUL_HI, _MUL_LO, _K0_STEPS, *_K1_STEPS):
    _table.setflags(write=False)
del _table


def _lane_tables(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The multipliers of ``m`` lanes, as (2, m) views of the flat tables.

    Rows 0 and 1 are the last m copies of the first multiplier and the first m
    of the second, so each view is C-contiguous for every m up to _LANES: the
    ufuncs run about 30% slower on a table sliced [:, :m] from shape
    (2, _LANES) or broadcast from shape (2, 1).
    """
    half = len(_MUL) // 2
    lanes = slice(half - m, half + m)
    return _MUL[lanes].reshape(2, m), _MUL_HI[lanes].reshape(2, m), _MUL_LO[lanes].reshape(2, m)


@lru_cache(maxsize=1)  # a session draws every block of one seed
def _round_keys(seed: int) -> tuple[np.ndarray, ...]:
    """k0 = seed + r B0 mod 2^64 of Philox rounds r = 0 to 9, as 0-d views,
    which a ufunc takes about twice as fast as a (1,) array."""
    keys = _K0_STEPS + seed
    keys.setflags(write=False)
    return tuple(keys[r, ...] for r in range(10))


def uniforms(seed: int, stream_ids: np.ndarray, blocks) -> np.ndarray:
    """Philox4x64-10 block ``blocks`` (counter (block, 0, 0, 0)) of each
    stream (seed, stream_ids[s]), as the doubles ``RngStream.uniform`` draws:
    (x >> 11) 2^-53 of each word x.  Row w of column s of the (4, m) result
    is draw 4 (b - 1) + w of stream s, since numpy counts blocks from 1.

    ``seed`` is an int in [0, 2^64), ``stream_ids`` a 1-d uint64 array of at
    most ``_LANES`` ids, and ``blocks`` one int in [0, 2^64) or a 1-d uint64
    array of a block per id; anything else raises ``ValueError`` rather than
    being drawn as some other block.  Every call starts from its known
    counter: round 1 multiplies b and 0, so for an int block it is the product
    M0 b and one XOR per lane, and the loop runs rounds 2 to 10; for a block
    per lane the loop runs all ten.  The product is written once, in the
    loop, and the two partial-product rows are shifted by one ufunc on their
    contiguous (4, m) scratch.
    The scratch is 48 bytes a lane beside the result: the four words and the
    high halves of the products.  The seed's key words are 0-d views built
    once per seed, and the stream ids' is formed each round in the partial
    products' scratch, which lives in the result's memory until the result is
    written."""
    if not _is_key(seed):
        raise ValueError(f"seed {seed!r} is not an int in [0, 2^64)")
    if not (isinstance(stream_ids, np.ndarray) and stream_ids.dtype == np.uint64
            and stream_ids.ndim == 1 and len(stream_ids) <= _LANES):
        raise ValueError(f"stream ids must be a 1-d uint64 array of at most {_LANES} ids")
    m = len(stream_ids)
    one_block = _is_key(blocks)
    if not (one_block or isinstance(blocks, np.ndarray) and blocks.dtype == np.uint64
            and blocks.shape == (m,)):
        raise ValueError(
            f"blocks must be an int in [0, 2^64) or a uint64 array of {m} blocks, one per id")
    mul, mul_hi, mul_lo = _lane_tables(m)
    words = np.empty((4, m), np.uint64)
    rows = tuple(words)
    # words (c0, c2), the multiplied ones, and (c3, c1); the two swap each round
    even, odd, even_rows, odd_rows = words[:2], words[2:], rows[:2], rows[2:]
    hi = np.empty((2, m), np.uint64)
    out = np.empty((4, m))
    scratch = out.view(np.uint64)
    t, u = scratch[:2], scratch[2:]
    hi0, hi1 = hi
    t0 = t[0]
    if one_block:
        # round 1 of (b, 0, 0, 0) gives (seed, 0, hi(M0 b) ^ id, lo(M0 b))
        hi_b, lo_b = divmod(_M0 * blocks, KEY_LIMIT)
        even_rows[0].fill(seed)
        np.bitwise_xor(stream_ids, np.array(hi_b, np.uint64), even_rows[1])
        odd_rows[0].fill(lo_b)
        odd_rows[1].fill(0)
        first = 1
    else:
        even_rows[0][...] = blocks
        even_rows[1].fill(0)
        odd.fill(0)
        first = 0
    keys0, keys1 = _round_keys(seed), _K1_STEPS
    u32, s32 = _U32, _S32
    bitwise_and, multiply, right_shift = np.bitwise_and, np.multiply, np.right_shift
    add, bitwise_xor = np.add, np.bitwise_xor
    for r in range(first, 10):
        # hi, and lo in place of even: the 128-bit products mul * even, from
        # 32-bit halves e = eh 2^32 + el and mul = mh 2^32 + ml; each ufunc is
        # given its output positionally, which dispatches faster than out=
        bitwise_and(even, u32, t)  # el
        multiply(t, mul_lo, u)
        right_shift(u, s32, u)
        multiply(t, mul_hi, t)
        right_shift(even, s32, hi)
        multiply(hi, mul_lo, hi)
        add(u, hi, u)  # eh ml + carry, below 2^64
        bitwise_and(u, u32, hi)
        add(t, hi, t)  # el mh + low half of u
        right_shift(scratch, s32, scratch)  # the high halves of t and u
        right_shift(even, s32, hi)
        multiply(hi, mul_hi, hi)  # eh mh
        add(hi, u, hi)
        add(hi, t, hi)
        multiply(even, mul, even)  # lo
        # (c0, c1, c2, c3) <- (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0), a row
        # at a time: a ufunc on a view with its rows swapped copies it
        bitwise_xor(hi, odd, hi)  # (hi0 ^ c3, hi1 ^ c1)
        bitwise_xor(hi1, keys0[r], odd_rows[0])
        add(stream_ids, keys1[r], t0)  # k1
        bitwise_xor(hi0, t0, odd_rows[1])
        even, odd, even_rows, odd_rows = odd, even, odd_rows, even_rows
    words >>= _S11
    out[0::2] = even  # a cast in place: np.multiply would buffer it
    out[1::2] = odd[::-1]
    out *= 2.0**-53
    return out
