"""The QKD protocol state machine: rounds, sifting, key statistics, security.

Each round: Alice draws a setting i and transmits the corresponding pentagon
ray (prepare-and-measure) or steers it through an entangled pair (entangled
mode); the in-flight state passes through the adversary hook; Bob draws j,
measures {P_j, I - P_j} and announces j; the round is sifted into case C1
(settings equal), C2 (neighbors) or C3 (out of context, discarded from the
key but kept in the transcript).

Round r consumes only the random stream derived as (seed, stream_id = r), so
sessions are reproducible bit for bit and any round can be replayed alone.
The security test draws its sample from the stream (seed, stream_id =
rounds), the first id that no round uses.
``run_session`` runs rounds in passes of the array Philox4x64-10 of
``qutrit.uniforms``, which reproduces ``RngStream`` bit for bit.
Prepare-and-measure rounds run ``qutrit._LANES`` = 1536 at a time, each pass
one Philox call per block its rounds read; a second block (random Eve) is drawn
only once the first one's draws are stored in the transcript.  An entangled
round is a prepare-and-measure round that starts after Alice's attempts.
Entangled sessions run in two sweeps that keep what a round has drawn in its
own column of the transcript.  The search sweep runs a pool of up to
``_BLOCK`` = 496 rounds in flight, each pass drawing the next Philox block of
every round in it (the next q blocks once the pool drains, so that a session's
last rounds take a few full calls, not many narrow ones).  A round that
clicks, at attempt a (draws 1, 3, 5, ...), writes Alice's setting, its
attempts and its first two later draws as rows 2-3 of the same block give
them, and leaves the pool.  Those draws are its own after a click on row 1
(odd a), and without Eve they complete it.  The finishing sweep then draws,
in round order and up to ``_BLOCK`` rounds a call, the block after the click
of every round that still needs draws, in place in the columns with Eve.
Around each Philox call the sweeps read only what they need: a search pass
gathers the clicking lanes once and scatters their columns a row at a time,
and a finishing window draws every round's first two later draws unmasked and
puts back those the search sweep made.  At 200,000 rounds that bookkeeping
takes about 29 us a search pass and 32-34 us a finishing call with Eve (20 us
without), against 47-50 and 47-48 us (38 us) when every lane was gathered and
the draws masked (medians in one warm process, Philox replayed, on a shared
2-vCPU host).
Rounds of both modes are read alike from her setting, draw s = 0 or 2 (a - 1).
``run_round`` is the scalar replay of one round through ``RngStream``, and the
independent check of the kernel.  Undisturbed click probabilities come from
``basis.overlap``.  With Eve, her click and Bob's come from her exact channel,
``adversary.build_channel`` of the basis, built on first use, which
``attack_expectation`` contracts.

A round is stored as what it drew, a ``Round``; a session's ``Transcript``
holds these as the columns of one int16 array.  A round's row code numbers
what it drew, (i, j, Bob's outcome, Eve's setting and outcome), in 900 rows.
``Transcript.cells`` counts the rounds of each row, once per transcript; the
key statistics, p_E and the security test's sizes are read, through the sift
rule ``adversary.SIFT``, from its per-(i, j) table, and ``attack_expectation``,
the exact oracle of every Monte-Carlo estimate, reads the same table of Eve's
channel.  No other module reads that layout or the sift rule.
``write_transcript_csv`` renders the CSV from a table of every line a round
can have after its index, at the round's row code, ``_CSV_HALF`` = 500 rounds
at a time into one reused buffer, so that it holds less than the entangled
sweeps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .adversary import (
    ABSENT,
    C3,
    FIXED,
    RANDOM,
    SIFT,
    Channel,
    EveStrategy,
    build_channel,
    eve_guess,
)
from .kcbs import NORM_TOL, KcbsBasis
from .qutrit import _LANES, KEY_LIMIT, RngStream, uniforms

__all__ = [
    "PREPARE_MEASURE",
    "ENTANGLED",
    "SECURITY_THRESHOLD",
    "ProtocolConfig",
    "Round",
    "Transcript",
    "KeyStats",
    "SecurityReport",
    "AttackExpectation",
    "run_round",
    "run_session",
    "key_stats",
    "estimate_security",
    "estimate_pe",
    "attack_expectation",
    "write_transcript_csv",
]

PREPARE_MEASURE = "prepare_measure"
ENTANGLED = "entangled"

SECURITY_THRESHOLD = 5.0 / 8.0

CSV_COLUMNS = (
    "index",
    "i",
    "j",
    "case",
    "bob_outcome",
    "alice_bit",
    "bob_bit",
    "eve_setting",
    "eve_outcome",
    "eve_guess",
)
# rounds whose indices share all but their last three digits, the unit of
# the transcript writer's index prefix
_CSV_CHUNK = 1000
# rounds the transcript writer renders per pass, into one reused buffer of as
# many NUL-padded lines (13.5 KB at 200,000 rounds): its working set (34.6 KB
# measured at 20,000 rounds, the open file's buffer included) is bounded by
# this, not by the session length, and stays below the entangled sweeps'
_CSV_HALF = _CSV_CHUNK // 2
# entangled rounds in flight, and rounds a finishing call draws: each sweep's
# working set (50.9 KB measured at most: 96 bytes a lane, 80 in a uniforms
# call and 16 of round id and block number, and 3.3 KB more) is bounded by
# this, not by the session length.
# Prepare-and-measure passes are qutrit._LANES rounds wide.
_BLOCK = 496
# the Round rows a round draws after Alice's setting, in order, by Eve's kind:
# (k), e, j, Bob's outcome
_LATER_ROWS = {ABSENT: (1, 2), FIXED: (4, 1, 2), RANDOM: (3, 4, 1, 2)}
# the flat index of Bob's click probability with Eve, at (i, k, e, j) of her
# channel's click table: these weights dotted with (i, j, bob_outcome, k, e)
_BOB_CELL = np.array([50, 1, 0, 10, 5], np.int16)
# the click probability of each of Alice's attempts, and the factor of
# RngStream.integer(5) and of a flat index, as 0-d arrays, which a ufunc takes
# faster than a Python number
_THIRD = np.array(1.0 / 3.0)
_FIVE = np.array(5.0)
_FIVE16 = np.array(5, np.int16)
# a round's row code is ((5 i + j) 2 + bob_outcome) 18 + 3 (k + 1) + e + 1, the
# weights below dotted with (i, j, bob_outcome, k, e) plus 4; Transcript.cells
# counts rounds by it, shaped _CELLS
_ROW_WEIGHTS = np.array([180, 36, 18, 3, 1], np.int16)
_CELLS = (5, 5, 2, 6, 3)
_ROWS = math.prod(_CELLS)
# rounds the statistics read per pass: their temporaries, at most about 10
# bytes a round, are bounded by this, not by the session length
_STATS_CHUNK = 3072
# bit j - i + 4 is set where Bob's setting j sifts Alice's i (SIFT != C3): an
# int16 the statistics read by shift, so their temporaries stay int16
_SIFT_BITS = np.array(
    sum(1 << d for d in {int(j - i) + 4 for i, j in np.argwhere(SIFT != C3)}), np.int16
)
_SIFT_BITS.setflags(write=False)
# attempts summed per slice: an int16 sum accumulates in int64 through a
# buffer of up to this many values (12 KB), where a whole column would take
# numpy's default of 8,192 (64 KB)
_SUM_CHUNK = 1536


@dataclass(frozen=True)
class ProtocolConfig:
    mode: str
    basis: KcbsBasis
    rounds: int
    sacrifice_fraction: float
    eve: EveStrategy
    seed: int

    def __post_init__(self) -> None:
        if self.mode not in (PREPARE_MEASURE, ENTANGLED):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("rounds", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, not {value!r}")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0 <= self.seed < KEY_LIMIT:
            raise ValueError(f"seed {self.seed} outside [0, 2^64)")
        if not 0.0 <= self.sacrifice_fraction <= 0.5:
            raise ValueError("sacrifice_fraction must lie in [0, 0.5]")
        if self.mode == ENTANGLED and np.max(np.abs(self.basis.projectors.imag)) > NORM_TOL:
            # the entangled kernel assumes Bob holds ray i, which holds for
            # the isotropic pair only when the rays are real; read from the
            # projectors, a real pentagon times a global phase is real
            raise ValueError("entangled mode requires a real pentagon basis")

    @cached_property
    def channel(self) -> Channel | None:
        """Eve's exact channel of this basis, built on first use; None
        without Eve."""
        return build_channel(self.basis) if self.eve.present else None


class Round(NamedTuple):
    """What one round drew; Eve's setting and outcome are -1 without Eve."""

    i: int
    j: int
    bob_outcome: int
    eve_setting: int
    eve_outcome: int
    attempts: int  # entangled mode: Alice's draws until a positive click


@dataclass(frozen=True)
class Transcript:
    """Column r of ``columns``, one owning int16 array of shape (6, rounds),
    holds round r's ``Round``; its rows follow the ``Round`` fields.  It is
    made read-only, so the ``cells`` computed from it once stay current.
    A view is refused, as its base would stay writable; it is not copied,
    which would add 12 bytes a round."""

    config: ProtocolConfig
    columns: np.ndarray

    def __post_init__(self) -> None:
        columns = self.columns
        if not (isinstance(columns, np.ndarray) and columns.dtype == np.int16
                and columns.ndim == 2 and len(columns) == len(Round._fields)
                and columns.flags.owndata):
            raise ValueError("columns must be an owning int16 array of shape (6, rounds)")
        columns.setflags(write=False)

    @property
    def total_attempts(self) -> int:
        attempts = self.columns[5]
        return sum(int(attempts[start:start + _SUM_CHUNK].sum())
                   for start in range(0, len(attempts), _SUM_CHUNK))

    @cached_property
    def cells(self) -> np.ndarray:
        """The rounds of each row code, as a read-only int64 array of shape
        (5, 5, 2, 6, 3) indexed (i, j, bob_outcome, k + 1, e + 1), computed
        on the first read, ``_STATS_CHUNK`` rounds at a time.  Its flat index
        is the row code of ``write_transcript_csv``'s line tails."""
        columns = self.columns
        cells = np.bincount(_row_codes(columns[:, :_STATS_CHUNK]), minlength=_ROWS)
        for start in range(_STATS_CHUNK, columns.shape[1], _STATS_CHUNK):
            codes = _row_codes(columns[:, start:start + _STATS_CHUNK])
            cells += np.bincount(codes, minlength=_ROWS)
        cells = cells.reshape(_CELLS)
        cells.setflags(write=False)
        return cells

    @cached_property
    def _sifted(self) -> tuple[list, list, list]:
        """``_sifted_counts`` of ``cells``, read by ``key_stats``,
        ``estimate_security`` and ``estimate_pe``; computed on the first read."""
        return _sifted_counts(self.cells)


@dataclass(frozen=True)
class KeyStats:
    sift_rate: float
    p0: float
    p1: float
    shannon: float
    key_rate_per_transmission: float
    anticorr_fraction: float  # operational K(A,B) estimate = P(Bob guesses right)


@dataclass(frozen=True)
class SecurityReport:
    kab_estimate: float
    confidence_halfwidth: float
    threshold: float
    verdict: str  # Secure | Insecure | Inconclusive
    pe_estimate: float | None = None
    mutual_info_ab: float | None = None
    mutual_info_ae: float | None = None
    sacrificed_count: int = 0
    note: str | None = None


@dataclass(frozen=True)
class AttackExpectation:
    """Exact expected statistics of an attack, from density-matrix enumeration.

    ``kab_expected`` and ``pe_expected`` pool over sifted rounds (Alice's
    setting uniform, Bob's uniform over the three in-context settings).
    ``kae_expected`` is the Alice-Eve analog of the Alice-Bob anti-correlation:
    it treats Eve's setting like Bob's and pools rounds where Eve's setting
    lies in Alice's context.  The linear-form value built from the published
    per-setting analysis is reported alongside, never asserted.
    """

    kab_expected: float
    pe_expected: float
    kae_expected: float
    paper_kae_linear_form: float
    anticorr_table: tuple  # [i][j]: P(alice != bob | i, j), None off context
    guess_table: tuple  # [i][j]: P(guess == alice | i, j), None off context


def run_round(
    cfg: ProtocolConfig, round_index: int, rng: RngStream | None = None
) -> Round:
    """Replay one protocol round alone, on its own derived random stream."""
    if rng is None:
        rng = RngStream(cfg.seed, stream_id=round_index)
    attempts = 1
    if cfg.mode == ENTANGLED:
        # Alice measures {P_i (x) I} on a fresh isotropic pair until she
        # clicks; each click has probability Tr(P_i)/3 = 1/3 exactly, and on
        # success Bob holds ray i (the config admits only real rays here),
        # as in prepare-and-measure.
        while True:
            i = rng.integer(5)
            if rng.uniform() < 1.0 / 3.0:
                break
            attempts += 1
    else:
        i = rng.integer(5)

    eve = cfg.eve
    if eve.kind == ABSENT:
        k = e = -1
        j = rng.integer(5)
        p_click = cfg.basis.overlap[i, j]
    else:
        k = eve.setting if eve.kind == FIXED else rng.integer(5)
        e = 1 if rng.uniform() < cfg.channel.branch[i, k, 1] else 0
        j = rng.integer(5)
        p_click = cfg.channel.click[i, k, e, j]

    bob_outcome = 1 if rng.uniform() < p_click else 0
    return Round(i, j, bob_outcome, k, e, attempts)


def run_session(cfg: ProtocolConfig) -> Transcript:
    """Execute all rounds; output is bit-identical for a given config and seed."""
    columns = np.empty((len(Round._fields), cfg.rounds), np.int16)
    if cfg.mode == ENTANGLED:
        _search_sweep(cfg, columns)
        _finishing_sweep(cfg, columns)
        return Transcript(config=cfg, columns=columns)
    # every round reads the same draws: rows 0-3 of block 1, row 0 of block 2
    blocks = len(_LATER_ROWS[cfg.eve.kind]) // 4 + 1
    ids = np.arange(min(_LANES, cfg.rounds), dtype=np.uint64)
    for start in range(0, cfg.rounds, _LANES):
        out = columns[:, start:start + _LANES]
        lanes = ids[:out.shape[1]]
        _finish(cfg, _rows(cfg.seed, lanes, blocks), out)
        out[5] = 1
        ids += len(ids)
    return Transcript(config=cfg, columns=columns)


def _rows(seed: int, ids: np.ndarray, blocks: int):
    """The rows of Philox blocks 1 to ``blocks`` of streams ``ids``, one at a
    time; a block is drawn only once every row of the one before is read."""
    for b in range(1, blocks + 1):
        yield from uniforms(seed, ids, b)


def _integer5(u: np.ndarray, out: np.ndarray) -> None:
    """``RngStream.integer(5)`` of each uniform, min(int(5 u), 4), into the
    int16 ``out``; ``u`` is overwritten.  A Philox double is at most
    1 - 2^-53, whose 5 u rounds to 5 - 2^-50, so int(5 u) is at most 4."""
    np.multiply(u, _FIVE, u)
    out[...] = u  # truncates, as int() does for u >= 0


def _search_sweep(cfg: ProtocolConfig, columns: np.ndarray) -> None:
    """Alice's attempts of every entangled round, from one pool of up to
    ``_BLOCK`` rounds in flight, topped up with the next round ids in order.

    Attempt a clicks on draw 2a - 1, row 1 or 3 of block (a + 1) // 2, and its
    setting s = 2 (a - 1) is row 0 or 2 of that block.  Each pass draws, in
    one Philox call laid out block by block, the next q = _BLOCK // n blocks of
    each of the n rounds in the pool: q is 1 while rounds are left to start,
    and grows as the pool drains, so that each call stays near _BLOCK lanes.
    A round that clicks in block c writes to its column Alice's setting, its
    attempts (2c - 1 on row 1, 2c on row 3) and its first two later draws from
    rows 2-3 of that block, which ``_finishing_sweep`` draws again after a
    click on row 3; then it leaves the pool.  Without Eve, a click on row 1
    completes the round.  Eve's fixed fields are written to every column
    once, before the first pass.

    A pass reads the clicking lanes alone: it gathers their four rows and
    their ids and blocks once each, writes their columns a row at a time, and
    gives each one's lane to the next round in place, so that the pool is
    compacted only once no round is left to start.  The drain's bookkeeping
    runs only while q > 1.  Outside Philox a pass takes about 29 us at
    200,000 rounds, where gathering every lane and masking the setting took
    47-50 us."""
    rounds = columns.shape[1]
    _eve_fixed(cfg, columns)
    later = _LATER_ROWS[cfg.eve.kind]
    # each lane's round id and block, as int64 rows that uniforms reads as uint64
    lane = np.empty((2, _BLOCK), np.int64)
    ids, block = lane
    n = top = min(_BLOCK, rounds)
    ids[:n] = np.arange(n)
    block[:n] = 1
    while n:
        q = _BLOCK // n
        if q > 1:  # lanes n to q n hold the pool's next q - 1 blocks
            lane[:, n:q * n].reshape(2, q - 1, n)[...] = lane[:, None, :n]
            block[n:q * n].reshape(q - 1, n)[...] += np.arange(1, q)[:, None]
        drawn = uniforms(cfg.seed, ids[:q * n].view(np.uint64), block[:q * n].view(np.uint64))
        odd = drawn[1] < _THIRD  # a click on row 1
        hit = drawn[3] < _THIRD
        hit |= odd  # and on row 1 or 3
        if q > 1:  # the rounds that click, and the lane of each one's first click
            by_block = hit.reshape(q, n)
            hit = by_block.any(0)
            at = hit.nonzero()[0]
            lanes = at + n * by_block.argmax(0).take(at)
            del by_block
        else:
            at = lanes = hit.nonzero()[0]
        rows = drawn.take(lanes, axis=1)
        del drawn  # the clicking lanes' rows are all a pass reads of it
        odd = odd.take(lanes)
        clicked, attempts = lane.take(lanes, axis=1)  # their ids, and blocks
        # the clicking attempt's setting: row 0 after a click on row 1, else row 2
        np.putmask(rows[0], ~odd, rows[2])
        fields = np.empty((len(Round._fields), len(at)), np.int16)
        attempts += attempts
        attempts -= odd
        fields[5] = attempts
        _integer5(rows[0], fields[0])
        _later(cfg, iter(rows[2:]), fields, slice(2))
        # the rows drawn, one at a time: a 2-d scatter takes longer than four
        for row in (0, *later[:2], 5):
            columns[row][clicked] = fields[row]
        # the pool's next blocks; the rounds that clicked give their lanes to
        # the next rounds, and leave the pool once none is left
        block[:n] += q
        fresh = min(len(at), rounds - top)
        ids[at[:fresh]] = np.arange(top, top + fresh)
        block[at[:fresh]] = 1
        top += fresh
        if fresh < len(at):
            hit[at[:fresh]] = False
            searching = lane[:, :n].compress(~hit, axis=1)
            n = searching.shape[1]
            lane[:, :n] = searching
            del searching
        del hit, lanes, rows, odd, clicked, attempts, fields, at  # before the next pass draws


def _finishing_sweep(cfg: ProtocolConfig, columns: np.ndarray) -> None:
    """The later draws that the rounds of ``_search_sweep`` still need: all of
    them after a click on row 3 (even attempts a), and all but the first two
    after a click on row 1, which leaves none without Eve.  They are read from
    block (a + 3) // 2, the one after the click, up to ``_BLOCK`` rounds a
    Philox call.  With Eve every round needs that block, so each window of
    ``_BLOCK`` consecutive rounds is finished in place in its view of the
    columns: the first two later draws are made for every round, from rows
    0-1, and put back to the search sweep's where it clicked on row 1; the
    rest are read from rows 0-1 after a click on row 1, else from rows 2-3.
    Without Eve only the 2/5 that clicked on row 3 do, taken in round order
    from windows of 3 ``_BLOCK`` rounds.  Outside Philox a call takes about
    32-34 us with Eve and 20 us without at 200,000 rounds, where the masked
    draws took 47-48 and 38 us."""
    rounds = columns.shape[1]
    if cfg.eve.present:
        later = _LATER_ROWS[cfg.eve.kind]
        ids = np.arange(min(_BLOCK, rounds), dtype=np.uint64)
        for start in range(0, rounds, _BLOCK):
            out = columns[:, start:start + _BLOCK]
            after = uniforms(cfg.seed, ids[:out.shape[1]], _next_block(out[5]))
            on_row1 = (out[5] & 1).astype(bool)
            for row in range(len(later) - 2):  # the rest's uniforms, in rows 2-3
                np.putmask(after[row + 2], on_row1, after[row])
            made = out.take(later[:2], 0)  # the search sweep's first two later draws
            _later(cfg, iter(after[:2]), out, slice(2))
            for row, kept in zip(later, made):
                np.putmask(out[row], on_row1, kept)
            _later(cfg, iter(after[2:]), out, slice(2, None))
            ids += len(ids)
            del after, on_row1, made, kept  # before the next call draws
        return
    start = 0
    while start < rounds:
        on_row3 = (columns[5, start:start + 3 * _BLOCK] & 1 == 0).nonzero()[0]
        ids = on_row3[:_BLOCK] + start
        start += int(on_row3[_BLOCK - 1]) + 1 if len(ids) == _BLOCK else 3 * _BLOCK
        del on_row3  # before the call draws
        if not len(ids):
            continue
        after = uniforms(cfg.seed, ids.view(np.uint64), _next_block(columns[5].take(ids)))
        fields = columns[:3].take(ids, axis=1)  # i, and j and Bob's outcome to draw
        _later(cfg, iter(after), fields)
        for row in (1, 2):
            columns[row][ids] = fields[row]
        del after, fields  # before the next call draws


def _next_block(attempts: np.ndarray) -> np.ndarray:
    """Block (a + 3) // 2, the one after the click, of each round's attempts a,
    as the uint64 array uniforms reads."""
    block = np.add(attempts, 3, dtype=np.uint64, casting="unsafe")
    block >>= 1
    return block


def _finish(cfg: ProtocolConfig, u, out: np.ndarray) -> None:
    """Rows 0-4 of ``out`` for rounds whose uniforms, from Alice's setting on,
    the iterator ``u`` yields one row at a time, as ``run_round`` draws them.

    Each row is read once and overwritten; what a round drew so far is kept
    in ``out`` alone, so that the next row may be drawn when it is asked for."""
    _integer5(next(u), out[0])
    _eve_fixed(cfg, out)
    _later(cfg, u, out)


def _eve_fixed(cfg: ProtocolConfig, fields: np.ndarray) -> None:
    """Eve's rows of ``fields`` that no draw sets: k = e = -1 without her, and
    her setting k when it is fixed."""
    eve = cfg.eve
    if eve.kind == ABSENT:
        fields[3:5] = -1
    elif eve.kind == FIXED:
        fields[3] = eve.setting


def _later(cfg: ProtocolConfig, u, fields: np.ndarray, draws: slice = slice(None)) -> None:
    """The ``draws`` of a round's later draws, ``_LATER_ROWS``, into their rows
    of ``fields`` (int16 rows i, j, bob_outcome, k, e), each from the next
    row of uniforms of the iterator ``u`` and the fields drawn before it, as
    ``run_round`` draws them.  Click probabilities are looked up by flat
    int16 index."""
    for row in _LATER_ROWS[cfg.eve.kind][draws]:
        if row in (1, 3):  # Bob's setting j, or random Eve's k
            _integer5(next(u), fields[row])
            continue
        drawn = next(u)  # before the click probabilities: it may start a block
        if row == 4 and cfg.eve.kind == FIXED:  # Eve's click at her one setting
            p_click, cell = cfg.channel.branch[:, cfg.eve.setting, 1], fields[0]
        elif row == 4:  # Eve's click, from a contiguous view of her channel
            p_click, cell = cfg.channel.branch[..., 1], fields[0] * _FIVE16 + fields[3]
        elif cfg.eve.present:
            # one einsum, where a chain of six ufuncs or a matmul takes longer
            p_click, cell = cfg.channel.click, np.einsum("r,rn->n", _BOB_CELL, fields[:5])
        else:
            p_click, cell = cfg.basis.overlap, fields[0] * _FIVE16 + fields[1]
        fields[row] = drawn < p_click.take(cell)
        del drawn, cell  # before the next row is drawn


def _row_codes(columns: np.ndarray) -> np.ndarray:
    """The int16 row code of each round whose i, j, bob_outcome, k and e are
    rows 0-4 of ``columns``."""
    codes = np.einsum("r,rn->n", _ROW_WEIGHTS, columns[:5])  # about 3x as fast as @
    codes += 4
    return codes


def _row_fields():
    """(i, j, bob_outcome, k, e) of each row code in order; k and e are -1
    without Eve, and no round has only one of them -1."""
    return itertools.product(range(5), range(5), range(2), range(-1, 5), range(-1, 2))


@cache
def _sift_fold() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only int64 tables of the sift fold.  Row code r is 36 (5 i + j)
    + t, and ``by_outcome[t]`` is 1 in column bob_outcome and in column 2 +
    eve_guess(e), or 4 without Eve: it folds counts into ``_sift_read``'s table.
    ``by_bit[a, 5 i + j]`` is 1 where (i, j) are sifted with Alice's bit a, and
    ``reads`` holds, per sifted (i, j) row-major, the flat index in that table
    of Bob's outcome 1 - a (row 0) and of Eve's guess a (row 1)."""
    by_bit = np.zeros((2, 25), np.int64)
    by_outcome = np.zeros((36, 5), np.int64)
    for row, (i, j, bob_outcome, _, e) in enumerate(_row_fields()):
        settings, t = divmod(row, 36)
        by_bit[:, settings] = SIFT[i, j] == np.arange(2)
        by_outcome[t, [bob_outcome, 4 if e < 0 else 2 + eve_guess(e)]] = 1
    sifted = np.flatnonzero(SIFT != C3)
    bit = SIFT.ravel()[sifted]
    reads = 5 * sifted + np.array([1 - bit, 2 + bit])
    for table in (by_bit, by_outcome, reads):
        table.setflags(write=False)
    return by_bit, by_outcome, reads


def _sift_read(table: np.ndarray) -> tuple[list, list, list]:
    """The statistics of a per-cell table, of counts or of probabilities: row
    5 i + j holds the (i, j) rounds' [Bob's outcome 0, 1, Eve's guess 0, 1, no
    Eve record].  Returns its sifted rows summed by Alice's bit a, as two
    lists, and per sifted (i, j), row-major, the entries where Bob's outcome
    differs from a (read for K(A,B)) and where Eve's guess is a (for p_E)."""
    by_bit, _, reads = _sift_fold()
    return (by_bit @ table).tolist(), *table.take(reads).tolist()


def _sifted_counts(cells: np.ndarray) -> tuple[list, list, list]:
    """``_sift_read`` of 900 counts laid out as ``Transcript.cells`` is."""
    return _sift_read(cells.reshape(25, 36) @ _sift_fold()[1])


def _subset_cells(columns: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The rounds of each row code, as ``Transcript.cells`` counts them but
    flat, among the rounds at the sorted ``positions`` of the sifted rounds of
    ``columns``; found ``_STATS_CHUNK`` rounds at a time."""
    cells = np.zeros(_ROWS, np.int64)
    done = before = 0  # positions counted, and sifted rounds before the chunk
    for start in range(0, columns.shape[1], _STATS_CHUNK):
        if done == len(positions):
            break
        chunk = columns[:, start:start + _STATS_CHUNK]
        # the row codes of the chunk's sifted rounds, bit j - i + 4 of _SIFT_BITS
        sifted = chunk[1] - chunk[0]
        sifted += 4
        np.right_shift(_SIFT_BITS, sifted, sifted)
        sifted &= 1
        sifted = _row_codes(chunk)[sifted.astype(bool)]
        if len(sifted):
            # the positions up to the chunk's last sifted round, found in their
            # own dtype: a Python int would cast them all to int64
            last = positions.dtype.type(before + len(sifted) - 1)
            end = positions.searchsorted(last, "right")
            # positions[done] >= before, so before fits the positions' dtype
            cells += np.bincount(sifted[positions[done:end] - before], minlength=_ROWS)
            done, before = end, before + len(sifted)
    return cells


def _entropy_bits(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def key_stats(t: Transcript) -> KeyStats:
    """Sift-rate, bit frequencies, entropy and key rate over sifted rounds,
    counted from ``t.cells``."""
    ((a00, a01, *_), (a10, a11, *_)), anticorrelated, _ = t._sifted
    n = a00 + a01 + a10 + a11
    if not n:
        raise ValueError("no sifted rounds: cannot compute key statistics")
    p1 = (a10 + a11) / n
    p0 = 1.0 - p1
    shannon = _entropy_bits(p1)
    sift_rate = n / t.columns.shape[1]
    anticorr = sum(anticorrelated) / n
    return KeyStats(
        sift_rate=sift_rate,
        p0=p0,
        p1=p1,
        shannon=shannon,
        key_rate_per_transmission=sift_rate * shannon,
        anticorr_fraction=anticorr,
    )


def _mutual_information(joint: list) -> float:
    """Plug-in mutual information of the bit pairs counted in ``joint[x][y]``."""
    n = sum(joint[0]) + sum(joint[1])
    total = 0.0
    for a in (0, 1):
        for b in (0, 1):
            p_ab = joint[a][b] / n
            if p_ab == 0.0:
                continue
            p_a = (joint[a][0] + joint[a][1]) / n
            p_b = (joint[0][b] + joint[1][b]) / n
            total += p_ab * math.log2(p_ab / (p_a * p_b))
    return max(total, 0.0)


def estimate_pe(t: Transcript) -> float:
    """Fraction of sifted rounds where Eve's guess matches Alice's key bit,
    counted from ``t.cells``."""
    ((b00, b01, *_, missing0), (b10, b11, *_, missing1)), _, guessed = t._sifted
    n = b00 + b01 + b10 + b11
    if missing0 or missing1 or not n:
        raise ValueError("no sifted rounds, or sifted rounds without Eve records")
    return sum(guessed) / n


def estimate_security(t: Transcript) -> SecurityReport:
    """Sacrifice a uniform subset of sifted rounds and test K(A,B) > 5/8.

    The subset is the config's ``sacrifice_fraction`` of the sifted rounds,
    drawn from the security test's stream.  Both parties publish their bits
    on it; the verdict compares the observed anti-correlation fraction
    against the threshold with a 3-sigma normal halfwidth (floored at 1/m at
    the boundary values).  Sacrificed rounds are excluded from the final key.
    The sifted rounds are counted from ``t.cells``, and the m sacrificed ones
    in a second pass over the columns.
    """
    cfg = t.config
    ((b00, b01, *_), (b10, b11, *_)), *_ = t._sifted
    n = b00 + b01 + b10 + b11
    if not n:
        raise ValueError("no sifted rounds: cannot run a security test")
    m = int(round(cfg.sacrifice_fraction * n))
    if m < 100:
        return SecurityReport(
            kab_estimate=float("nan"),
            confidence_halfwidth=float("nan"),
            threshold=SECURITY_THRESHOLD,
            verdict="Inconclusive",
            sacrificed_count=m,
            note=f"sacrificed subset too small ({m} < 100 sifted rounds)",
        )
    subset = _subset_cells(t.columns, RngStream(cfg.seed, stream_id=cfg.rounds).subset(n, m))
    ((b00, b01, g00, g01, _), (b10, b11, g10, g11, _)), anticorrelated, _ = _sifted_counts(subset)
    kab = sum(anticorrelated) / m
    if kab in (0.0, 1.0):
        halfwidth = 1.0 / m
    else:
        halfwidth = 3.0 * math.sqrt(kab * (1.0 - kab) / m)
    if kab - halfwidth > SECURITY_THRESHOLD:
        verdict = "Secure"
    elif kab + halfwidth < SECURITY_THRESHOLD:
        verdict = "Insecure"
    else:
        verdict = "Inconclusive"

    pe = None
    mi_ae = None
    if cfg.eve.present:
        pe = estimate_pe(t)
        mi_ae = _mutual_information([[g00, g01], [g10, g11]])
    mi_ab = _mutual_information([[b00, b01], [b10, b11]])
    return SecurityReport(
        kab_estimate=kab,
        confidence_halfwidth=halfwidth,
        threshold=SECURITY_THRESHOLD,
        verdict=verdict,
        pe_estimate=pe,
        mutual_info_ab=mi_ab,
        mutual_info_ae=mi_ae,
        sacrificed_count=m,
    )


def _attack_tables(strategy: EveStrategy, basis: KcbsBasis) -> tuple[np.ndarray, np.ndarray]:
    """Eve's exact weights ``weight[i, k, g]``, the probability that she
    measures k and guesses g on ray i, over her five settings, and the
    per-cell table of ``_sift_read`` of the same rounds, of probabilities:
    each (i, j) row has mass 1.  Its entries sum Eve's settings k ascending,
    her guess 0 before guess 1, from 0.0; the weight of a setting she never
    measures is 0, which adds exact zeros.  ``eve_guess`` must map her two
    outcomes onto the two guesses."""
    channel = build_channel(basis)
    w_k = np.eye(5)[strategy.setting] if strategy.kind == FIXED else np.full(5, 0.2)
    by_guess = sorted(range(2), key=eve_guess)  # Eve's outcome e of each guess g
    weight = w_k[:, None] * channel.branch[..., by_guess]
    click = channel.click[:, :, by_guess]
    guess = np.broadcast_to(np.eye(2)[:, None, None, :, None], (2, *click.shape))
    columns = np.stack([1.0 - click, click, *guess, np.zeros_like(click)], axis=-1)
    terms = weight[..., None, None] * columns  # [i, k, g, j, column]
    return weight, sum(np.moveaxis(terms, 0, 2).reshape(10, 25, 5), 0.0)


# bounded, as a process may ask for the oracle of any number of bases
@lru_cache(maxsize=32)
def attack_expectation(strategy: EveStrategy, basis: KcbsBasis) -> AttackExpectation:
    """Exact expected values of an intercept-resend attack (no sampling).

    ``_sift_read`` reads the exact per-cell table of ``_attack_tables`` as
    the estimators read counts; each of the 15 sifted (i, j) has mass 1, so
    K(A,B) and p_E are its reads summed row-major, over 15.  Every value is
    reproducible to the last bit.  Computed once per value of the strategy
    and of the basis; the result is immutable.
    """
    if not strategy.present:
        raise ValueError("attack_expectation requires a present eavesdropper")
    weight, table = _attack_tables(strategy, basis)
    _, anticorrelated, guessed = _sift_read(table)

    # Alice-Eve anti-correlation: Eve in Bob's role, whose outcome differs
    # from Alice's bit where her guess equals it
    eve_bit = SIFT[..., None]  # [i, k, 1]: Alice's bit, or C3 out of context
    kae_num = sum((weight * (eve_bit == np.arange(2))).ravel().tolist())
    kae_den = sum((weight * (eve_bit != C3)).ravel().tolist())

    # Published linear form: (3/5) * P01 + 1/5, with P01 the guess-success
    # probability when Eve's setting is one step from Alice's preparation.
    # Each ray i is sifted with three settings j, the reads 3 i to 3 i + 2.
    per_i = [sum(guessed[3 * i:3 * i + 3]) / 3.0 for i in range(5)]
    p01 = per_i[(strategy.setting - 1) % 5] if strategy.kind == FIXED else max(per_i)

    def by_setting(reads: list) -> tuple:
        reads = iter(reads)
        return tuple(tuple(None if case == C3 else next(reads) for case in row)
                     for row in SIFT.tolist())

    return AttackExpectation(
        kab_expected=sum(anticorrelated) / 15.0,
        pe_expected=sum(guessed) / 15.0,
        kae_expected=kae_num / kae_den if kae_den > 0 else 0.0,
        paper_kae_linear_form=0.6 * p01 + 0.2,
        anticorr_table=by_setting(anticorrelated),
        guess_table=by_setting(guessed),
    )


@cache
def _csv_tables() -> tuple[np.ndarray, np.ndarray]:
    """The pieces of a transcript line, NUL-padded to one width per table.

    ``digits[0, r]`` (uint8) is an index r below 1000 and ``digits[1, r]`` the
    last three digits of a larger index.  ``tails`` (bytes) holds every line a
    round can have after its index, as ``csv.writer`` writes it, at the
    round's row code ((5 i + j) 2 + bob_outcome) 18 + 3 (k + 1) + e + 1,
    where Eve's setting k and outcome e are -1 without Eve.
    """
    names = ("C1", "C2", "C3")
    tails = []
    for i, j, bob_outcome, k, e in _row_fields():
        if (k < 0) != (e < 0):  # no round draws only one of Eve's two values
            tails.append("")
            continue
        case = int(SIFT[i, j])  # on a sifted round also Alice's bit
        sifted, eve = case != C3, e >= 0
        fields = [i, j, names[case], bob_outcome,
                  case if sifted else "", bob_outcome if sifted else "",
                  k if eve else "", e if eve else "", eve_guess(e) if eve else ""]
        tails.append("".join(f",{field}" for field in fields) + "\r\n")
    digits = np.array(
        [[str(r).rjust(3, "\0") for r in range(1000)], [f"{r:03}" for r in range(1000)]],
        dtype=np.bytes_,
    ).view(np.uint8).reshape(2, 1000, 3)
    tables = digits, np.array(tails, dtype=np.bytes_)
    for table in tables:
        table.setflags(write=False)
    return tables


def write_transcript_csv(t: Transcript, out) -> None:
    """One CSV line per round, CRLF-terminated, written to the binary file
    ``out``; unset bits render as empty fields.  ``out`` may also be a path,
    which is opened and written in place.  Each half chunk of rounds is
    rendered in one reused buffer, a bytearray of NUL-padded lines, from its
    index digits and its rows of line tails, and written without the pad; a
    chunk's index prefix is written into the buffer once, as the chunk
    starts."""
    if not hasattr(out, "write"):
        with open(out, "wb") as fh:
            write_transcript_csv(t, fh)
        return
    digits, tails = _csv_tables()
    rounds = t.columns.shape[1]
    # the indices of chunk c are c followed by three digits
    prefix = len(str((rounds - 1) // _CSV_CHUNK))
    width = prefix + 3 + tails.itemsize
    buffer = bytearray(min(rounds, _CSV_HALF) * width)
    lines = np.frombuffer(buffer, np.uint8).reshape(-1, width)
    out.write((",".join(CSV_COLUMNS) + "\r\n").encode())
    for start in range(0, rounds, _CSV_HALF):
        c, offset = divmod(start, _CSV_CHUNK)
        if offset == 0:
            lines[:, :prefix] = np.frombuffer(f"{c or ''}".encode().ljust(prefix, b"\0"), np.uint8)
        n = min(rounds - start, _CSV_HALF)
        if n < len(lines):  # the session's last rounds: the rows after them are all pad
            lines[n:] = 0
        lines[:n, prefix:prefix + 3] = digits[min(c, 1), offset:offset + n]
        tail = tails.take(_row_codes(t.columns[:, start:start + n]))
        lines[:n, prefix + 3:] = tail.view(np.uint8).reshape(n, tails.itemsize)
        del tail  # not held beside the unpadded copy that is written
        out.write(buffer.translate(None, b"\0"))
