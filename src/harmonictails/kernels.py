"""Banded nonnegative transition kernels on the nonnegative integers.

A kernel stores one weight row per state for states up to a truncation
level; a tail rule supplies rows beyond it (a single homogeneous row for
eventually-homogeneous chains, or a row generator for chains that are only
asymptotically homogeneous).  Rows are indexed by offset: column ``c``
holds the weight of the jump ``c - band_lo``.

Kernels are immutable.  Transforms (normalising, killing a finite set of
target states, exponential tilting) build new kernels; weights that fall
below 1e-15 along the way are dropped and the discarded total is recorded
on the result.

The solvers read rows as (n, width) blocks and work on them with the banded
helpers at the end of this module: I - P (or its transpose) in LAPACK band
storage, its solve, and the mat-vecs P v and mu P.  A window of rows is one
block or a list of blocks stacked in state order, as
``TransitionKernel.row_blocks`` hands them out without copying: a view of the
explicit rows, then the tail's block, which for a homogeneous tail is one row
broadcast (row stride 0), so that each band column of it is written as a
scalar fill.  Row masses come from the kernel too: the explicit rows' sums are
taken once, at construction, and a homogeneous tail has one.  Every row sum
of a block goes through ``row_sums``, column by column in numpy's own order.

A solve at truncation K is checked by a second one at 2K, and the pair
shares one assembly, for the 2K window.  The K window's I - P is the column
slice ``ab[:, :n]`` of that storage: LAPACK never reads a band entry of a
row >= n of an n x n matrix (``dgtsv`` takes only the first n or n - 1
entries of each diagonal, and ``dgbtf2`` limits column j to min(kl, n - j)
rows below the diagonal), so the slice solves with the bits of the window's
own assembly.  The transposed system holds row x of P in column x and
nothing else, so there the K window is solved in place on the first n
columns, with its reflected top rows rewritten, and those columns are
written again from rows 0..n - 1 before the 2K solve (``stationary``).
The stationary solve also stops its exps where they underflow to exactly
0, at a multiple of 64 terms, as the BLAS dot would add those zeros to
unchanged sums.

The helpers work column by column: one numpy call per jump offset, over all
n rows, writing into a preallocated array (``out=``).  At large truncations
n is 10^4-10^5 while the width is a handful, so a numpy op that runs along
the short width axis (a row sum, a broadcast by a width-length vector) or
that allocates a fresh (n, width) temporary costs more than the LAPACK solve
itself; column by column, the work is a few streaming passes over n doubles.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import (
    DegenerateRowError,
    HarmonicTailsError,
    StateRangeError,
    UnsupportedInputError,
)

WEIGHT_FLOOR = 1e-15
_ROW_SUM_TOL = 1e-12
# Windows of fewer rows come as one block (``TransitionKernel.row_blocks``).
# The copy costs about 12 ns a row and a second block about 60 us per
# solve, so the two break even near this size.
SHORT_WINDOW = 4096


@dataclass(frozen=True)
class HomogeneousTail:
    """All rows beyond the truncation share one weight row."""

    row: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "row", np.asarray(self.row, dtype=float))

    def rows_at(self, lo: int, hi: int) -> np.ndarray:
        return np.broadcast_to(self.row, (hi - lo + 1, self.row.size))

    def delta_abs_bound(self) -> float:
        """Certified bound on sum over tail states of |log row mass|."""
        mass = float(self.row.sum())
        return 0.0 if abs(math.log(mass)) < 1e-14 else math.inf


@dataclass(frozen=True)
class ParametricTail:
    """Rows beyond the truncation come from a block rule.

    ``rule`` maps an increasing 1-d array of consecutive states to the
    (n, width) block of their rows.  A certified bound on the tail sum of
    |log row mass| cannot be derived from a black-box callable, so the
    constructor takes it as a declaration (default: unknown, treated as
    infinite).
    """

    rule: Callable[[np.ndarray], np.ndarray]
    declared_delta_abs_bound: float = math.inf

    def rows_at(self, lo: int, hi: int) -> np.ndarray:
        return np.asarray(self.rule(np.arange(lo, hi + 1)), dtype=float)

    def delta_abs_bound(self) -> float:
        return self.declared_delta_abs_bound


TailRule = HomogeneousTail | ParametricTail

# numpy's pairwise sum adds fewer than this many entries one after another,
# left to right, and unrolls into partial sums from this many on
_PAIRWISE_UNROLL = 8


def row_sums(block: np.ndarray) -> np.ndarray:
    """Row sums of an (n, width) block, bit for bit ``block.sum(axis=1)``.

    Below ``_PAIRWISE_UNROLL`` columns numpy adds a row's entries left to
    right, so the sum is taken column by column in that order: width - 1
    streaming passes over n doubles, where a reduction along the short axis
    costs about ten times as much at n = 4 x 10^4.  Wider blocks keep
    ``sum(axis=1)``, whose pairwise order no column loop reproduces.
    """
    if not 0 < block.shape[1] < _PAIRWISE_UNROLL:
        return block.sum(axis=1)
    out = block[:, 0].copy()
    for c in range(1, block.shape[1]):
        out += block[:, c]
    return out


def once(compute):
    """``compute(obj)``, worked out on the first call for an object and kept
    in its ``kept`` dict under the function's name: a kernel's tail walk, a
    walk's Cramér root and G, a family's limit walk.  A HarmonicTailsError
    that ``compute`` raises is kept as well, and raised again.  ``kept`` is
    a field with ``init=False, compare=False``, so ``dataclasses.replace``
    gives an object that keeps nothing."""
    name = compute.__name__

    @functools.wraps(compute)
    def kept(obj):
        if name not in obj.kept:
            try:
                obj.kept[name] = compute(obj)
            except HarmonicTailsError as exc:
                obj.kept[name] = exc
                raise
        out = obj.kept[name]
        if isinstance(out, HarmonicTailsError):
            raise out.with_traceback(None)
        return out

    return kept


def _as_state_fn(f):
    """Accept a callable, a mapping, or an estimate object with .value()."""
    if callable(f):
        return f
    if hasattr(f, "value"):
        return f.value
    if isinstance(f, Mapping):
        return lambda i: f[i]
    raise UnsupportedInputError(f"cannot interpret {type(f).__name__} as a state function")


@dataclass(frozen=True)
class TransitionKernel:
    """Nonnegative banded kernel with explicit rows on ``state_lo..truncation``.

    Every represented row must carry positive total mass, and no weight may
    point at a negative state.  ``masses`` holds the explicit rows' sums;
    ``kept`` the homogeneous level and the tail walk (``ladder._tail_walk``,
    which keeps its own root and G), each on first use (``once``); and
    ``mc_cache`` what Monte Carlo keeps of the kernel once certified,
    whatever the top its paths score: the embedded chain, the Lundberg
    exponent, the tail walk's excursion law and the last two path chains
    built (``harmonic._PathCache``).  All are taken from the rows once, so
    a kernel is not edited in place; ``dataclasses.replace`` gives a kernel
    that keeps nothing.
    """

    band_lo: int
    band_hi: int
    weights: np.ndarray  # shape (truncation - state_lo + 1, band_lo + band_hi + 1)
    state_lo: int = 0
    tail: TailRule | None = None
    dropped_mass: float = 0.0
    meta: dict = field(default_factory=dict)
    masses: np.ndarray = field(init=False, repr=False, compare=False)
    kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    mc_cache: object | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        # C order, so that a row's sum is the same double here and in a block
        w = np.ascontiguousarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        width = self.band_lo + self.band_hi + 1
        if w.ndim != 2 or w.shape[1] != width:
            raise UnsupportedInputError(
                f"weights must be 2-d with {width} offset columns, got shape {w.shape}"
            )
        if self.band_lo < 0 or self.band_hi < 0:
            raise UnsupportedInputError("band widths must be nonnegative")
        if self.state_lo < 0:
            raise UnsupportedInputError("states live on the nonnegative integers")
        # a NaN makes min and max NaN, so both comparisons fail on it
        if w.size and not (w.min() >= 0.0 and w.max() < math.inf):
            raise UnsupportedInputError("weights must be finite and nonnegative")
        masses = row_sums(w)
        masses.flags.writeable = False
        object.__setattr__(self, "masses", masses)
        if np.any(masses <= 0):
            dead = int(np.argmax(masses <= 0)) + self.state_lo
            raise DegenerateRowError(f"row for state {dead} has no mass")
        r = first_row_below(w, self.band_lo, floor=-self.state_lo)
        if r is not None:
            raise UnsupportedInputError(
                f"row for state {self.state_lo + r} puts weight on negative target states"
            )
        if self.tail is not None:
            if self.tail.rows_at(self.truncation + 1, self.truncation + 1).shape != (1, width):
                raise UnsupportedInputError("tail rule row width does not match the band")

    # -- structure ---------------------------------------------------------

    @property
    def truncation(self) -> int:
        return self.state_lo + self.weights.shape[0] - 1

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(-self.band_lo, self.band_hi + 1)

    def has_row(self, i: int) -> bool:
        return (self.state_lo <= i <= self.truncation) or (
            i > self.truncation and self.tail is not None
        )

    def row(self, i: int) -> np.ndarray:
        return self.rows(i, i)[0]

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows of the states lo..hi as a read-only (hi - lo + 1, width) block."""
        parts = self._row_parts(lo, hi)
        block = parts[0].view() if len(parts) == 1 else np.concatenate(parts)
        block.flags.writeable = False
        return block

    def row_blocks(self, lo: int, hi: int) -> list[np.ndarray]:
        """Rows of the states lo..hi as read-only blocks in state order.

        A window of more than ``SHORT_WINDOW`` rows comes without a copy: a
        view of the explicit rows, then the tail's block.  A shorter one is
        the one block of ``rows``: for so few rows the banded helpers' numpy
        call per block costs more than the copy.
        """
        if hi - lo < SHORT_WINDOW:
            return [self.rows(lo, hi)]
        blocks = [b.view() for b in self._row_parts(lo, hi)]
        for b in blocks:
            b.flags.writeable = False
        return blocks

    def _row_parts(self, lo: int, hi: int) -> list[np.ndarray]:
        """A view of the explicit rows and the tail's block (a homogeneous
        tail's row broadcast, a parametric tail's rule called once), as far
        as each covers lo..hi."""
        top = self.truncation
        if lo < self.state_lo or (hi > top and self.tail is None):
            raise StateRangeError(
                f"state {lo if lo < self.state_lo else max(lo, top + 1)} outside represented "
                f"range [{self.state_lo}, {top}] and no tail rule applies"
            )
        parts = []
        if lo <= top:
            parts.append(self.weights[lo - self.state_lo : min(hi, top) - self.state_lo + 1])
        if hi > top:
            parts.append(self.tail.rows_at(max(lo, top + 1), hi))
        return parts

    @once
    def homogeneous_level(self) -> int | None:
        """First state from which every row is the homogeneous tail's row, bit
        for bit; None without a homogeneous tail.  All explicit rows are
        compared in one step, on the first call (``once``)."""
        if not isinstance(self.tail, HomogeneousTail):
            return None
        differ = np.flatnonzero((self.weights != self.tail.row).any(axis=1))
        return self.state_lo + (int(differ[-1]) + 1 if differ.size else 0)

    # -- scalar operations -------------------------------------------------

    def total_mass(self, i: int) -> float:
        """Row sum Q(i, Z+)."""
        m = float(self.row(i).sum())
        if m <= 0:
            raise DegenerateRowError(f"row for state {i} has no mass")
        return m

    def delta(self, i: int) -> float:
        """log of the row mass; zero for a stochastic row."""
        return math.log(self.total_mass(i))

    def apply(self, f, i: int) -> float:
        """(Q f)(i) = sum_j Q(i, j) f(j), evaluated on the support of row i."""
        fn = _as_state_fn(f)
        row = self.row(i)
        out = 0.0
        for c in np.flatnonzero(row):
            out += row[c] * fn(i + c - self.band_lo)
        return out

    # -- transforms --------------------------------------------------------

    def embed(self) -> "StochasticKernel":
        """Normalise every row to total mass one."""
        def normalise(block):
            return block / row_sums(block)[:, None]

        w, dropped = _drop_dust(normalise(self.weights))
        tail = _map_tail(self.tail, normalise, 0.0)
        if isinstance(tail, HomogeneousTail) and np.array_equal(tail.row, self.tail.row):
            tail = self.tail  # mass 1 exactly: Monte Carlo then shares the kernel's tail walk
        return StochasticKernel(
            band_lo=self.band_lo,
            band_hi=self.band_hi,
            weights=w,
            state_lo=self.state_lo,
            tail=tail,
            dropped_mass=self.dropped_mass + dropped,
        )


def _map_tail(tail: TailRule | None, f, bound: float) -> TailRule | None:
    """The tail rule whose row blocks are ``f`` of ``tail``'s; a parametric
    result declares ``bound`` as its log-mass bound."""
    if isinstance(tail, HomogeneousTail):
        return HomogeneousTail(f(tail.row[None, :])[0])
    if isinstance(tail, ParametricTail):
        return ParametricTail(lambda states: f(tail.rows_at(states[0], states[-1])), bound)
    return tail


def _drop_dust(w: np.ndarray) -> tuple[np.ndarray, float]:
    small = (w > 0) & (w < WEIGHT_FLOOR)
    if not small.any():
        return w, 0.0
    out = w.copy()
    dropped = float(out[small].sum())
    out[small] = 0.0
    return out, dropped


def _alive_suffix(weights: np.ndarray, state_lo: int) -> int:
    """First state index from which every row below keeps positive mass.

    Rows emptied by a transform must form a prefix of the state range;
    an empty row above a live one would leave a hole in the domain.
    """
    alive = row_sums(weights) > 0
    if not alive.any():
        raise DegenerateRowError("transform removed all mass from every represented row")
    first = int(np.argmax(alive))
    if not alive[first:].all():
        dead = first + int(np.argmax(~alive[first:])) + state_lo
        raise DegenerateRowError(
            f"row for state {dead} lost all its mass but higher states kept theirs; "
            "the surviving domain is not an upper range"
        )
    return first


@dataclass(frozen=True)
class StochasticKernel(TransitionKernel):
    """Kernel whose rows sum to one."""

    def __post_init__(self):
        super().__post_init__()
        m = self.masses
        # |m - 1| is largest at the smallest or the largest mass
        if m.size and max(abs(m.min() - 1.0), abs(m.max() - 1.0)) > _ROW_SUM_TOL:
            bad = int(np.argmax(np.abs(m - 1.0) > _ROW_SUM_TOL))
            raise UnsupportedInputError(
                f"row for state {bad + self.state_lo} sums to {m[bad]:.17g}, not 1"
            )

    def kill(self, targets: Iterable[int]) -> TransitionKernel:
        """Restrict the kernel to the complement of the finite set ``targets``.

        Transitions into the set and the rows of its members are removed.
        States left with no outgoing mass drop out of the domain; they must
        form a prefix of the state range.  The truncation must reach far
        enough that tail rows cannot touch the killed set.
        """
        targets = set(int(t) for t in targets)
        top = max(targets, default=-1)
        if targets and self.tail is not None and self.truncation < top + self.band_lo:
            raise UnsupportedInputError(
                f"truncation {self.truncation} too small: tail rows could reach "
                f"killed state {top} (need at least {top + self.band_lo})"
            )
        w = self.weights.copy()
        states = self.state_lo + np.arange(w.shape[0])
        dead = list(targets)
        w[np.isin(states, dead)] = 0.0
        w[np.isin(states[:, None] + self.offsets, dead)] = 0.0
        first = _alive_suffix(w, self.state_lo)
        return TransitionKernel(
            band_lo=self.band_lo,
            band_hi=self.band_hi,
            weights=w[first:],
            state_lo=self.state_lo + first,
            tail=self.tail,
            dropped_mass=self.dropped_mass,
            meta={"killed": sorted(targets)},
        )

    def tilt(self, beta: float, level: int = -1) -> TransitionKernel:
        """Exponentially tilted kernel with targets at or below ``level`` removed.

        Entry (i, j) becomes exp(beta (j - i)) P(i, j) 1{j > level}.  With
        ``level = -1`` nothing is removed and this is a pure tilt.
        """
        if self.tail is not None and level >= 0 and self.truncation < level + self.band_lo:
            raise UnsupportedInputError(
                f"truncation {self.truncation} too small for tilt level {level} "
                f"(need at least {level + self.band_lo})"
            )
        factors = np.exp(beta * self.offsets.astype(float))
        w = self.weights * factors
        if level >= 0:
            states = self.state_lo + np.arange(w.shape[0])
            w[states[:, None] + self.offsets <= level] = 0.0
        w, dropped = _drop_dust(w)
        first = _alive_suffix(w, self.state_lo)

        # tilting a merely asymptotically stochastic row sequence leaves
        # log masses that need not be summable; no bound can be carried over
        tail = _map_tail(self.tail, lambda block: block * factors, math.inf)
        return TransitionKernel(
            band_lo=self.band_lo,
            band_hi=self.band_hi,
            weights=w[first:],
            state_lo=self.state_lo + first,
            tail=tail,
            dropped_mass=self.dropped_mass + dropped,
            meta={"tilt_beta": float(beta), "tilt_level": int(level)},
        )


def kernel_from_rows(
    rows: Mapping[int, Mapping[int, float]] | Callable[[int], Mapping[int, float]],
    truncation: int,
    band_lo: int,
    band_hi: int,
    tail: TailRule | None = None,
    state_lo: int = 0,
    stochastic: bool = False,
) -> TransitionKernel:
    """Assemble a kernel from per-state offset->weight maps."""
    width = band_lo + band_hi + 1
    n = truncation - state_lo + 1
    w = np.zeros((n, width))
    getter = rows if callable(rows) else (lambda i: rows[i])
    for r in range(n):
        for off, val in getter(state_lo + r).items():
            if not -band_lo <= off <= band_hi:
                raise UnsupportedInputError(
                    f"offset {off} at state {state_lo + r} falls outside the band"
                )
            w[r, off + band_lo] = val
    cls = StochasticKernel if stochastic else TransitionKernel
    return cls(
        band_lo=band_lo,
        band_hi=band_hi,
        weights=w,
        state_lo=state_lo,
        tail=tail,
    )


# ---------------------------------------------------------------------------
# banded linear algebra on row blocks
#
# A window of n consecutive states is given by its rows: one (n, width)
# block, or a list of blocks stacked in state order (``row_blocks``); column
# c is the jump c - band_lo.  Weight that leaves the window is not part of
# the window's matrix.  Every helper runs column by column and, within a
# column, block by block, so a split into blocks changes no result bit.


def _stacked(rows) -> list[tuple[int, np.ndarray]]:
    """(first window row, block) for each block of ``rows``."""
    out, start = [], 0
    for block in [rows] if isinstance(rows, np.ndarray) else rows:
        out.append((start, block))
        start += len(block)
    return out


def row_slice(rows, lo: int, hi: int) -> list[np.ndarray]:
    """Rows lo..hi - 1 of the window ``rows`` as a list of blocks (views)."""
    return [
        block[max(lo - s, 0) : hi - s]
        for s, block in _stacked(rows)
        if s < hi and s + len(block) > lo
    ]


def band_system(rows, band_lo: int, transpose: bool = False, factors=None):
    """I - P on the window ``rows`` in LAPACK band storage.

    Returns ``((l, u), ab)`` for ``band_solve``; with ``transpose`` the
    matrix is (I - P)^T and (l, u) = (band_hi, band_lo).  With ``factors``,
    column c of P is scaled by factors[c].  Storage entries outside the
    n x n matrix are zero.
    """
    parts = _stacked(rows)
    W = parts[0][1].shape[1]
    n = sum(len(block) for _, block in parts)
    band_hi = W - 1 - band_lo
    ab = np.empty((W, n))
    for c in range(W):  # zero the two corners no row writes
        off = c - band_lo
        first = min(max(0, -off if transpose else off), n)
        end = max(min(n, n - off if transpose else n + off), first)
        ab[c if transpose else W - 1 - c, :first] = 0.0
        ab[c if transpose else W - 1 - c, end:] = 0.0
    for start, block in parts:
        band_write(ab, start, block, band_lo, transpose, factors)
    return ((band_hi, band_lo) if transpose else (band_lo, band_hi)), ab


def band_write(ab: np.ndarray, start: int, block: np.ndarray, band_lo: int,
               transpose: bool = False, factors=None) -> None:
    """Write the rows ``start, start + 1, ...`` of I - P (or its transpose)
    from ``block`` into the band storage ``ab`` of an ab.shape[1]-state window.

    Column by column; a block with row stride 0 (a homogeneous tail's
    broadcast row) is a scalar fill.  Entries whose target leaves the window
    are not written.
    """
    W, n = ab.shape
    stop = min(start + len(block), n)
    uniform = block.strides[0] == 0 and len(block) > 0
    for c in range(W):
        off = c - band_lo
        lo, hi = max(start, -off), min(stop, n - off)  # rows x whose target x + off is inside
        if lo >= hi:
            continue
        if transpose:  # entry (x + off, x) sits at ab[band_lo + off, x]
            dst = ab[c, lo:hi]
        else:  # entry (x, x + off) sits at ab[band_hi - off, x + off]
            dst = ab[W - 1 - c, lo + off : hi + off]
        src = block[lo - start : hi - start, c]
        if uniform:
            dst.fill(-src[0] if factors is None else src[0] * -factors[c])
        elif factors is None:
            np.negative(src, out=dst)
        else:
            np.multiply(src, -factors[c], out=dst)
    ab[band_lo if transpose else W - 1 - band_lo, start:stop] += 1.0


def _lapack_from_file():
    """``dgtsv`` and ``dgbsv`` of scipy's LAPACK extension, loaded from its
    file, so that neither ``scipy/__init__`` nor ``scipy/linalg/__init__``
    runs: that import would be most of the start-up time and memory of a run
    that needs only these two routines."""
    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    linalg = os.path.join(scipy_dir, "linalg")
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(linalg, "_flapack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            flapack = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(flapack)
            return flapack.dgtsv, flapack.dgbsv
    raise ImportError(f"no _flapack extension in {linalg}")


@functools.cache
def _lapack():
    """The two routines, loaded once; ``scipy.linalg.lapack`` gives the same
    ones, only through the slow import, if the file or a routine is missing."""
    try:
        return _lapack_from_file()
    except (ImportError, AttributeError):
        from scipy.linalg import lapack

        return lapack.dgtsv, lapack.dgbsv


def _finite(a) -> np.ndarray:
    """``np.asarray_chkfinite(a, dtype=float)``, its error included, with the
    test on the min and the max (NaN if any entry is) in place of a boolean
    array of the input's size."""
    a = np.asarray(a, dtype=float)
    if a.size and not (math.isfinite(a.min()) and math.isfinite(a.max())):
        raise ValueError("array must not contain infs or NaNs")
    return a


def band_solve(lu, ab: np.ndarray, b: np.ndarray, *, overwrite: bool = False) -> np.ndarray:
    """Solve A x = b for the band-stored A of ``band_system``.

    The checks, LAPACK calls and result bits of
    ``scipy.linalg.solve_banded(lu, ab, b)`` (scipy 1.17) on float64 input:
    one division for n = 1, ``dgtsv`` for (l, u) = (1, 1) and ``dgbsv`` on a
    zeroed (2l + u + 1, n) copy otherwise, in Fortran order, so that f2py
    hands it to LAPACK without a second copy.  A non-finite input or a shape
    mismatch raises ``ValueError``, a singular matrix
    ``np.linalg.LinAlgError``.  Neither ``ab`` nor ``b`` is written, unless
    ``overwrite`` is set: then LAPACK works in place on the diagonals of a
    tridiagonal ``ab`` whose rows are contiguous (C order, or the first
    columns of such an array) and on a contiguous ``b``, and the result
    may be ``b`` itself.  Only a caller that owns both and reads neither
    afterwards sets it.
    """
    l, u = lu
    a1, b1 = _finite(ab), _finite(b)
    if a1.shape[-1] != b1.shape[0]:
        raise ValueError("shapes of ab and b are not compatible.")
    if l + u + 1 != a1.shape[0]:
        raise ValueError(f"l+u+1 ({l + u + 1}) does not equal ab.shape[0] ({a1.shape[0]})")
    if b1.size == 0:
        return np.empty_like(b1)
    if a1.shape[1] == 1:
        return b1 / a1[u, 0]
    gtsv, gbsv = _lapack()
    if l == u == 1:  # f2py copies the diagonals and b before dgtsv overwrites them, unless told
        *_, x, info = gtsv(a1[2, :-1], a1[1], a1[0, 1:], b1, overwrite_dl=overwrite,
                           overwrite_d=overwrite, overwrite_du=overwrite, overwrite_b=overwrite)
    else:
        a2 = np.zeros((2 * l + u + 1, a1.shape[1]), order="F")
        a2[l:] = a1
        *_, x, info = gbsv(l, u, a2, b1, overwrite_ab=True, overwrite_b=overwrite)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gbsv/gtsv")
    return x


def first_row_below(block: np.ndarray, band_lo: int, floor: int = 0) -> int | None:
    """First row x of the block with weight on a state x + offset < floor."""
    head = block[: max(band_lo + floor, 0)]
    below = np.arange(len(head))[:, None] + np.arange(block.shape[1]) - band_lo < floor
    hit = np.flatnonzero((below & (head > 0)).any(axis=1))
    return int(hit[0]) if hit.size else None


def band_pin(lu, ab: np.ndarray, i: int) -> None:
    """Replace equation ``i`` of a band-stored system by x(i) = rhs(i)."""
    l, u = lu
    for y in range(max(0, i - l), min(ab.shape[1], i + u + 1)):
        ab[u + i - y, y] = 1.0 if y == i else 0.0


def band_closure(rows, band_lo: int, G: np.ndarray, transpose: bool = False, factors=None):
    """I - P (or its transpose) on the window ``rows``, as ``band_system``
    assembles it, with its last m = len(G) equations replaced by the closure
    x(top level) = G x(level below): the last 2m states of the window are two
    levels of m states each.

    Returns ``((l, u), ab)`` for ``band_solve``; the lower band is widened to
    at least 2m - 1, which the closure needs.
    """
    parts = _stacked(rows)
    W = parts[0][1].shape[1]
    n, m = sum(len(block) for _, block in parts), len(G)
    l0, u = (W - 1 - band_lo, band_lo) if transpose else (band_lo, W - 1 - band_lo)
    l = max(l0, 2 * m - 1)
    ab = np.zeros((l + u + 1, n))  # the extra subdiagonals are the last rows
    for start, block in parts:
        band_write(ab[: l0 + u + 1], start, block, band_lo, transpose, factors)
    for k in range(l + u + 1):  # storage row k holds the entries (r, r + u - k)
        ab[k, max(0, n - m + u - k) : max(0, n + u - k)] = 0.0
    ab[u, n - m :] = 1.0
    j = np.arange(m)
    ab[u + m + j[:, None] - j, n - 2 * m + j] = -G
    return (l, u), ab


def band_matvec(rows, band_lo: int, v: np.ndarray) -> np.ndarray:
    """(P v)(x) for the window rows; ``v`` holds the values on the window
    padded by band_lo states below and band_hi states above it."""
    parts = _stacked(rows)
    n = sum(len(block) for _, block in parts)
    out, term = np.zeros(n), np.empty(n)
    for c in range(parts[0][1].shape[1]):
        for s, block in parts:
            e = s + len(block)
            out[s:e] += np.multiply(block[:, c], v[s + c : e + c], out=term[s:e])
    return out


def band_rmatvec(rows, band_lo: int, mu: np.ndarray, factors=None) -> np.ndarray:
    """(mu P) on the window; mass sent outside the window is dropped.  With
    ``factors``, column c of P is scaled by factors[c] first, as in
    ``band_system``."""
    parts = _stacked(rows)
    n = sum(len(block) for _, block in parts)
    out, vals = np.zeros(n), np.empty(n)
    for c in range(parts[0][1].shape[1]):
        off = c - band_lo
        for s, block in parts:
            e = s + len(block)
            col = block[:, c]
            if factors is not None and block.strides[0] == 0:
                col = col[:1] * factors[c]  # one row, broadcast
            elif factors is not None:
                col = np.multiply(col, factors[c], out=vals[s:e])
            np.multiply(mu[s:e], col, out=vals[s:e])
            lo, hi = max(s, -off), min(e, n - off)  # rows whose target x + off is inside
            if lo < hi:
                out[lo + off : hi + off] += vals[lo:hi]
    return out
