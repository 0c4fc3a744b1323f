"""Lattice random walks: Cramér roots, exponential tilting, descending
ladder heights, and the harmonic function of a walk killed when it leaves
the nonnegative half-line.

A walk here is a step law with finite support on the integers.  For a
negative-mean walk satisfying Cramér's condition there is a unique rate
``beta > 0`` with ``E exp(beta * step) = 1``.  The walk tilted at that rate
has positive mean, and the harmonic function of the killed walk can be
written two ways:

* as a weighted sum of the renewal mass function of the strict descending
  ladder heights of the original walk, or
* through the probability that the tilted walk, started at ``i``, never
  goes below zero.

`killed_walk_harmonic` computes both forms and checks them against each other.

Both ladder laws come from the walk's first-passage matrix between levels of
m states (``_first_passage``), which the harmonic and stationary solvers
also use to continue a solution exactly past the level from which a
kernel's rows are its homogeneous tail row, and Monte Carlo to draw a path's
whole excursion above that level at once.

A walk keeps what the solvers certify of it, each on first use
(``kernels.once``): its Cramér root (``certified_root``), its certified G
(``_certified_first_passage``) and the stationary side's G of its tilt at
the root, negated (``_tilted_first_passage``).  A tail row keeps its one
walk (``_row_walk``), read by every kernel and family that shares the row,
so repeated solves on any of them find them once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    InconsistentRootError,
    InternalConsistencyError,
    NoCramerRootError,
    SolverFailure,
    StateRangeError,
    UnsupportedInputError,
)
from .kernels import HomogeneousTail, TransitionKernel, band_solve, once

_MASS_TOL = 1e-12
_AGREEMENT_TOL = 1e-8  # between the two forms of the minimum law and of the multiplier
_LOG_DBL_MAX = math.log(sys.float_info.max)
_RENEWAL_BLOCK_ENTRIES = 2**20
_FIRST_PASSAGE_TOL = 1e-12  # residual of G's equation that certifies a first-passage matrix
# states solved directly before G's powers fill the levels above: a banded
# solve of this size costs about what the numpy calls of doubling up to it do
_DIRECT_STATES = 1024
# m^3 / (K x band width) above which cyclic reduction on levels of m states
# costs more than the truncated solves at K and 2K.  On a 2-core host a
# one-step reduction breaks even near 60 (killed walk {-1: 0.3, 1: 0.3,
# 400: 0.4} at K = 5000, ratio 32: 104 ms exact, 198 ms truncated; with 800
# in place of 400 at K = 2500, ratio 255: 864 ms and 182 ms); 8 leaves room
# for the ten and more steps that two-sided tails take.
_EXACT_WORK_RATIO = 8


@dataclass(frozen=True)
class LatticeWalk:
    """Step law of a lattice random walk with finite support.

    ``pmf[k]`` is the probability of the step ``lo + k``.  The law must sum
    to one.  ``kept`` holds what the solvers certify of the walk (``once``).
    """

    lo: int
    pmf: np.ndarray
    kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=float)
        object.__setattr__(self, "pmf", pmf)
        if pmf.ndim != 1 or pmf.size == 0:
            raise UnsupportedInputError("step law must be a nonempty 1-d array")
        if not np.all(np.isfinite(pmf)) or np.any(pmf < 0):
            raise UnsupportedInputError("step probabilities must be finite and nonnegative")
        if abs(pmf.sum() - 1.0) > _MASS_TOL:
            raise UnsupportedInputError(
                f"step law must sum to 1 (got {pmf.sum():.17g})"
            )

    @classmethod
    def from_dict(cls, probs: dict[int, float]) -> "LatticeWalk":
        if not probs:
            raise UnsupportedInputError("step law must have at least one step")
        lo, hi = min(probs), max(probs)
        pmf = np.zeros(hi - lo + 1)
        for off, p in probs.items():
            pmf[off - lo] = p
        return cls(lo=lo, pmf=pmf)

    @property
    def hi(self) -> int:
        return self.lo + self.pmf.size - 1

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(self.lo, self.lo + self.pmf.size)

    @property
    def mean(self) -> float:
        return float(self.offsets @ self.pmf)

    def mgf(self, t: float) -> float:
        """E exp(t * step); overflows propagate as inf."""
        with np.errstate(over="ignore"):
            return float(np.exp(t * self.offsets) @ self.pmf)

    def negated(self) -> "LatticeWalk":
        """The law of minus the step."""
        return LatticeWalk(lo=-self.hi, pmf=self.pmf[::-1].copy())


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int = 100) -> float:
    """Root of ``f`` in the sign-changing bracket ``[xa, xb]`` by Brent's method.

    A line-for-line transcription of the C ``brentq`` in SciPy's
    ``scipy/optimize/Zeros/brentq.c`` (BSD-3-Clause, Copyright (c) 2001-2002
    Enthought, Inc. and 2003- SciPy Developers), so every iterate, and the
    root, is the same double.  Converged when ``f`` is exactly zero or half
    the bracket is below ``delta = (xtol + rtol |x|) / 2``.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NoCramerRootError(f"f({xa!r}) and f({xb!r}) have the same sign")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise NoCramerRootError(f"Brent's method did not converge in {maxiter} iterations")


def cramer_root(walk: LatticeWalk, tol: float = 1e-12) -> float:
    """Unique positive root of E exp(beta * step) = 1.

    Requires a negative-mean walk with some mass on positive steps.  The
    moment generating function equals 1 at zero, dips below (negative mean)
    and is convex, so a bracket ``[lo, hi]`` with ``mgf(lo) < 1 < mgf(hi)``
    pins the root down for Brent's method.
    """
    if walk.mean >= 0:
        raise NoCramerRootError(f"walk mean must be negative (got {walk.mean:.6g})")
    if not np.any((walk.offsets > 0) & (walk.pmf > 0)):
        raise NoCramerRootError("walk has no positive steps; mgf never returns to 1")

    # the pmf from its first to its last step with mass, so that zeros padded
    # at its ends (a limit row spread to the band) change no bit of g
    first, last = np.flatnonzero(walk.pmf)[[0, -1]]
    pmf, offsets = walk.pmf[first : last + 1], walk.offsets[first : last + 1]
    live = pmf > 0

    def g(t):  # walk.mgf(t) - 1; t <= t_cap keeps every exp with mass finite
        return float(np.exp(t * offsets, where=live, out=np.zeros(offsets.size)) @ pmf) - 1.0

    t_cap = 700.0 / offsets[live].max()  # beyond this exp overflows for the top step with mass
    hi = min(1.0, t_cap)
    while g(hi) <= 0.0:
        if hi >= t_cap:
            raise NoCramerRootError(
                "no Cramér root below the overflow-safe bound; "
                "positive-step mass is too thin"
            )
        hi = min(2.0 * hi, t_cap)
    lo = min(1e-8, hi / 2)
    while g(lo) >= 0.0:
        lo /= 16.0
        if lo < 1e-300:
            raise NoCramerRootError("mgf does not dip below 1; mean is numerically zero")
    beta = _brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16)
    if abs(g(beta)) > tol:
        raise NoCramerRootError(
            f"root refinement stalled: |mgf(beta)-1| = {abs(g(beta)):.3e} > {tol:.1e}"
        )
    return float(beta)


@once
def certified_root(walk: LatticeWalk) -> float:
    """``cramer_root(walk)``, found on the first call and kept on the walk, as
    its NoCramerRootError is."""
    return cramer_root(walk)


def tilt_walk(walk: LatticeWalk, beta: float) -> LatticeWalk:
    """Exponential change of measure at rate ``beta``.

    The tilted law has mass ``exp(beta*j) P(step=j)``; for the Cramér root
    this is again a probability law.  A total mass off by more than 1e-10
    means ``beta`` is not a unit root for this walk.
    """
    if beta == 0.0:
        return walk
    weights = walk.pmf * np.exp(beta * walk.offsets)
    mass = weights.sum()
    if abs(mass - 1.0) > 1e-10:
        raise InconsistentRootError(
            f"tilted mass {mass:.17g} differs from 1; beta={beta!r} is not a unit root"
        )
    return LatticeWalk(lo=walk.lo, pmf=weights / mass)


def ruin_exponent(walk: LatticeWalk) -> float:
    """Lundberg exponent of a positive-mean walk.

    Returns ``r > 0`` such that P{min of the walk ever <= -k} <= exp(-r k).
    This is the Cramér root of the negated walk.  A walk with no negative
    steps can never go down: the exponent is infinite.
    """
    if walk.mean <= 0:
        raise UnsupportedInputError("ruin exponent needs a positive-mean walk")
    if not np.any((walk.offsets < 0) & (walk.pmf > 0)):
        return math.inf
    return cramer_root(walk.negated())


@dataclass(frozen=True)
class LadderData:
    """Strict descending ladder height law and derived renewal data.

    ``chi_pmf[x]`` is the probability that the first entry into the negative
    half-line lands a depth ``x`` below the start (index 0 is unused and
    zero).  ``defect`` is the probability of never going below the start;
    it is positive exactly when the walk drifts upward.
    """

    chi_pmf: np.ndarray
    defect: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        chi = np.asarray(self.chi_pmf, dtype=float)
        object.__setattr__(self, "chi_pmf", chi)
        if np.any(chi < 0) or chi[0] != 0.0:
            raise UnsupportedInputError("ladder pmf must be nonnegative with empty depth 0")
        if not -1e-9 <= self.defect <= 1.0 + 1e-9:
            raise UnsupportedInputError(f"defect {self.defect!r} outside [0, 1]")
        if abs(chi.sum() + self.defect - 1.0) > 1e-9:
            raise UnsupportedInputError("ladder pmf and defect must account for all mass")

    @property
    def depth_max(self) -> int:
        return self.chi_pmf.size - 1

    def laplace(self, beta: float) -> float:
        """E exp(-beta * chi) over the (possibly defective) ladder law."""
        x = np.arange(self.chi_pmf.size)
        return float(self.chi_pmf @ np.exp(-beta * x))

    def mean(self) -> float:
        """Mean ladder depth; only meaningful when the law is proper."""
        return float(self.chi_pmf @ np.arange(self.chi_pmf.size))


# ---------------------------------------------------------------------------
# levels of m states: the first-passage matrix and the exact continuation


def _row_sum_norm(a: np.ndarray) -> float:
    """max_i sum_j |a[i, j]|, as ``np.linalg.norm(a, np.inf)`` computes it."""
    return np.abs(a).sum(axis=1).max()


def _first_passage(walk: LatticeWalk) -> tuple[np.ndarray, int, float]:
    """First-passage matrix of the walk between levels of m = max(L, top step)
    states: G[i, j] is the chance that the walk started at state i of a level
    first enters the level below at its state j.

    In levels the walk is a quasi-birth-death chain with blocks A_k[i, j] =
    P(step = j - i + k m), k = -1, 0, 1, and G is the minimal solution of
    G = A_-1 + A_0 G + A_1 G^2.  It comes from cyclic reduction (Bini,
    Latouche & Meini, 2005) with no root to find: the blocks sum to the walk
    mod m, which is doubly stochastic, so z = 1 is a known root of A_-1 +
    (A_0 - I) z + A_1 z^2 with null vectors 1 and 1^T, and it is shifted out
    first (to zero when the mean is <= 0, else to infinity), so convergence
    stays quadratic up to zero mean.  A step whose down or up block is
    exactly zero would leave G unchanged (for m = 1 the shift zeroes one at
    once), so the reduction stops there.  Returns G, the number of reduction
    steps (at most 64) and the residual of the unshifted equation (row-sum
    norm); certifying it is the caller's.
    """
    L, top = -walk.lo, walk.hi
    m = max(L, top)
    law = np.zeros(4 * m + 1)  # P(step = s) at s + 2m
    law[2 * m - L : 2 * m + top + 1] = walk.pmf
    recurrent = walk.mean <= 0
    if m == 1:  # the arithmetic below on scalars, one LAPACK solve kept: the shift
        # zeroes the down (recurrent) or the up block, so no reduction step runs
        d, lev, u = law[1:4].tolist()
        hat, shifted = (lev + u * 1.0, d - d * 1.0) if recurrent else (lev + 1.0 * d, d)
        G = np.linalg.solve(np.array([[1.0 - hat]]), np.array([[shifted]]))
        G += 1.0 if recurrent else 0.0
        g = G.item()
        return G, 1, abs(d + lev * g + u * g * g - g)
    j = np.arange(m)
    at = j - j[:, None] + 2 * m
    down, level, up = law[at - m], law[at], law[at + m]
    J, eye = np.full((m, m), 1.0 / m), np.eye(m)
    if recurrent:  # G 1 = 1: the root goes to zero, and G = G~ + J
        b_down, b_level, b_up = down - down @ J, level + up @ J, up
    else:  # G 1 < 1: the root goes to infinity, and G = G~
        b_down, b_level, b_up = down, level + J @ down, up - J @ up
    shifted_down, hat = b_down, b_level
    for iterations in range(1, 65):  # each step drops every other level
        if not (b_down.any() and b_up.any()):  # the levels decouple: hat is final
            break
        x = np.linalg.solve(eye - b_level, np.hstack([b_down, b_up]))
        (dd, du), (ud, uu) = (np.vstack([b_down, b_up]) @ x).reshape(2, m, 2, m).swapaxes(1, 2)
        hat = hat + ud
        b_down, b_level, b_up = dd, b_level + du + ud, uu
        if (min(_row_sum_norm(dd), _row_sum_norm(uu)) < 1e-18
                or _row_sum_norm(ud) <= 2**-53 * _row_sum_norm(hat)):
            break
    G = np.linalg.solve(eye - hat, shifted_down) + (J if recurrent else 0.0)
    residual = float(_row_sum_norm(down + level @ G + up @ G @ G - G))
    return G, iterations, residual


def _level_powers(G: np.ndarray, X: np.ndarray, done: int) -> None:
    """Fill the rows done.. of the (levels, m) array X in place with
    x_k = G^k x_0, given its first ``done`` rows, ``done`` a power of two.

    By doubling: the rows x_0..x_{d-1} times (G^T)^d give the next d rows,
    so the levels take about 2 log2(levels / done) products, and none once a
    power of G has underflowed to zero.  When fewer levels are left than G
    has rows, one product per level costs less than squaring G.
    """
    power = None
    while done < len(X):
        if len(X) - done <= len(G):
            for k in range(done, len(X)):
                np.matmul(X[k - 1], G.T, out=X[k])
            return
        if power is None:
            power = G.T
            for _ in range(done.bit_length() - 1):
                power = power @ power
        else:
            power = power @ power
        if not power.any():  # G^done underflowed: every further level is 0
            X[done:] = 0.0
            return
        w = min(done, len(X) - done)
        if len(G) == 1:  # the bits of matmul's (w, 1) @ (1, 1), in a tenth of its time
            np.multiply(X[:w], power, out=X[done : done + w])
        else:
            np.matmul(X[:w], power, out=X[done : done + w])
        done += w


def _homogeneous_levels(kernel: TransitionKernel, K: int) -> tuple[int, int, LatticeWalk] | None:
    """(h, s, walk) when the window up to K is closed exactly: from state h
    on every row is the homogeneous tail row, whose step law ``walk``
    (``_tail_walk``) steps both ways with gcd 1; s = h + k m, k >= 0, is the
    first state from which the solution goes in levels of m = max(L, top
    step) states, where no row below h reaches past s + m - 1; and the
    window holds the two levels from s on that the closure couples
    (K >= s + 2m - 1).

    None otherwise, and the solvers fall back to their truncated solves;
    also where levels are so wide that the exact solve costs more: cyclic
    reduction costs a few m^3 flops per step, against about K x (band
    width) for the truncated solves at K and 2K, so m^3 may be at most
    ``_EXACT_WORK_RATIO`` times that."""
    walk = _tail_walk(kernel)
    if walk is None:
        return None
    m = max(-walk.lo, walk.hi)
    if m**3 > _EXACT_WORK_RATIO * K * kernel.tail.row.size:
        return None
    h = kernel.homogeneous_level()
    cols = np.flatnonzero(kernel.weights[: h - kernel.state_lo].any(axis=0))
    reach = int(cols[-1]) - kernel.band_lo if cols.size else 0  # top step of the rows below h
    s = h + m * max(0, -(-reach // m) - 1)
    if K - s < 2 * m - 1:
        return None
    return h, s, walk


@once
def _row_walk(tail: HomogeneousTail, band_lo: int) -> LatticeWalk:
    """The step law of a tail row whose column c is the step c - band_lo,
    normalised by the row's sum and with the zero steps at its ends cut off;
    kept on the row for each ``band_lo``, with the walk's root and G."""
    at = np.flatnonzero(tail.row)
    return LatticeWalk(lo=int(at[0]) - band_lo, pmf=tail.row[at[0] : at[-1] + 1] / tail.row.sum())


def _tail_walk(kernel: TransitionKernel) -> LatticeWalk | None:
    """The walk of a homogeneous tail row (``_row_walk``) when it steps both
    ways with gcd 1, so that its first-passage matrix between levels of
    m = max(L, top step) states exists; None for any other tail."""
    if not isinstance(kernel.tail, HomogeneousTail):
        return None
    steps = (np.flatnonzero(kernel.tail.row) - kernel.band_lo).tolist()
    if not (steps[0] < 0 < steps[-1] and math.gcd(*steps) == 1):
        return None
    return _row_walk(kernel.tail, kernel.band_lo)


def _level_counts(states: int, m: int) -> tuple[int, int]:
    """The levels of m states that cover ``states`` states from s on, and
    how many of them one banded solve takes: all of them up to about
    ``_DIRECT_STATES`` states, else a power of two, at least the two levels
    the closure couples; G's powers fill the rest."""
    levels = -(-states // m)
    block = max(2, _DIRECT_STATES // m)
    return levels, min(levels, 1 << (block.bit_length() - 1))


@once
def _certified_first_passage(walk: LatticeWalk) -> tuple[np.ndarray, float]:
    """The walk's first-passage matrix G, read-only, and the residual of its
    equation, which must be at most ``_FIRST_PASSAGE_TOL``; kept on the walk,
    as a failure is."""
    try:
        G, iterations, residual = _first_passage(walk)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"cyclic reduction failed: {exc}", reason="singular") from exc
    if not residual <= _FIRST_PASSAGE_TOL:
        raise SolverFailure(
            f"first-passage matrix not certified after {iterations} cyclic-reduction "
            f"steps: residual {residual:.3e}",
            reason="first-passage",
            diagnostics={"residual": residual, "iterations": iterations},
        )
    G.flags.writeable = False
    return G, residual


@once
def _tilted_first_passage(walk: LatticeWalk) -> tuple[np.ndarray, float]:
    """``_certified_first_passage`` of the walk tilted at its Cramér root and
    negated, the stationary solve's G; kept on the walk."""
    return _certified_first_passage(tilt_walk(walk, certified_root(walk)).negated())


def ladder_height(walk: LatticeWalk) -> LadderData:
    """Distribution of the first descent below the starting level.

    With levels of m = max(L, top step) states, chi(d) = G[0, m - d] and the
    defect is 1 - sum G[0], for the first-passage matrix G of
    ``_first_passage``.  A walk on gZ, g > 1, is solved for step / g and its
    law spread.  Certified by the residual of G's equation (<= 1e-12,
    row-sum norm) and chi >= -1e-15.
    """
    support = walk.offsets[walk.pmf > 0]
    if walk.lo >= 0 or not support.any():
        raise UnsupportedInputError("walk never steps down; ladder heights are undefined")
    L = -walk.lo
    g = int(np.gcd.reduce(support))
    if g > 1:  # a walk on gZ: solve for step / g and spread the law
        coarse = ladder_height(LatticeWalk(lo=-(L // g), pmf=walk.pmf[L % g :: g]))
        chi = np.bincount(g * np.arange(coarse.chi_pmf.size), coarse.chi_pmf, L + 1)
        return replace(coarse, chi_pmf=chi)

    G, iterations, residual = _first_passage(walk)
    chi = np.concatenate([[0.0], G[0, len(G) - L :][::-1]])
    if not (residual <= _FIRST_PASSAGE_TOL and chi.min() >= -1e-15):
        raise InternalConsistencyError(
            f"ladder law not certified after {iterations} cyclic-reduction steps: "
            f"residual {residual:.3e}, smallest ladder mass {chi.min():.3e}"
        )
    return LadderData(
        chi_pmf=np.clip(chi, 0.0, None),
        defect=max(0.0, 1.0 - float(G[0].sum())),
        meta={"iterations": iterations, "residual": residual},
    )


def renewal_mass(ladder: LadderData, J: int) -> np.ndarray:
    """Renewal mass function of the ladder height law on ``0..J``.

    u(0) = 1 and u(j) = sum_x chi(x) u(j-x); for a defective law the total
    sum converges, for a proper law u tends to 1 over the mean depth.  The
    recurrence is the lower-triangular banded system (I - C) u = e_0, with C
    the convolution by chi, solved in blocks of states: each block's right
    side carries the terms chi(x) u(j-x) that reach back into earlier blocks.
    A block holds at most ``_RENEWAL_BLOCK_ENTRIES`` band entries.  The
    blocks exist only for the CLI's cap of 10**6 states, where one solve for a
    law of depth 30 would hold about 750 MB of bands; every shipped config
    fits in one block.
    """
    if J < 0:
        raise StateRangeError("renewal range must be nonnegative")
    chi = ladder.chi_pmf
    L = ladder.depth_max
    step = max(1, _RENEWAL_BLOCK_ENTRIES // (L + 1))
    ab = np.empty((L + 1, min(step, J + 1)))  # row x holds the x-th subdiagonal, -chi(x)
    ab[0] = 1.0
    ab[1:] = -chi[1:, None]
    buf = np.zeros(L + 1 + J + 1)  # L + 1 zeros below state 0
    u = buf[L + 1 :]
    for j0 in range(0, J + 1, step):
        n = min(step, J + 1 - j0)
        rhs = np.zeros(n)
        back = np.convolve(buf[j0 : j0 + L + 1], chi)[L + 1 : L + 1 + n]  # u(j0-L..j0-1) terms
        rhs[: back.size] = back
        if j0 == 0:
            rhs[0] = 1.0
        u[j0 : j0 + n] = band_solve((L, 0), ab[:, :n], rhs)
    return u


@dataclass(frozen=True)
class KilledWalkHarmonic:
    """The minimal harmonic function of a walk killed below zero, on 0..imax.

    ``ladder_form`` is the renewal sum f(i) = sum_{j<=i} exp(beta (i-j)) u(j)
    over the ladder heights of the walk; ``minimum_form`` is exp(beta i)
    P{min of the tilted walk >= -i}.  They differ by the constant factor
    ``multiplier`` = 1 - E exp(-beta chi).  ``ladder`` and ``tilted_ladder``
    are the ladder laws of the walk and of its tilt at the Cramér root
    ``beta``.
    """

    beta: float
    ladder: LadderData
    tilted_ladder: LadderData
    ladder_form: np.ndarray
    minimum_form: np.ndarray
    multiplier: float


def _ladder_laws(walk: LatticeWalk, beta: float) -> tuple[LadderData, LadderData, float]:
    """Ladder laws of the walk and of its tilt at ``beta``, and the multiplier.

    The multiplier 1 - E exp(-beta chi) over the walk's ladder law is also
    the defect of the tilted law (the chance the tilted walk never descends
    below its start); the two must agree to ``_AGREEMENT_TOL``.
    """
    ladder = ladder_height(walk)
    tilted = ladder_height(tilt_walk(walk, beta))
    via_laplace = 1.0 - ladder.laplace(beta)
    if abs(via_laplace - tilted.defect) > _AGREEMENT_TOL:
        raise InternalConsistencyError(
            f"multiplier mismatch: 1 - E exp(-beta chi) = {via_laplace:.17g} "
            f"but tilted ladder defect = {tilted.defect:.17g}"
        )
    return ladder, tilted, via_laplace


def equivalence_multiplier(walk: LatticeWalk) -> float:
    """Proportionality constant between the two harmonic representations,
    1 - E exp(-beta chi), checked against the tilted walk's ladder defect."""
    return _ladder_laws(walk, certified_root(walk))[2]


def killed_walk_harmonic(walk: LatticeWalk, imax: int) -> KilledWalkHarmonic:
    """Both forms of the harmonic function of the walk killed below zero.

    The minimum law P{min of tilted walk >= -i} is the tilted ladder law's
    defect times its cumulative renewal mass, and also the defect times the
    discounted cumulative sum g(i) = sum_{j<=i} exp(-beta j) u(j) of the
    walk's own renewal mass; the two must agree to ``_AGREEMENT_TOL``.  The
    ladder form is exp(beta i + log g(i)), so only the final scaling can
    overflow.  When exp(beta imax) overflows, ``SolverFailure`` is raised
    before any ladder law is computed.  The root is the walk's kept one
    (``certified_root``).
    """
    beta = certified_root(walk)
    overflow = SolverFailure(
        f"exp(beta i) overflows below i_max = {imax} (beta = {beta:.6g})",
        reason="non-finite",
    )
    if beta * imax > _LOG_DBL_MAX:
        raise overflow
    ladder, tilted, multiplier = _ladder_laws(walk, beta)
    i = np.arange(imax + 1)
    g = np.cumsum(np.exp(-beta * i) * renewal_mass(ladder, imax))
    min_tail = tilted.defect * np.cumsum(renewal_mass(tilted, imax))  # P{min >= -i}

    scale = np.maximum(min_tail, 1e-300)
    disagreement = float(np.max(np.abs(min_tail - tilted.defect * g) / scale))
    if disagreement > _AGREEMENT_TOL:
        raise InternalConsistencyError(
            "tilted-ladder and discounted-renewal forms of the minimum law "
            f"disagree by {disagreement:.3e} (tol {_AGREEMENT_TOL:.1e})"
        )

    with np.errstate(over="ignore"):
        ladder_form = np.exp(beta * i + np.log(g))
        minimum_form = np.exp(beta * i) * min_tail
    if not (np.all(np.isfinite(ladder_form)) and np.all(np.isfinite(minimum_form))):
        raise overflow
    return KilledWalkHarmonic(beta, ladder, tilted, ladder_form, minimum_form, multiplier)
