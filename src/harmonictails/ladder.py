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

Both forms are implemented and checked against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

from .errors import (
    InconsistentRootError,
    InternalConsistencyError,
    NoCramerRootError,
    StateRangeError,
    UnsupportedInputError,
)

_MASS_TOL = 1e-12


@dataclass(frozen=True)
class LatticeWalk:
    """Step law of a lattice random walk with finite support.

    ``pmf[k]`` is the probability of the step ``lo + k``.  The law must sum
    to one; the Cramér root, if already known, can be stashed in ``beta``.
    """

    lo: int
    pmf: np.ndarray
    beta: float | None = None

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
    def from_dict(cls, probs: dict[int, float], beta: float | None = None) -> "LatticeWalk":
        lo, hi = min(probs), max(probs)
        pmf = np.zeros(hi - lo + 1)
        for off, p in probs.items():
            pmf[off - lo] = p
        return cls(lo=lo, pmf=pmf, beta=beta)

    @property
    def hi(self) -> int:
        return self.lo + self.pmf.size - 1

    @property
    def offsets(self) -> np.ndarray:
        return np.arange(self.lo, self.lo + self.pmf.size)

    @property
    def mean(self) -> float:
        return float(self.offsets @ self.pmf)

    @property
    def span(self) -> int:
        """Lattice span diagnostic: gcd of gaps between support points."""
        sup = self.offsets[self.pmf > 0]
        if sup.size <= 1:
            return 0
        return int(np.gcd.reduce(np.diff(sup)))

    def mgf(self, t: float) -> float:
        """E exp(t * step); overflows propagate as inf."""
        with np.errstate(over="ignore"):
            return float(np.exp(t * self.offsets) @ self.pmf)

    def negated(self) -> "LatticeWalk":
        """The law of minus the step."""
        return LatticeWalk(lo=-self.hi, pmf=self.pmf[::-1].copy())


def cramer_root(walk: LatticeWalk, tol: float = 1e-12) -> float:
    """Unique positive root of E exp(beta * step) = 1.

    Requires a negative-mean walk with some mass on positive steps.  The
    moment generating function equals 1 at zero, dips below (negative mean)
    and is convex, so a bracket ``[lo, hi]`` with ``mgf(lo) < 1 < mgf(hi)``
    pins the root down for brentq.
    """
    if walk.mean >= 0:
        raise NoCramerRootError(f"walk mean must be negative (got {walk.mean:.6g})")
    if not np.any((walk.offsets > 0) & (walk.pmf > 0)):
        raise NoCramerRootError("walk has no positive steps; mgf never returns to 1")

    def g(t):  # walk.mgf(t) - 1; t <= t_cap keeps every exp finite
        return float(np.exp(t * walk.offsets) @ walk.pmf) - 1.0

    t_cap = 700.0 / walk.hi  # beyond this exp overflows for the top step
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
    beta = brentq(g, lo, hi, xtol=1e-15, rtol=8.9e-16)
    if abs(g(beta)) > tol:
        raise NoCramerRootError(
            f"root refinement stalled: |mgf(beta)-1| = {abs(g(beta)):.3e} > {tol:.1e}"
        )
    return float(beta)


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
    it is positive exactly when the walk drifts upward.  ``u`` holds the
    renewal mass function once :func:`renewal_mass` has been run.
    """

    chi_pmf: np.ndarray
    defect: float
    u: np.ndarray | None = None
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

    def with_renewal(self, J: int) -> "LadderData":
        return replace(self, u=renewal_mass(self, J))


def _divide(u, v) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder of u / v, both in descending coefficients."""
    u = np.array(u, dtype=float)
    v = np.asarray(v, dtype=float)
    n = v.size - 1
    for k in range(u.size - n):
        u[k] /= v[0]
        u[k + 1 : k + n + 1] -= u[k] * v[1:]
    return u[: u.size - n], u[u.size - n :]


def ladder_height(walk: LatticeWalk) -> LadderData:
    """Distribution of the first descent below the starting level.

    Wiener-Hopf (Feller II, ch. XII): the L roots zeta_k of z^L (1 - E z^step)
    in the closed unit disk (z = 1 among them iff the mean is <= 0) give
    prod_k (z - zeta_k) = z^L - sum_d chi(d) z^(L-d) and the defect
    prod_k (1 - zeta_k).  The known roots z = 1 and exp(+-beta) are divided
    out before ``np.roots``, so near criticality none crosses the unit circle
    by rounding.  Certified by a division remainder <= 1e-10 and chi >= -1e-15.
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

    # steps -L..max(0, top step): a zero leading coefficient is a spurious root
    pmf = np.zeros(L + max(0, int(support.max())) + 1)
    pmf[: walk.pmf.size] = walk.pmf[: pmf.size]
    p = -pmf
    p[L] += 1.0
    # p(z) = (z - 1) q(z), q_j = P(step <= j - L) - [j >= L], each summed
    # from its nearer end of the law so that nothing cancels
    q = np.concatenate([np.cumsum(pmf[:L]), -np.cumsum(pmf[:L:-1])[::-1]])
    if walk.mean > 0:  # exp(-r) inside the disk, z = 1 outside
        r = ruin_exponent(walk)
        known, known_gap = math.exp(-r), -math.expm1(-r)
        rest = _divide(q[::-1], [1.0, -known])[0]
    else:  # z = 1 inside; with up steps exp(beta) (z = 1 at zero mean) outside
        known, known_gap, rest = 1.0, 0.0, q[::-1]
        if support.max() > 0:
            outer = math.exp(cramer_root(walk)) if walk.mean < 0 else 1.0
            rest = _divide(q, [-outer, 1.0])[0][::-1]  # from the low end: stable for outer >= 1
    inner = (z := np.roots(rest))[np.abs(z) < 1.0]
    zeta = np.append(inner, known)
    c = np.poly(zeta).real
    remainder = float(np.max(np.abs(_divide(p[::-1], c)[1])))
    chi = np.concatenate([[0.0], -c[1:]])
    if inner.size != L - 1 or remainder > 1e-10 or chi.min() < -1e-15:
        raise InternalConsistencyError(
            f"Wiener-Hopf factor not certified: {zeta.size} of {L} roots, "
            f"remainder {remainder:.3e}, smallest ladder mass {chi.min():.3e}"
        )
    return LadderData(
        chi_pmf=np.clip(chi, 0.0, None),
        defect=float(np.prod(1.0 - inner).real) * known_gap,
        meta={"iterations": 0, "factor_remainder": remainder},
    )


def renewal_mass(ladder: LadderData, J: int) -> np.ndarray:
    """Renewal mass function of the ladder height law on ``0..J``.

    u(0) = 1 and u(j) = sum_x chi(x) u(j-x); for a defective law the total
    sum converges, for a proper law u tends to 1 over the mean depth.
    """
    if J < 0:
        raise StateRangeError("renewal range must be nonnegative")
    chi = ladder.chi_pmf
    L = ladder.depth_max
    u = np.zeros(J + 1)
    u[0] = 1.0
    for j in range(1, J + 1):
        top = min(j, L)
        # dot of chi[1..top] with u[j-1 .. j-top] reversed; the stop index must
        # be None when it would run off the front of the array
        stop = j - top - 1
        u[j] = float(chi[1 : top + 1] @ u[j - 1 : (stop if stop >= 0 else None) : -1]) if top >= 1 else 0.0
    return u


def _discounted_renewal_sum(u: np.ndarray, beta: float, imax: int) -> np.ndarray:
    """Cumulative sums g(i) = sum_{j<=i} exp(-beta j) u(j)."""
    j = np.arange(imax + 1)
    return np.cumsum(np.exp(-beta * j) * u[: imax + 1])


def ladder_harmonic(
    ladder: LadderData,
    beta: float,
    i: int | np.ndarray,
    log: bool = False,
):
    """Harmonic function of the walk killed below zero, renewal-series form.

    f(i) = sum_{j=0}^{i} exp(beta (i-j)) u(j), built from the renewal mass
    function of the original (untilted) walk's ladder heights.  Computed as
    exp(beta i) times a bounded cumulative sum so only the final scaling can
    overflow; pass ``log=True`` to get log f instead.
    """
    if ladder.u is None:
        raise UnsupportedInputError("ladder has no renewal mass function; call with_renewal first")
    imax = int(np.max(i))
    if imax >= ladder.u.size:
        raise StateRangeError(
            f"renewal mass truncation {ladder.u.size - 1} is below requested state {imax}"
        )
    g = _discounted_renewal_sum(ladder.u, beta, imax)
    idx = np.asarray(i)
    logf = beta * idx + np.log(g[idx])
    if log:
        return logf if logf.ndim else float(logf)
    with np.errstate(over="ignore"):
        out = np.exp(logf)
    return out if out.ndim else float(out)


def tilted_minimum_harmonic(
    walk: LatticeWalk,
    imax: int,
    beta: float | None = None,
    agreement_tol: float = 1e-8,
    original_ladder: LadderData | None = None,
    tilted_ladder: LadderData | None = None,
) -> np.ndarray:
    """Harmonic function via the running minimum of the tilted walk.

    f(i) = exp(beta i) P{min of tilted walk >= -i}.  The minimum law is
    assembled from the tilted walk's defective ladder renewal function; the
    same quantity is recomputed by discounting the original walk's renewal
    function, and the two must agree (they are related entry by entry
    through the tilt factor exp(-beta l)).
    """
    if beta is None:
        beta = walk.beta if walk.beta is not None else cramer_root(walk)
    tilted = tilt_walk(walk, beta)
    if tilted_ladder is None:
        tilted_ladder = ladder_height(tilted)
    if original_ladder is None:
        original_ladder = ladder_height(walk)

    u_t = renewal_mass(tilted_ladder, imax)
    defect = tilted_ladder.defect
    min_tail = defect * np.cumsum(u_t)  # P{min >= -i}, i = 0..imax

    u_o = renewal_mass(original_ladder, imax)
    g = _discounted_renewal_sum(u_o, beta, imax)
    min_tail_alt = defect * g

    scale = np.maximum(min_tail, 1e-300)
    disagreement = float(np.max(np.abs(min_tail - min_tail_alt) / scale))
    if disagreement > agreement_tol:
        raise InternalConsistencyError(
            "tilted-ladder and discounted-renewal forms of the minimum law "
            f"disagree by {disagreement:.3e} (tol {agreement_tol:.1e})"
        )

    i = np.arange(imax + 1)
    with np.errstate(over="ignore"):
        return np.exp(beta * i) * min_tail


def equivalence_multiplier(
    walk: LatticeWalk,
    beta: float | None = None,
    agreement_tol: float = 1e-8,
) -> float:
    """Proportionality constant between the two harmonic representations.

    Equals 1 - E exp(-beta * chi) over the original walk's ladder law, and
    also the defect of the tilted walk's ladder law (the chance the tilted
    walk never descends below its start).  Both are computed; disagreement
    beyond ``agreement_tol`` raises.
    """
    if beta is None:
        beta = walk.beta if walk.beta is not None else cramer_root(walk)
    lad = ladder_height(walk)
    via_laplace = 1.0 - lad.laplace(beta)
    via_defect = ladder_height(tilt_walk(walk, beta)).defect
    if abs(via_laplace - via_defect) > agreement_tol:
        raise InternalConsistencyError(
            f"multiplier mismatch: 1 - E exp(-beta chi) = {via_laplace:.17g} "
            f"but tilted ladder defect = {via_defect:.17g}"
        )
    return via_laplace
