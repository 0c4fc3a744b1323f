"""Concrete chain families on the nonnegative integers.

Each family packages a rule that builds the rows of an array of states
together with the limiting jump law the rows approach at infinity.
``ChainFamily.kernel`` materialises a banded kernel with explicit rows up
to a truncation and a tail rule beyond it, so solvers can keep asking for
rows as far up as they need.

Families provided:

* ``perturbed_reflected_walk`` — up-drift simple walk reflected at the
  origin whose row at zero carries total weight ``alpha`` instead of one.
* ``multi_perturbed_walk`` — pure-up weighted rows on 0..N-1, a long
  downward jump from N back to zero, simple walk above.
* ``walk_killed_at_negative`` — a lattice walk whose steps below zero are
  removed, leaving substochastic rows near the origin.
* ``lindley_chain`` — the same walk with steps below zero lumped at zero
  (the reflected / queueing recursion chain).
* ``alternating_drift_chain`` — birth-death rows with up probability
  p + phi(i), phi(i) = c0 (-1)^i (1+i)^(-gamma); the drift perturbation
  alternates in sign and its running integral stays bounded.
* ``power_drift_chain`` — birth-death rows with up probability p + a(i),
  a(i) = c0 (1+i)^exponent; for exponent in (-1, 0) the perturbation is
  not summable and the tail decay picks up a nontrivial correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import UnsupportedInputError
from .kernels import (
    HomogeneousTail,
    ParametricTail,
    StochasticKernel,
    TransitionKernel,
    once,
)
from .ladder import LatticeWalk, _tail_walk


@dataclass(frozen=True)
class PowerAlpha:
    """Perturbation profile a(x) = c0 (1 + x)^exponent."""

    c0: float
    exponent: float

    def value(self, x, out=None):
        """a at the points x; with ``out``, written into it."""
        base = np.add(x, 1.0, dtype=float)
        base **= self.exponent
        return np.multiply(base, self.c0, out=out)

    def integral_power(self, k: int, x):
        """Integral of a(t)^k over t in [0, x], in closed form, for a number
        or an array of them; each on Python floats, one at a time."""
        out = np.reshape([self._integral_power(k, s) for s in np.ravel(x).tolist()], np.shape(x))
        return out if out.ndim else float(out)

    def _integral_power(self, k: int, x: float) -> float:
        e = k * self.exponent
        c = self.c0**k
        if abs(e + 1.0) < 1e-14:
            return c * math.log1p(x)
        return c * ((1.0 + x) ** (e + 1.0) - 1.0) / (e + 1.0)


@dataclass(frozen=True)
class AlternatingAlpha:
    """Signed profile phi(x) = c0 (-1)^x (1 + x)^(-gamma) on integer points."""

    c0: float
    gamma: float

    def value(self, i, out=None):
        """phi at the points i; with ``out``, written into it."""
        i = np.asarray(i)
        decay = np.add(i, 1.0, dtype=float)
        decay **= -self.gamma
        out = np.multiply(decay, self.c0, out=out)
        # (-c0) x = -(c0 x) exactly, so the sign may come last
        out *= 1.0 - 2.0 * (i % 2 != 0)
        return out if out.ndim else float(out)

    def integral_power(self, k: int, x):
        """Sum of phi(i)^k over integer i in [0, x] (alternating, bounded
        for odd k when gamma > 0), for a number or an array of them: the
        entries of one running sum over 0..max x, so that a number gets the
        same sum alone or in an array."""
        top = np.maximum(np.floor(x).astype(np.intp), -1) + 1  # terms in the sum
        sums = np.zeros(int(np.max(top)) + 1)
        np.cumsum(self.value(np.arange(len(sums) - 1)) ** k, out=sums[1:])
        out = sums[top]
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class ChainFamily:
    """A row rule plus its limiting jump law.

    ``row_rule`` maps a 1-d integer array of states to a new (n, width)
    block of their rows, which ``kernel`` keeps as its weights without a
    copy.  From ``homogeneous_from`` on, when it is set, every row
    is ``limit_pmf``: a kernel built at that level or above broadcasts it as
    its tail, and ``stationary_solve`` builds no explicit row beyond it.
    ``kept`` holds the normalised limit walk and that kernel at the level,
    each built on first use (``once``), so solves on one family certify the
    walks they read once.
    """

    name: str
    band_lo: int
    band_hi: int
    row_rule: Callable[[np.ndarray], np.ndarray]
    limit_pmf: np.ndarray
    homogeneous_from: int | None = None
    stochastic: bool = True
    alpha_profile: object | None = None
    params: dict = field(default_factory=dict)
    kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    @once
    def limit_walk(self) -> LatticeWalk:
        pmf = np.asarray(self.limit_pmf, dtype=float)
        return LatticeWalk(lo=-self.band_lo, pmf=pmf / pmf.sum())

    @once
    def homogeneous_kernel(self) -> TransitionKernel:
        """``kernel(homogeneous_from)``: rows up to the homogeneous level, the
        limit row broadcast above it; built on the first call and kept.  Where
        its tail walk (``ladder._tail_walk``) is the limit walk bit for bit,
        it is the limit walk itself, so both have one root and one G."""
        if self.homogeneous_from is None:
            raise UnsupportedInputError(f"family {self.name} has no homogeneous level")
        kernel = self.kernel(self.homogeneous_from)
        walk, limit = _tail_walk(kernel), self.limit_walk
        if walk is not None and walk.lo == limit.lo and np.array_equal(walk.pmf, limit.pmf):
            kernel.kept[_tail_walk.__name__] = limit
        return kernel

    def row(self, i: int) -> np.ndarray:
        """The row of one state, through the array rule."""
        return self.row_rule(np.array([i]))[0]

    def kernel(self, truncation: int) -> TransitionKernel:
        """Banded kernel with explicit rows up to ``truncation``.

        Homogeneous-from-some-level families get a single-row tail;
        genuinely inhomogeneous ones keep the row rule as a parametric
        tail (stochastic rows, so the log-mass tail bound is zero when
        ``stochastic`` is set).
        """
        if self.homogeneous_from is not None and truncation < self.homogeneous_from:
            raise UnsupportedInputError(
                f"truncation {truncation} is below the homogeneous level "
                f"{self.homogeneous_from} of family {self.name}"
            )
        weights = np.asarray(self.row_rule(np.arange(truncation + 1)), dtype=float)
        if self.homogeneous_from is not None:
            tail = HomogeneousTail(np.asarray(self.limit_pmf, dtype=float))
        else:
            bound = 0.0 if self.stochastic else math.inf
            tail = ParametricTail(self.row_rule, declared_delta_abs_bound=bound)
        cls = StochasticKernel if self.stochastic else TransitionKernel
        return cls(
            band_lo=self.band_lo,
            band_hi=self.band_hi,
            weights=weights,
            tail=tail,
            meta={"family": self.name, **self.params},
        )

    def moment_data(self, beta: float, order: int):
        """Tilted moments and interaction coefficients for the local-rate
        expansion, when the family admits them in closed form.

        Returns (m, D, scale): m[k] = E xi^k e^{beta xi} of the limit law
        for k = 1..order; D[(k, j)] multiplies u^k/k! alpha^j in the
        expansion of the local moment generating function around the limit
        root; the effective expansion variable is alpha(x) =
        scale * profile.value(x).  Only nearest-neighbour drift
        perturbations are supported here; other families return None and
        callers fall back to a numerical fit.
        """
        if self.name not in ("alternating-drift", "power-drift"):
            return None
        eb, emb = math.exp(beta), math.exp(-beta)
        p = self.params["p"]
        q = 1.0 - p
        m = [p * eb + ((-1) ** k) * q * emb for k in range(1, order + 1)]
        scale = eb - emb
        D = {}
        for k in range(1, order + 1):
            D[(k, 1)] = (eb + emb) / scale if k % 2 == 1 else 1.0
        return m, D, scale


# ---------------------------------------------------------------------------
# builders


def perturbed_reflected_walk(p: float = 0.7, alpha: float = 2.0) -> ChainFamily:
    """Reflected simple walk, up probability p > 1/2, whose row at the
    origin is a single jump to 1 with weight ``alpha``."""
    if not 0.5 < p < 1.0:
        raise UnsupportedInputError("needs 1/2 < p < 1")
    if not 0.0 < alpha < math.inf:
        raise UnsupportedInputError("alpha must be positive and finite")
    q = 1.0 - p
    limit = np.array([q, 0.0, p])

    def row_rule(states: np.ndarray) -> np.ndarray:
        rows = np.tile(limit, (len(states), 1))
        rows[states == 0] = (0.0, 0.0, alpha)
        return rows

    return ChainFamily(
        name="perturbed-reflected-walk",
        band_lo=1,
        band_hi=1,
        row_rule=row_rule,
        limit_pmf=limit,
        homogeneous_from=1,
        stochastic=False,
        params={"p": p, "alpha": alpha},
    )


def multi_perturbed_walk(alphas, p: float = 0.7) -> ChainFamily:
    """Rows 0..N-1 jump up one step with weights alphas[i]; row N goes up
    with probability p or falls back to the origin with probability 1-p;
    simple walk above N."""
    alphas = [float(a) for a in alphas]
    N = len(alphas)
    if N == 0:
        raise UnsupportedInputError("needs at least one weighted row")
    if not all(0.0 < a < math.inf for a in alphas):
        raise UnsupportedInputError("row weights must be positive and finite")
    if not 0.5 < p < 1.0:
        raise UnsupportedInputError("needs 1/2 < p < 1")
    q = 1.0 - p
    W = N + 2  # offsets -N .. +1
    limit = np.zeros(W)
    limit[N - 1] = q  # offset -1
    limit[N + 1] = p  # offset +1

    def row_rule(states: np.ndarray) -> np.ndarray:
        rows = np.tile(limit, (len(states), 1))
        low = states < N
        rows[low] = 0.0
        rows[low, N + 1] = np.asarray(alphas)[states[low]]
        top = states == N
        rows[top, N - 1] = 0.0
        rows[top, 0] = q  # offset -N: back to the origin
        return rows

    return ChainFamily(
        name="multi-perturbed-walk",
        band_lo=N,
        band_hi=1,
        row_rule=row_rule,
        limit_pmf=limit,
        homogeneous_from=N + 1,
        stochastic=False,
        params={"p": p, "alphas": tuple(alphas)},
    )


def _walk_at_zero(name: str, walk: LatticeWalk, lump: bool) -> ChainFamily:
    """The walk on the nonnegative integers: steps below zero are deleted,
    or with ``lump`` moved onto zero."""
    bl, bh = -walk.lo, walk.hi
    pmf = walk.pmf.copy()

    def row_rule(states: np.ndarray) -> np.ndarray:
        rows = np.tile(pmf, (len(states), 1))
        for r in np.flatnonzero(states < bl):
            cut = bl - int(states[r])
            lost = rows[r, :cut].sum()
            rows[r, :cut] = 0.0
            if lump:
                rows[r, cut] += lost
        return rows

    return ChainFamily(
        name=name,
        band_lo=bl,
        band_hi=bh,
        row_rule=row_rule,
        limit_pmf=pmf,
        homogeneous_from=bl,
        stochastic=lump,
        params={"pmf": tuple(pmf)},
    )


def walk_killed_at_negative(walk: LatticeWalk) -> ChainFamily:
    """The walk restricted to the nonnegative integers by deleting every
    step that would land below zero.  Rows within ``-walk.lo`` of the
    origin are substochastic."""
    if walk.lo >= 0:
        raise UnsupportedInputError("the walk never steps down; nothing to kill")
    return _walk_at_zero("killed-walk", walk, lump=False)


def lindley_chain(walk: LatticeWalk) -> ChainFamily:
    """The walk reflected at zero: steps below zero are lumped at zero
    (the steady-state recursion of a single queue)."""
    if walk.lo >= 0:
        raise UnsupportedInputError("the walk never steps down; nothing to reflect")
    return _walk_at_zero("lindley", walk, lump=True)


def _birth_death_family(name, p, profile, extra_params) -> ChainFamily:
    q = 1.0 - p

    def row_rule(states: np.ndarray) -> np.ndarray:
        # column by column into one block: up p + a(i), hold 0, down 1 - up
        rows = np.empty((len(states), 3))
        up = profile.value(states, out=rows[:, 2])
        up += p
        np.subtract(1.0, up, out=rows[:, 0])
        rows[:, 1] = 0.0
        at0 = np.flatnonzero(states == 0)  # the origin holds instead of stepping down
        rows[at0, 1] = rows[at0, 0]
        rows[at0, 0] = 0.0
        return rows

    u0 = p + float(profile.value(0))
    if not 0.0 < u0 < 1.0:
        raise UnsupportedInputError("up probability at the origin outside (0, 1)")
    limit = np.array([q, 0.0, p])
    return ChainFamily(
        name=name,
        band_lo=1,
        band_hi=1,
        row_rule=row_rule,
        limit_pmf=limit,
        homogeneous_from=None,
        stochastic=True,
        alpha_profile=profile,
        params={"p": p, **extra_params},
    )


def alternating_drift_chain(p: float = 0.3, c0: float = 0.05, gamma: float = 0.6) -> ChainFamily:
    """Birth-death chain with up probability p + c0 (-1)^i (1+i)^(-gamma).

    The drift perturbation alternates in sign, so its partial sums stay
    bounded and the stationary tail keeps a clean geometric decay."""
    if not 0.0 < p < 0.5:
        raise UnsupportedInputError("needs a downward drift: 0 < p < 1/2")
    if not 0.0 <= c0 < min(p, 1.0 - p):
        raise UnsupportedInputError("perturbation size must stay below min(p, 1-p)")
    if not gamma > 0.0:
        raise UnsupportedInputError("gamma must be positive")
    return _birth_death_family(
        "alternating-drift", p, AlternatingAlpha(c0=c0, gamma=gamma), {"c0": c0, "gamma": gamma}
    )


def power_drift_chain(p: float = 0.3, c0: float = 0.05, exponent: float = -0.6) -> ChainFamily:
    """Birth-death chain with up probability p + c0 (1+i)^exponent.

    For exponent in (-1, 0) the perturbation decays too slowly to be
    summable and the stationary tail is geometric only up to a stretched
    correction; predicting it needs the state-dependent decay rate."""
    if not 0.0 < p < 0.5:
        raise UnsupportedInputError("needs a downward drift: 0 < p < 1/2")
    if not 0.0 <= c0 < min(p, 1.0 - p):
        raise UnsupportedInputError("perturbation size must stay below min(p, 1-p)")
    if not exponent < 0.0:
        raise UnsupportedInputError("the perturbation must decay (exponent < 0)")
    return _birth_death_family(
        "power-drift", p, PowerAlpha(c0=c0, exponent=exponent), {"c0": c0, "exponent": exponent}
    )
