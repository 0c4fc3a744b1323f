"""Constructing positive harmonic functions for banded nonnegative kernels.

The central object is f(i) = E_i prod_n Q(X_n, Z+), the expected product of
row masses along a trajectory of the embedded chain.  When the log masses
delta(i) = log Q(i, Z+) vanish outside a finite set and the chain drifts
upward, the product converges on almost every path and f is harmonic for Q
with f(i) -> 1.

Two constructions are provided: direct Monte Carlo over trajectories, and a
linear solve.  Where the rows from some level h on are a tail row whose walk
has a first-passage matrix G, Monte Carlo draws each excursion above the
support of delta (and h) at once, from G, as where the path comes back
(one of the L states a down step of at most L can reach) or its escape;
otherwise a path runs up to a certified stopping level (the product can no
longer change more than a set tolerance once the path climbs high enough).
The solve is exact (method ``matrix-geometric``) when every row from some
level h on is a stochastic tail row with positive mean: there the deficit
1 - f is matrix-geometric, g_k = G g_(k-1) in levels of m states from the
first level s >= h that no row below h reaches past, with G the
first-passage matrix of the tail walk.  Any other kernel (a parametric
tail, a tail walk of the wrong sign or on gZ, g > 1, a window too short to
hold the level s + 2m - 1, or levels too wide; see
``ladder._homogeneous_levels``) gets a truncated solve with boundary value
one above the truncation, cross-checked by doubling the truncation (method
``linear-solve``).  A closed form covers the reflected simple walk with one
perturbed weight at the origin.

`check_conditions` evaluates the sufficient conditions under which the
product construction is guaranteed to work: summability of |delta|, a
uniform stochastic minorant of the jump laws with positive mean, a
truncated-drift condition with an integrable majorant of the downward
jumps, and finiteness of the exponential local-time moments
E_i exp(delta_plus_total * ell(i)) at the states carrying positive delta.
The last is checked through two-sided bounds on return probabilities
obtained from sandwich solves on a window sized from the tolerance.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    NoPositiveHarmonicError,
    SolverFailure,
    StateRangeError,
    UnsupportedInputError,
)
from .kernels import (
    HomogeneousTail,
    StochasticKernel,
    TransitionKernel,
    _as_state_fn,
    band_matvec,
    band_closure,
    band_pin,
    band_solve,
    band_system,
    first_row_below,
    once,
    row_slice,
    row_sums,
)
from .ladder import (
    LatticeWalk,
    _EXACT_WORK_RATIO,
    _certified_first_passage,
    _homogeneous_levels,
    _level_counts,
    _level_powers,
    _tail_walk,
    ruin_exponent,
)

_DELTA_EPS = 1e-15
_TAIL_SAMPLES = 64  # rows a parametric tail contributes to the jump-law envelopes
_CRITICAL_RTOL = 1e-12  # relative distance at which an origin weight counts as critical
_BOUNDARY_MASS_TOL = 1e-9  # |log mass| of a tail row that boundary value 1 allows
# widest level of collapsed Monte Carlo excursions: cyclic reduction holds about
# 20 m x m matrices, 40 MB here (576 MB at the span cap of 2000)
_MAX_EXCURSION_LEVEL = 512
_KEPT_FOLDS = 2  # path chains a kernel keeps: one per top that alternating callers score


class StateArray(Mapping):
    """Read-only map from the consecutive states lo, lo + 1, ... to the
    entries of a float array, without a Python object per state."""

    def __init__(self, lo: int, array: np.ndarray):
        self.lo = lo
        self.array = np.asarray(array, dtype=float).view()
        self.array.flags.writeable = False

    def __getitem__(self, i) -> float:
        try:
            x = operator.index(i) - self.lo
        except TypeError:
            raise KeyError(i) from None
        if not 0 <= x < self.array.size:
            raise KeyError(i)
        return self.array.item(x)

    def __iter__(self):
        return iter(range(self.lo, self.lo + self.array.size))

    def __len__(self) -> int:
        return self.array.size

    def __repr__(self) -> str:
        return f"StateArray({self.lo}, {self.array!r})"


@dataclass(frozen=True)
class HarmonicEstimate:
    """A computed harmonic function on a range of states.

    ``values`` maps state to f(i): a :class:`StateArray` over the solved
    window, or a dict of the Monte Carlo start states.  ``boundary_value``
    extends the function above the truncation (the linear solve pins f to
    one there).  Monte Carlo estimates carry per-state standard errors;
    solves carry the max harmonicity residual actually achieved.
    """

    values: Mapping[int, float]
    method: str  # "monte-carlo" | "linear-solve" | "matrix-geometric" | "closed-form"
    truncation: int
    std_errors: dict[int, float] | None = None
    residual: float | None = None
    boundary_value: float | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in ("monte-carlo", "linear-solve", "matrix-geometric", "closed-form"):
            raise UnsupportedInputError(f"unknown method {self.method!r}")
        if isinstance(self.values, StateArray):
            vals = self.values.array
        else:
            vals = np.fromiter(self.values.values(), dtype=float, count=len(self.values))
        ok = np.isfinite(vals) & (vals >= 0.0)
        if not ok.all():
            bad = list(self.values)[int(np.argmin(ok))]
            raise UnsupportedInputError(
                f"harmonic values must be finite and nonnegative (state {bad})"
            )

    def value(self, i: int) -> float:
        if i in self.values:
            return self.values[i]
        if self.boundary_value is not None and i > self.truncation:
            return self.boundary_value
        raise StateRangeError(f"state {i} outside the estimated range")

    def states(self) -> list[int]:
        return sorted(self.values)

    def array(self, lo: int, hi: int) -> np.ndarray:
        """f on the states lo..hi, as ``value`` gives it state by state.

        A solve's values, a :class:`StateArray` up to the truncation with a
        boundary value above it, are sliced out of their array; states
        below it, and every state of any other estimate, go through
        ``value``, which raises at the first one outside the range.
        """
        vals, K = self.values, self.truncation
        if not (isinstance(vals, StateArray) and self.boundary_value is not None
                and vals.lo + len(vals) - 1 == K):
            return np.array([self.value(i) for i in range(lo, hi + 1)])
        s = vals.lo
        out = np.full(max(hi - lo + 1, 0), self.boundary_value)
        for i in range(lo, min(hi, s - 1) + 1):
            out[i - lo] = self.value(i)
        a, b = max(lo, s), min(hi, K)
        if a <= b:
            out[a - lo : b - lo + 1] = vals.array[a - s : b - s + 1]
        return out


# ---------------------------------------------------------------------------
# jump-law envelopes


def _collect_rows(kernel: TransitionKernel) -> np.ndarray:
    """Probability rows of the embedded chain, including tail samples: one
    row of a homogeneous tail, the next ``_TAIL_SAMPLES`` of any other."""
    rows = [kernel.weights]
    if kernel.tail is not None:
        n_tail = 1 if isinstance(kernel.tail, HomogeneousTail) else _TAIL_SAMPLES
        rows.append(kernel.tail.rows_at(kernel.truncation + 1, kernel.truncation + n_tail))
    rows = np.vstack(rows)
    return rows / row_sums(rows)[:, None]


def jump_minorant(kernel: TransitionKernel, extra_rows: np.ndarray | None = None) -> LatticeWalk:
    """Greatest common stochastic minorant of the jump laws.

    Built from the pointwise infimum of the upper tail functions
    P{jump > j} over all represented rows (plus tail samples).  The result
    is a genuine step law on the band, stochastically below every row.
    """
    rows = _collect_rows(kernel)
    if extra_rows is not None:
        rows = np.vstack([rows, extra_rows])
    # tails[.., c] = P{jump > offsets[c]}
    tails = rows[:, ::-1].cumsum(axis=1)[:, ::-1]
    tails = np.hstack([tails, np.zeros((rows.shape[0], 1))])[:, 1:]
    inf_tail = tails.min(axis=0)
    full = np.concatenate([[1.0], inf_tail])  # prepend P{jump > -band_lo - 1} = 1
    pmf = full[:-1] - full[1:]
    pmf = np.clip(pmf, 0.0, None)
    pmf = pmf / pmf.sum()
    return LatticeWalk(lo=-kernel.band_lo, pmf=pmf)


def jump_down_majorant(kernel: TransitionKernel) -> tuple[np.ndarray, float]:
    """Pointwise-supremum majorant of the downward jump tails.

    Returns (Z, mean) where Z[j-1] = sup_i P{jump <= -j} for j = 1..band_lo
    and mean = sum_j Z[j-1] bounds the expected downward overshoot.
    """
    L = kernel.band_lo
    Z = _collect_rows(kernel)[:, :L].cumsum(axis=1).max(axis=0)[::-1]
    return Z, float(Z.sum())


def escape_probability(minorant: LatticeWalk) -> float:
    """Certified lower bound on inf_i P_i{chain stays strictly above i forever}.

    Couples the chain with the i.i.d. minorant walk: after a first step of
    size k >= 1 the walk survives unless its running minimum ever drops by
    k, which the Lundberg bound controls.  Returns 0 when the minorant has
    nonpositive mean (no certificate available).
    """
    if minorant.mean <= 0:
        return 0.0
    r = ruin_exponent(minorant)
    off = minorant.offsets
    pos = off >= 1
    if r == math.inf:
        return float(minorant.pmf[pos].sum())
    return float(minorant.pmf[pos] @ (1.0 - np.exp(-r * off[pos])))


# ---------------------------------------------------------------------------
# return probabilities by sandwich solves


def return_probability_bounds(
    P: StochasticKernel,
    j: int,
    tol: float = 1e-10,
    minorant: LatticeWalk | None = None,
) -> tuple[float, float]:
    """Two-sided bounds on the probability of ever returning to state j.

    The hitting probabilities are solved on a window [state_lo, T] twice:
    once with boundary 0 above the window (underestimate) and once with the
    Lundberg descent bound exp(-r (y - j)) (overestimate).  The window
    reaches ceil(max(36, ln(1/tol)) / r) + 4 states above j, where the
    Lundberg bound is below min(tol, e^-36); bounds that still differ by
    more than ``tol`` > 0 raise :class:`ConvergenceError`.  Without a
    positive-mean minorant there is no certificate and the trivial (0, 1)
    is returned.  A state below ``P.state_lo`` raises StateRangeError.
    """
    if j < P.state_lo:
        raise StateRangeError(f"state {j} is below the chain's first state {P.state_lo}")
    if minorant is None:
        minorant = jump_minorant(P)
    if minorant.mean <= 0:
        return (0.0, 1.0)
    r = ruin_exponent(minorant)
    T = j + (26 if r == math.inf else math.ceil(max(36.0, math.log(1.0 / tol)) / r) + 4)
    lo, bl, bh = P.state_lo, P.band_lo, P.band_hi
    rows = P.rows(lo, T)
    rows = rows / row_sums(rows)[:, None]
    # H(x) = P{hit j from x} on the window, H(j) = 1, given values above it
    jdx = j - lo
    lu, ab = band_system(rows, bl)
    band_pin(lu, ab, jdx)
    ys = np.arange(T + 1, T + bh + 1)
    above_hi = np.zeros(bh) if r == math.inf else np.minimum(1.0, np.exp(-r * (ys - j)))
    first_step = []
    for above in (np.zeros(bh), above_hi):
        b = band_matvec(rows, bl, np.concatenate([np.zeros(bl + len(rows)), above]))
        b[jdx] = 1.0
        v = np.concatenate([np.zeros(bl), band_solve(lu, ab, b), above])
        first_step.append(float(band_matvec(rows[jdx : jdx + 1], bl, v[jdx:])[0]))
    r_lo, r_hi = max(0.0, first_step[0]), min(1.0, first_step[1])
    if r_hi - r_lo > tol:
        raise ConvergenceError(
            f"return-probability sandwich for state {j} did not close below {tol:.1e}"
        )
    return (r_lo, r_hi)


# ---------------------------------------------------------------------------
# sufficient conditions


@dataclass(frozen=True)
class ConditionReport:
    """Checked sufficient conditions for the product construction.

    Verdict flags are computed by the pure helpers below from the bounds
    stored here, so tightening any bound can only move a verdict from
    false to true, never the reverse.
    """

    sum_abs_delta: float
    delta_plus_sum: float
    minorant: LatticeWalk
    minorant_mean: float
    escape_prob_lower: float
    gamma_available: float
    drift_eps: float
    drift_M: int
    zeta_tails: np.ndarray
    zeta_mean: float
    return_prob_bounds: dict[int, tuple[float, float]]
    local_time_moment_bound: dict[tuple[int, float], float]
    prop_2_5_holds: bool
    prop_2_7_holds: bool
    thm_2_4_applicable: bool
    notes: tuple[str, ...] = ()


def minorant_verdict(minorant_mean: float) -> bool:
    return minorant_mean > 0.0


def drift_verdict(drift_eps: float, zeta_mean: float) -> bool:
    return drift_eps > 0.0 and zeta_mean < math.inf


def limit_theorem_verdict(
    sum_abs_delta: float,
    minorant_mean: float,
    delta_plus_sum: float,
    return_prob_uppers: Iterable[float],
) -> bool:
    """All hypotheses certified: summable |delta|, a positive-mean minorant
    (which yields the strong law escape and bounded mean local times), and
    e^{delta} r_i < 1 at every state i carrying positive delta, so the
    exponential local-time moments there are finite."""
    if not sum_abs_delta < math.inf:
        return False
    if not minorant_mean > 0.0:
        return False
    factor = math.exp(delta_plus_sum)
    return all(factor * r < 1.0 for r in return_prob_uppers)


def check_conditions(
    kernel: TransitionKernel,
    family=None,
    return_tol: float = 1e-8,
) -> ConditionReport:
    notes = []
    lo = kernel.state_lo
    deltas = np.log(kernel.masses)
    tail_bound = kernel.tail.delta_abs_bound() if kernel.tail is not None else 0.0
    if tail_bound == math.inf:
        notes.append("tail rule carries no certified |delta| bound; sums treated as infinite")
    sum_abs = float(np.abs(deltas).sum()) + tail_bound
    delta_plus = float(np.clip(deltas, 0.0, None).sum()) + tail_bound

    extra = None if family is None else np.asarray(family.limit_pmf, dtype=float)[None, :]
    minor = jump_minorant(kernel, extra_rows=extra)
    p_escape = escape_probability(minor)
    if p_escape >= 1.0:  # a minorant that never steps down: every moment is finite
        gamma_avail = math.inf
    else:
        gamma_avail = math.log(1.0 / (1.0 - p_escape)) if p_escape > 0 else 0.0

    zeta_tails, zeta_mean = jump_down_majorant(kernel)

    # drift[M] = min over the rows of the drift truncated at M = 0..band_hi
    moments = (_collect_rows(kernel) * kernel.offsets).cumsum(axis=1)
    drift = moments[:, kernel.band_lo :].min(axis=0)
    drift_M = int(np.argmax(drift))
    drift_eps = float(drift[drift_M])

    support = (lo + np.flatnonzero(deltas > _DELTA_EPS)).tolist()
    if 0.0 < tail_bound < math.inf:
        notes.append(
            "positive log masses may persist beyond the represented rows; "
            "local-time moment checks cover represented states only"
        )
    P = kernel.embed()
    rp: dict[int, tuple[float, float]] = {}
    lt: dict[tuple[int, float], float] = {}
    for i in support:
        b = return_probability_bounds(P, i, tol=return_tol, minorant=minor)
        rp[i] = b
        factor = math.exp(delta_plus)
        if factor * b[1] < 1.0:
            lt[(i, delta_plus)] = factor * (1.0 - b[1]) / (1.0 - factor * b[1])
        else:
            lt[(i, delta_plus)] = math.inf

    p25 = minorant_verdict(minor.mean)
    p27 = drift_verdict(drift_eps, zeta_mean)
    thm = limit_theorem_verdict(
        sum_abs, minor.mean, delta_plus, [b[1] for b in rp.values()]
    )
    return ConditionReport(
        sum_abs_delta=sum_abs,
        delta_plus_sum=delta_plus,
        minorant=minor,
        minorant_mean=minor.mean,
        escape_prob_lower=p_escape,
        gamma_available=gamma_avail,
        drift_eps=drift_eps,
        drift_M=drift_M,
        zeta_tails=zeta_tails,
        zeta_mean=zeta_mean,
        return_prob_bounds=rp,
        local_time_moment_bound=lt,
        prop_2_5_holds=p25,
        prop_2_7_holds=p27,
        thm_2_4_applicable=thm,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# linear solve


def build_solve(
    kernel: TransitionKernel,
    K: int,
    tol: float = 1e-10,
    check_doubling: bool = True,
    doubling_tol: float = 1e-6,
) -> HarmonicEstimate:
    """Solve f = Q f on [state_lo, K] with f tending to one.

    When the rows from some level h on are a stochastic tail row with
    positive mean (``_homogeneous_levels``), the solve is exact (method
    ``matrix-geometric``): from a level s >= h on the deficit 1 - f is
    matrix-geometric in levels of m states, and no doubling runs.
    Otherwise f is pinned to one above K and the truncated solve is checked
    by a second one at 2K (method ``linear-solve``), which needs rows up to
    2K: without them :class:`StateRangeError` is raised, unless
    ``check_doubling`` is off.  A solution with negative entries means no
    positive harmonic function is compatible with the boundary (the
    perturbation is too strong); disagreement between the solves at K and
    2K on the lower half means the boundary at K has not yet decoupled.
    Both conditions raise :class:`SolverFailure`.
    """
    if not kernel.has_row(K):
        raise StateRangeError(f"kernel has no rows up to the requested truncation {K}")
    if kernel.tail is not None:
        for i, m in enumerate(row_sums(kernel.tail.rows_at(K + 1, K + 2)), start=K + 1):
            if abs(math.log(m)) > _BOUNDARY_MASS_TOL:
                raise UnsupportedInputError(
                    f"tail row at {i} has mass {m:.17g}; boundary value 1 above the "
                    "truncation needs asymptotically stochastic rows"
                )
    lo, bl = kernel.state_lo, kernel.band_lo
    top = 2 * K if check_doubling else K
    if first_row_below(kernel.rows(lo, min(top, lo + bl - 1)), bl) is not None:
        raise UnsupportedInputError("kernel places weight below its own represented range")
    levels = _homogeneous_levels(kernel, K)
    if levels is not None and levels[2].mean > 0 and kernel.tail.delta_abs_bound() == 0.0:
        return _matrix_geometric_solve(kernel, K, tol, *levels)
    return _truncated_solve(kernel, K, tol, check_doubling, doubling_tol)


def _matrix_geometric_solve(kernel: TransitionKernel, K: int, tol: float, h: int, s: int,
                            walk: LatticeWalk) -> HarmonicEstimate:
    """f on [state_lo, K] from the rows below s + m and the first-passage
    matrix G of the tail walk; h is the homogeneous level and s the state
    from which g is matrix-geometric (``_homogeneous_levels``).

    From h on the deficit g = 1 - f is harmonic for the homogeneous walk and
    tends to zero, so on the levels of m states above s, g_k = G g_(k-1)
    (Neuts 1981; Latouche & Ramaswami 1999).  One banded system holds the
    rows from state_lo up to the level below its top and, as its last m
    equations, the closure g_top = G g_(top - 1); it spans the window up to
    about ``_DIRECT_STATES`` states, and G's powers fill the levels above it
    up to K + band_hi.  The harmonicity residual is taken over all of the
    window, padded by that exact continuation.
    """
    lo, bl, bh = kernel.state_lo, kernel.band_lo, kernel.band_hi
    G, g_residual = _certified_first_passage(walk)
    m = len(G)
    levels, direct = _level_counts(K + bh - s + 1, m)
    n = s - lo + direct * m
    rows = kernel.row_blocks(lo, max(K, lo + n - 1))
    # rows below h are explicit; the tail row counts as stochastic
    deficit = np.zeros(n)
    np.subtract(1.0, kernel.masses[: h - lo], out=deficit[: h - lo])
    # g on state_lo..K + band_hi, then f in place, padded by band_lo zeros below
    v = np.zeros(bl + s - lo + levels * m)
    g = v[bl:]
    g[:n] = _deficit_solve(*band_closure(row_slice(rows, 0, n), bl, G), deficit)
    _level_powers(G, g[s - lo :].reshape(levels, m), direct)
    f = np.subtract(1.0, g, out=g)
    _nonnegative(f[: K - lo + 1])
    meta = {"first_passage_residual": g_residual, "homogeneous_level": h, "level_size": m}
    return _estimate(kernel, K, tol, rows, v, "matrix-geometric", meta)


def _truncated_solve(kernel: TransitionKernel, K: int, tol: float, check_doubling: bool,
                     doubling_tol: float) -> HarmonicEstimate:
    """f on [state_lo, K] pinned to one above K, checked by the solve at 2K
    when ``check_doubling`` is set."""
    lo, bl = kernel.state_lo, kernel.band_lo
    if check_doubling and not kernel.has_row(2 * K):
        raise StateRangeError(
            f"the doubling check needs rows up to {2 * K}; pass check_doubling=False "
            f"to solve at {K} unchecked"
        )
    rows = kernel.row_blocks(lo, 2 * K if check_doubling else K)
    deficit = np.concatenate([1.0 - row_sums(b) for b in rows])
    n = K - lo + 1
    if check_doubling:  # widest first, as in ``stationary._compensated_solves``
        f_2K = _nonnegative(1.0 - _deficit_solve(*band_system(rows, bl), deficit))
    f_K = _nonnegative(1.0 - _deficit_solve(*band_system(row_slice(rows, 0, n), bl), deficit[:n]))
    meta = {"doubling_disagreement": None} if check_doubling else {}
    if check_doubling:
        half = max(K // 2, lo) - lo + 1
        a, b = f_K[:half], f_2K[:half]
        disagreement = float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))))
        meta["doubling_disagreement"] = disagreement
        if disagreement > doubling_tol:
            raise SolverFailure(
                f"solutions at truncations {K} and {2 * K} disagree by "
                f"{disagreement:.3e} on the lower half; the boundary has not decoupled",
                reason="doubling",
                diagnostics={"disagreement": disagreement, "K": K},
            )
    v = np.concatenate([np.zeros(bl), f_K, np.ones(kernel.band_hi)])
    return _estimate(kernel, K, tol, rows, v, "linear-solve", meta)


def _estimate(kernel: TransitionKernel, K: int, tol: float, rows, v: np.ndarray, method: str,
              meta: dict) -> HarmonicEstimate:
    """The estimate f on [state_lo, K] from ``v``, f on the window ``rows``
    padded as ``_residual`` takes it, once its harmonicity residual over the
    window is within ``tol``."""
    lo, bl = kernel.state_lo, kernel.band_lo
    n = K - lo + 1
    res = _residual(row_slice(rows, 0, n), bl, v)
    if res > max(tol, 1e-9):
        raise SolverFailure(
            f"harmonicity residual {res:.3e} exceeds tolerance after the solve",
            reason="residual",
            diagnostics={"residual": res},
        )
    return HarmonicEstimate(
        values=StateArray(lo, v[bl : bl + n]),
        method=method,
        truncation=K,
        boundary_value=1.0,
        residual=res,
        meta=meta,
    )


def _deficit_solve(lu, ab: np.ndarray, deficit: np.ndarray) -> np.ndarray:
    """The deficit g = 1 - f from I - P in band storage and ``deficit`` =
    1 - (row mass).

    The solve runs on g, (I - P) g = 1 - (row mass), so stochastic rows give
    an exactly zero right-hand side and a recurrent chain, whose truncated
    system is singular to working precision, still gets f = 1.
    """
    try:
        g = band_solve(lu, ab, deficit)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"banded solve failed: {exc}", reason="singular") from exc
    if not np.all(np.isfinite(g)):
        raise SolverFailure(
            "solution overflowed; values grow without bound as the truncation moves",
            reason="non-finite",
        )
    return g


def _nonnegative(f: np.ndarray) -> np.ndarray:
    """f clipped at zero in place, after checking that it has no negative
    entries beyond rounding."""
    neg = f.min()
    if neg < -1e-9 * max(1.0, float(max(-neg, f.max()))):
        raise SolverFailure(
            f"solution has negative entries (min {neg:.6g}); no positive harmonic "
            "function matches the boundary",
            reason="negative-values",
            diagnostics={"min_value": float(neg)},
        )
    return np.clip(f, 0.0, None, out=f)


def _residual(rows, band_lo: int, v: np.ndarray, pos=slice(None)) -> float:
    """max |(P f)(x) - f(x)| / max(1, f(x)) over the window rows ``pos``;
    ``v`` is f on the window (``rows``: a block or a list of blocks) padded
    by band_lo states below and at least band_hi above."""
    pf = band_matvec(rows, band_lo, v)
    pf, f = pf[pos], v[band_lo : band_lo + pf.size][pos]
    diff = np.abs(np.subtract(pf, f, out=pf), out=pf)
    return float(np.max(np.divide(diff, np.maximum(1.0, f), out=diff)))


def verify_harmonicity(kernel: TransitionKernel, f, states: Iterable[int]) -> float:
    """max_i |(Q f)(i) - f(i)| / max(1, f(i)) over the given states.

    ``f`` is evaluated once at each given state and at each state their
    rows put weight on.
    """
    fn = _as_state_fn(f)
    idx = np.fromiter(states, dtype=np.int64)
    if idx.size == 0:
        return 0.0
    lo, hi, bl = int(idx.min()), int(idx.max()), kernel.band_lo
    block = kernel.rows(lo, hi)
    pos = idx - lo
    need = np.zeros(hi - lo + block.shape[1], dtype=bool)
    r, c = np.nonzero(block[pos])
    need[np.concatenate([pos + bl, pos[r] + c])] = True
    v = np.zeros(need.size)
    for j in np.flatnonzero(need):
        v[j] = fn(lo - bl + int(j))
    return _residual(block, bl, v, pos)


# ---------------------------------------------------------------------------
# Monte Carlo


_PATH_RNG = "SFC64(SeedSequence(seed, estimator, start))"  # _path_stream, named in the meta


def _path_stream(seed: int, estimator: int, start: int) -> np.random.Generator:
    """The uniforms of the paths from ``start``: an SFC64 stream keyed by
    (seed mod 2^64, estimator, start) through a ``SeedSequence``, so a
    state's estimate does not depend on which other states are listed."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(
        (int(seed) % 2**64, estimator, int(start)))))


def _run_paths(pc, score, start, n_paths, horizon, seed, estimator, work=None):
    """``n_paths`` trajectories of the path chain ``pc`` from ``start``, each
    adding score[X_n - state_lo] (``score`` over ``pc.scored``, 1-d or 2-d
    with one column per quantity) at every visit, time zero included, until
    it leaves the chain or the horizon hits.  A start above ``pc.end``
    first draws where it lands (``_PathChain.entry``), one uniform per path,
    and scores that state.  The uniforms come from ``_path_stream``, an
    SFC64 stream keyed by (seed, estimator, start).  Returns the per-path
    totals in the score's dtype, shaped (n_paths,) + score.shape[1:], and
    the number of paths the horizon cut short.  Only live paths are
    carried, in path order, compacted by index where some leave; each draws
    one uniform per step, and its jump counts the cdf columns of its row at
    or below the uniform (the last column is 1, never counted).  A landing
    state counts the entry cdf's columns the same way.  Each quantity's
    score and totals are held as contiguous 1-d rows of their own, gathered
    with ``take`` and written back by index.  ``work``, if given, is a dict
    whose ``path_steps`` grows by the (live path, step) pairs the loop
    advances."""
    C = pc.chain
    lo, top = C.state_lo, pc.end - C.state_lo
    cols = np.ascontiguousarray(C.weights.cumsum(axis=1)[:, :-1].T)
    rows = np.ascontiguousarray(score.reshape(len(score), math.prod(score.shape[1:])).T)
    rng = _path_stream(seed, estimator, start)
    x = np.full(n_paths, start - lo)
    if start > pc.end:
        entry = pc.entry(start)
        u = rng.random(n_paths)
        x = np.full(n_paths, top + 1 - entry.size)
        for e in entry:
            x += u >= e
    totals = rows.take(x, axis=1)
    ids = (x <= top).nonzero()[0]
    x, steps = x.take(ids), 0
    run = [t.take(ids) for t in totals]
    for _ in range(horizon):
        if ids.size == 0:
            break
        steps += ids.size
        u = rng.random(ids.size)
        nx = x - C.band_lo
        for c in cols:
            nx += u >= c.take(x)
        x = nx
        for r, s in zip(run, rows):
            r += s.take(x)
        keep = (x <= top).nonzero()[0]
        if keep.size < ids.size:
            for t, r in zip(totals, run):
                t[ids] = r
            ids, x = ids.take(keep), x.take(keep)
            run = [r.take(keep) for r in run]
    for t, r in zip(totals, run):
        t[ids] = r
    if work is not None:
        work["path_steps"] += steps
    # C order: the standard error's sum over paths depends on the layout
    return np.ascontiguousarray(totals.T).reshape((n_paths,) + score.shape[1:]), ids.size


@dataclass(frozen=True)
class _PathChain:
    """The finite chain that Monte Carlo paths run on: the embedded chain's
    rows of state_lo..``end``, each jump above end folded onto where it
    lands, end - L + 1..end or the escape, end + 1, which ends the path.
    The rows keep the embedded chain's band.

    At a stopping level (``G`` None, L = 0) ``end`` is ``stop_level`` and
    every such jump escapes.  With its excursions collapsed, every row above
    end is the tail row, and a jump to y > end lands where its walk first
    comes back to end - L + 1..end from y, L its largest down step: by y's
    row of G^k when y lies in the k-th level of m states above end, ``G``
    the walk's first-passage matrix (Latouche & Ramaswami 1999), and on the
    escape by the defect.  Each path's score keeps its law (conditional
    Monte Carlo; Asmussen & Glynn 2007, ch. V).  The ``scored`` states run
    on to end + band_hi, where a row's dropped last column points, and
    score 0 above end: a uniform above a row's rounded sum ends the path as
    an escape.  A start above end first draws where it lands (``entry``).
    """

    chain: StochasticKernel
    stop_level: int
    G: np.ndarray | None = None
    residual: float | None = None
    L: int = 0

    @property
    def end(self) -> int:
        return self.chain.truncation

    @property
    def scored(self) -> np.ndarray:
        return np.arange(self.chain.state_lo, self.end + self.chain.band_hi + 1)

    def entry(self, start: int) -> np.ndarray | None:
        """The cdf over end - L + 1..end of where a path from ``start`` >
        end lands (the remaining mass escapes; at the stopping level all of
        it), None for a start at or below end."""
        if start <= self.end:
            return None
        if self.G is None:
            return np.zeros(0)
        k, i = divmod(start - self.end - 1, len(self.G))
        law = self.G[i]
        for _ in range(k):
            law = law @ self.G
        return np.cumsum(law[len(law) - self.L :])


def _path_chain(kernel: TransitionKernel, top: int, return_tol: float, checked: dict,
                n_paths: int) -> _PathChain:
    """The chain that ``n_paths`` paths scoring states up to ``top`` run on,
    its stopping level certified (``_PathCache.stop_level``, which also
    checks the ``checked`` states) and its rows folded
    (``_PathCache.chain``) by what the kernel keeps (``_path_cache``)."""
    cache = _path_cache(kernel)
    return cache.chain(top, cache.stop_level(top, return_tol, checked), n_paths)


@once
def _path_cache(kernel: TransitionKernel) -> _PathCache:
    """What Monte Carlo keeps of the kernel, made on the first call."""
    return _PathCache(kernel)


class _PathCache:
    """What Monte Carlo keeps of a kernel, whatever the top its paths score
    (``_path_cache``): the embedded chain ``P``, the Lundberg exponent ``r``
    of its jump minorant (None without a positive-drift minorant), its tail
    walk, and the rows of the last ``_KEPT_FOLDS`` path chains built.  The
    walk is the one ``P``'s tail row keeps, the kernel's own row where
    embedding leaves it as it is, and it keeps its G and excursion law
    (``_excursion_law``), so ``build_solve`` and Monte Carlo on one kernel
    certify G once.  So a kernel holds at most one embedded chain and
    ``_KEPT_FOLDS`` folds, each no longer than the embedded rows up to a
    stopping level, and its walk one excursion law (bh x (L + 1)).
    """

    def __init__(self, kernel: TransitionKernel):
        self.P = kernel.embed()
        minorant = jump_minorant(self.P)
        self.r = ruin_exponent(minorant) if minorant.mean > 0 else None
        self.walk = _tail_walk(self.P)
        self.folds: dict[tuple[int, int], StochasticKernel] = {}

    def stop_level(self, top: int, return_tol: float, checked: dict) -> int:
        """The stopping level of paths scoring states up to ``top``: above
        it the embedded chain revisits ``top`` or below with probability at
        most ``return_tol`` (Lundberg bound via the minorant).  Raises
        unless the minorant drifts up and the rows reach the stopping
        level, and unless ``checked``, a map from a name to states, has
        every state from state_lo to the stopping level plus band_hi.
        """
        if self.r is None:
            raise UnsupportedInputError(
                "no positive-drift minorant: cannot certify Monte Carlo termination"
            )
        stop = top + 1
        if self.r != math.inf:
            stop += int(math.ceil(math.log(1.0 / return_tol) / self.r))
        if not self.P.has_row(stop):
            raise StateRangeError(f"kernel rows end before the certified stopping level {stop}")
        _check_range(checked, self.P, stop)
        return stop

    def chain(self, top: int, stop: int, n_paths: int) -> _PathChain:
        """The path chain for ``n_paths`` paths scoring states up to
        ``top``, with certified stopping level ``stop``.

        The chain ends there, unless its excursions above
        max(top, h, state_lo + L - 1) are collapsed: where the embedded
        chain has a homogeneous tail from level h on whose walk steps both
        ways with gcd 1 (``_tail_walk``, down steps of at most L, levels of
        m states), G is certified and affordable, and that top is not above
        the stopping level.  Cyclic reduction on G costs a few m^3 flops,
        which may be at most ``_EXACT_WORK_RATIO`` times ``n_paths`` x W, W
        the band width, about what one step of the paths costs, and m at
        most ``_MAX_EXCURSION_LEVEL``; no ``n_paths`` (0) takes the stopping
        level.
        """
        P, walk = self.P, self.walk
        if walk is not None:
            L, m = -walk.lo, max(-walk.lo, walk.hi)
            end = max(top, P.homogeneous_level(), P.state_lo + L - 1)
            W = P.weights.shape[1]
            if (m <= _MAX_EXCURSION_LEVEL and m**3 <= _EXACT_WORK_RATIO * n_paths * W
                    and end <= stop and _excursion_law(walk, P.band_hi) is not None):
                G, residual, law = _excursion_law(walk, P.band_hi)
                return _PathChain(self._fold(end, law), stop, G, residual, L)
        # every jump above the stopping level escapes
        return _PathChain(self._fold(stop, np.ones((P.band_hi, 1))), stop)

    def _fold(self, end: int, law: np.ndarray) -> StochasticKernel:
        """``_collapse(P, end, law)``, kept among the last ``_KEPT_FOLDS``."""
        key = (end, law.shape[1])
        fold = self.folds.pop(key, None)
        if fold is None:
            fold = _collapse(self.P, end, law)
            if len(self.folds) == _KEPT_FOLDS:
                del self.folds[next(iter(self.folds))]
        self.folds[key] = fold
        return fold


@once
def _excursion_law(walk: LatticeWalk, bh: int) -> tuple[np.ndarray, float, np.ndarray] | None:
    """(G, its certified residual, law) of a tail walk in a band reaching bh
    steps up: law's row j is where a jump to end + 1 + j lands, row j % m of
    G^(j // m + 1) over end - L + 1..end and then the escape; None where G
    cannot be certified.  G is the walk's (``_certified_first_passage``),
    clipped at 0.  Kept on the walk for each bh."""
    try:
        G, residual = _certified_first_passage(walk)
    except SolverFailure:
        return None
    G = np.clip(G, 0.0, None)  # rounding can leave entries of -1e-17 or so
    m, L = len(G), -walk.lo
    powers = [G]
    while len(powers) * m < bh:
        powers.append(powers[-1] @ G)
    law = np.vstack(powers)[:bh, m - L :]
    return G, residual, np.hstack([law, np.clip(1.0 - row_sums(law), 0.0, None)[:, None]])


def _check_range(checked: dict, P: TransitionKernel, stop: int) -> None:
    """Raises unless every state in ``checked`` lies in the scored range of
    stopping level ``stop``, state_lo..stop + band_hi."""
    lo, hi = P.state_lo, stop + P.band_hi
    for what, states in checked.items():
        for s in states:
            if not lo <= s <= hi:
                raise StateRangeError(f"{what} {s} outside the scored range [{lo}, {hi}]")


def _collapse(P: StochasticKernel, end: int, law: np.ndarray) -> StochasticKernel:
    """The rows of state_lo..end of ``P`` with each jump to end + 1 + j
    moved onto row j of ``law``, the law of where it lands among
    end - L + 1..end + 1, L = law.shape[1] - 1 (``_PathChain``).  For
    L <= band_lo that fits the band of ``P``: a walk whose down steps are at
    most L enters a level only at its last L states."""
    lo, bl, bh = P.state_lo, P.band_lo, P.band_hi
    L, W = law.shape[1] - 1, bl + bh + 1
    out = np.array(P.rows(lo, end))
    # the jumps from x to end + 1 + j sit in the columns c = end + 1 + j - x + bl < W
    x = np.arange(max(lo, end + 1 - bh), end + 1)
    c = end + 1 + np.arange(bh) - x[:, None] + bl
    r, j = np.nonzero(c < W)
    jumps = np.zeros((x.size, bh))
    jumps[r, j] = out[x[r] - lo, c[r, j]]
    out[x[r] - lo, c[r, j]] = 0.0
    out[(x - lo)[:, None], end + 1 - L + np.arange(L + 1) - x[:, None] + bl] += jumps @ law
    return StochasticKernel(band_lo=bl, band_hi=bh, weights=out, state_lo=lo)


def _mean_se(x: np.ndarray):
    """Mean and standard error (sample SD / sqrt(n), 0 for one path) over paths.

    Over the n paths of a C-ordered (n, q) block, q >= 2, numpy's reductions
    along axis 0 add the rows one after another, in a loop q entries wide.
    Here the same sums run in the same order along each quantity's
    contiguous row (``np.add.accumulate``), bit for bit, at about a third of
    the cost on 20000 x 3 visit counts.  A 1-d or one-column block keeps
    numpy's reductions, which sum it pairwise.
    """
    n = x.shape[0]
    if x.ndim == 1 or x.shape[1] < 2 or not x.flags.c_contiguous:
        se = x.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(x.shape[1:])
        return x.mean(axis=0), se
    rows = x.T.copy()
    np.add.accumulate(rows, axis=1, out=rows)
    mean = rows[:, -1] / n
    if n == 1:
        return mean, np.zeros(x.shape[1:])
    np.subtract(x.T, mean[:, None], out=rows)
    rows *= rows
    np.add.accumulate(rows, axis=1, out=rows)
    return mean, np.sqrt(rows[:, -1] / (n - 1)) / math.sqrt(n)


def _log_masses(kernel: TransitionKernel) -> tuple[np.ndarray, int]:
    """Log row masses of the path product and the top of their support
    (state_lo where every row is stochastic); a tail that is not stochastic
    raises."""
    deltas = np.log(kernel.masses)
    if kernel.tail is not None and kernel.tail.delta_abs_bound() != 0.0:
        raise UnsupportedInputError("tail rows must be stochastic for the path product")
    nz = np.flatnonzero(np.abs(deltas) > _DELTA_EPS)
    return deltas, kernel.state_lo + (int(nz[-1]) if nz.size else 0)


def _check_product(kernel: TransitionKernel, states: Sequence[int],
                   return_tol: float = 1e-8) -> None:
    """Raises what ``build_mc`` would before its first path: a tail that is
    not stochastic, no positive-drift minorant, rows that end below the
    stopping level, or a start state outside the scored range.  Only the
    stopping level is certified (``_PathCache.stop_level``), on the cache
    that ``build_mc`` on the same kernel reuses; the path chain is not
    built, which cannot fail."""
    _path_cache(kernel).stop_level(_log_masses(kernel)[1], return_tol, {"start state": states})


def build_mc(
    kernel: TransitionKernel,
    states: Sequence[int],
    n_paths: int,
    horizon: int,
    seed: int,
    return_tol: float = 1e-8,
) -> HarmonicEstimate:
    """Monte Carlo estimate of f(i) = E_i exp(sum_n delta(X_n)).

    Each path runs the path chain (``_path_chain``), adding the log row mass
    of every visited state up to the chain's end, until it leaves it.
    Where the chain's tail allows it, the end is the top of the support of
    delta (at least the homogeneous level), and an excursion above it is
    one draw of where the path comes back, or of its escape: the meta
    records that ``excursion_level`` and the certified
    ``first_passage_residual``.  Otherwise the end is the meta's
    ``stop_level``, from which the remaining contribution is certifiably
    below ``return_tol``; it also bounds the start states.  Paths the
    horizon cuts short keep their partial product and are counted; more
    than 1% of them sets a warning flag on the estimate.  ``path_steps``
    counts the (live path, step) pairs of all start states, a work figure
    that repeats for a seed, and ``rng`` names the paths' generator
    (``_path_stream``).  A path weight above sqrt(DBL_MAX / n_paths), past
    which the sums of the mean and the standard error can overflow, raises
    ``SolverFailure`` (non-finite).
    """
    if not n_paths >= 1:
        raise UnsupportedInputError(f"n_paths must be at least 1 (got {n_paths!r})")
    deltas, top = _log_masses(kernel)
    pc = _path_chain(kernel, top, return_tol, {"start state": states}, n_paths)
    score = np.zeros(pc.scored.size)  # 0 above the end
    k = min(deltas.size, pc.end + 1 - kernel.state_lo)
    score[:k] = deltas[:k]

    values, errs, exhausted, work = {}, {}, {}, {"path_steps": 0}
    # past this weight the sums of the mean or the standard error can overflow
    w_max = math.sqrt(sys.float_info.max / n_paths)
    for s in states:
        totals, exhausted[int(s)] = _run_paths(pc, score, s, n_paths, horizon, seed, 1, work)
        with np.errstate(over="ignore"):
            w = np.exp(totals)
        if not w.max() <= w_max:
            raise SolverFailure(
                f"path weights from state {int(s)} reach {w.max():.6g}, past "
                f"sqrt(DBL_MAX / n_paths) = {w_max:.6g}, where their mean and standard error "
                "stay finite", reason="non-finite")
        values[int(s)], errs[int(s)] = map(float, _mean_se(w))

    warn = any(v > 0.01 * n_paths for v in exhausted.values())
    meta = {
        "n_paths": n_paths,
        "horizon": horizon,
        "seed": seed,
        "stop_level": pc.stop_level,
        "exhausted": exhausted,
        "horizon_warning": warn,
        "path_steps": work["path_steps"],
        "rng": _PATH_RNG,
    }
    if pc.G is not None:
        meta.update(excursion_level=pc.end, first_passage_residual=pc.residual)
    return HarmonicEstimate(
        values=values,
        method="monte-carlo",
        truncation=kernel.truncation,
        std_errors=errs,
        meta=meta,
    )


def _visit_counts(kernel: TransitionKernel, start: int, sites, checked: dict, n_paths: int,
                  horizon: int, seed: int, estimator: int, return_tol: float):
    """Each path's visits from ``start`` to ``sites``, a state or one column
    per state of a sequence, time zero included, as floats, and the number
    of paths the horizon cut short; the path chain scores states up to the
    highest site.  A path visits a site at most horizon + 1 times, so each
    site is scored as a field of b = (horizon + 1).bit_length() bits (at
    most 63) in an int64 word of 63 // b sites: one add per word and step
    counts them all, and no field carries into the next."""
    if not n_paths >= 1:
        raise UnsupportedInputError(f"n_paths must be at least 1 (got {n_paths!r})")
    top = max(np.atleast_1d(sites).tolist(), default=start)
    pc = _path_chain(kernel, top, return_tol, checked, n_paths)
    b = min((horizon + 1).bit_length(), 63)
    per = 63 // b
    field = np.arange(np.size(sites))
    n = pc.scored.size
    score = np.zeros((n, -(-field.size // per) * per), dtype=np.int64)
    score[:, : field.size] = np.equal.outer(pc.scored, np.ravel(sites)) << b * (field % per)
    score = score.reshape(n, -1, per).sum(axis=2)
    words, cut = _run_paths(pc, score, start, n_paths, horizon, seed, estimator)
    counts = (words[:, field // per] >> b * (field % per)) & (1 << b) - 1
    # C order, as a float score's totals: the standard error depends on the layout
    return counts.astype(float, order="C").reshape((n_paths,) + np.shape(sites)), cut


def local_time_moment_mc(
    kernel: TransitionKernel,
    i: int,
    gamma: float,
    n_paths: int,
    horizon: int,
    seed: int,
    return_tol: float = 1e-8,
) -> tuple[float, float, float]:
    """Monte Carlo estimate of E_i exp(gamma * ell(i)).

    ell(i) counts every visit to i including time zero.  Paths end at their
    escape above i (``_path_chain``), or else above a level from which
    another visit to i has probability below ``return_tol``.  Returns
    (estimate, standard error, fraction of paths cut off by the horizon);
    near the critical gamma the estimate blows up and the cut-off fraction
    is the signal to distrust it.
    """
    counts, n_exhausted = _visit_counts(kernel, i, i, {"state": [i]}, n_paths, horizon, seed,
                                        2, return_tol)
    with np.errstate(over="ignore"):
        w = np.exp(gamma * counts)
    est, se = _mean_se(w)
    return float(est), float(se), n_exhausted / n_paths


def expected_local_times_mc(
    kernel: TransitionKernel,
    start: int,
    sites: Sequence[int],
    n_paths: int,
    horizon: int,
    seed: int,
    return_tol: float = 1e-8,
) -> dict[int, tuple[float, float]]:
    """Monte Carlo estimates of E_start ell(j) for each site j.

    Every site is scored on one path set, so the estimates are correlated.
    Used to evaluate the convexity lower bound on the path product.
    """
    counts, _ = _visit_counts(kernel, start, sites, {"start state": [start], "site": sites},
                              n_paths, horizon, seed, 3, return_tol)
    means, ses = _mean_se(counts)
    return {int(j): (float(m), float(e)) for j, m, e in zip(sites, means, ses)}


# ---------------------------------------------------------------------------
# closed form for the reflected simple walk with one perturbed weight


def reflected_walk_harmonic_exact(alpha: float, p: float, i):
    """Harmonic function of the up-drift reflected simple walk whose only
    nonstochastic row is at the origin, with total weight ``alpha``.

    Below the critical weight p/q the function is
        f(0) = alpha (1 - q/p) / (1 - alpha q/p),
        f(i) = 1 - (q/p)^i + (q/p)^i f(0),
    and tends to one.  At the critical weight the (suitably normalised)
    harmonic function is (q/p)^i, which decays instead.  Above it no
    positive harmonic function exists.
    """
    q = 1.0 - p
    if not 0.0 < q < p:
        raise UnsupportedInputError("needs an upward-drift walk: 1/2 < p < 1")
    if alpha <= 0:
        raise UnsupportedInputError("the origin weight must be positive")
    ratio = q / p
    critical = p / q
    idx = np.asarray(i)
    if abs(alpha - critical) <= _CRITICAL_RTOL * critical:
        out = ratio**idx
        return out if out.ndim else float(out)
    if alpha > critical:
        raise NoPositiveHarmonicError(
            f"origin weight {alpha:.6g} exceeds the critical value p/q = {critical:.6g}"
        )
    f0 = alpha * (1.0 - ratio) / (1.0 - alpha * ratio)
    out = 1.0 - ratio**idx + ratio**idx * f0
    return out if out.ndim else float(out)
