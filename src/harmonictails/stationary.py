"""Stationary laws of downward-drifting banded chains and their tail decay.

The stationary probability of a chain whose jump law approaches a limit law
with negative mean decays like ``c * exp(-beta i)`` with ``beta`` the Cramér
root of the limit law.  Direct linear solves for the stationary vector
underflow long before the asymptotic regime (exp(-beta i) hits 1e-308 around
i = 850 for beta near 0.85), so the solver here works on the compensated
vector y(i) = pi(i) exp(beta i), which stays of order one across the whole
window.  When every row from some level h on is a tail row whose walk
satisfies Cramér's condition, y is matrix-geometric above h and the law is
exact (method ``matrix-geometric``) where the tilted rows stay finite;
otherwise the chain is truncated, jumps above the window reflected onto its
top, and checked by doubling the window (method ``linear-solve``).  Chains
whose drift perturbation is not summable get a state-dependent decay rate
beta(x) expanded in powers of the perturbation; the expansion coefficients
come from a formal-series inversion of the local root equation.

Also here: the exact regeneration decomposition of the stationary law over
a low set, the harmonic change of measure that turns the chain killed on
the low set into its upward-conditioned version, and a renewal measure
solved on a certified window, used to tie all three representations
together.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .chains import ChainFamily
from .errors import (
    InternalConsistencyError,
    NoCramerRootError,
    SolverFailure,
    StateRangeError,
    UnsupportedInputError,
)
from .harmonic import escape_probability, jump_minorant
from .kernels import (
    HomogeneousTail,
    ParametricTail,
    StochasticKernel,
    TransitionKernel,
    _as_state_fn,
    band_closure,
    band_matvec,
    band_pin,
    band_rmatvec,
    band_solve,
    band_system,
    row_slice,
    row_sums,
)
from .ladder import (
    LatticeWalk,
    _homogeneous_levels,
    _level_counts,
    _level_powers,
    _row_walk,
    _tilted_first_passage,
    certified_root,
    cramer_root,
    ruin_exponent,
)


@dataclass(frozen=True)
class StationaryResult:
    """Stationary law on 0..K in log form, with solve diagnostics.

    ``tilt_beta`` is the compensation rate used; ``y`` is the compensated
    solution pi(i) exp(beta i).  On both paths ``normalization_error`` is
    |log| of the window's mass.  The truncated path (``method``
    ``linear-solve``) normalises the law on the window, so there it is
    rounding; the exact path (``matrix-geometric``) normalises it on all
    states, so there it also counts the mass above K.
    """

    K: int
    tilt_beta: float
    log_pi: np.ndarray
    y: np.ndarray
    normalization_error: float
    reflected_weight: float
    doubling_disagreement: float | None = None
    method: str = "linear-solve"  # or "matrix-geometric"
    meta: dict = field(default_factory=dict)

    @property
    def pi(self) -> np.ndarray:
        return np.exp(self.log_pi)

    def log_value(self, i: int) -> float:
        if not 0 <= i <= self.K:
            raise StateRangeError(f"state {i} outside the solved range [0, {self.K}]")
        return float(self.log_pi[i])


def _limit_walk_of(chain) -> LatticeWalk:
    if isinstance(chain, ChainFamily):
        return chain.limit_walk
    if isinstance(chain.tail, HomogeneousTail):
        return _row_walk(chain.tail, chain.band_lo)
    raise UnsupportedInputError(
        "cannot infer the limiting jump law; pass the tilt rate explicitly"
    )


@contextlib.contextmanager
def _tilted_rows(beta: float):
    """Where rows are tilted at ``beta`` and assembled: a weight that
    overflows raises ``SolverFailure`` (non-finite) there, not in the solve."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise SolverFailure(
            f"row weights overflow when tilted at beta = {beta:.6g}", reason="non-finite"
        ) from exc


def _compensated_solves(rows, band_lo: int, beta: float, windows: tuple[int, ...]):
    """Solve the stationarity equations for y(i) = pi(i) exp(beta i) on each
    window 0..n - 1 of ``windows`` (increasing, the last one all of
    ``rows``, a list of row blocks stacked in state order).

    Jumps that would leave a window upward are reflected onto its top state.
    The balance equation for state 0 is replaced by the pin y(0) = 1 and the
    solution is rescaled so that sum_i y(i) exp(-beta i) = 1.  Each window
    assembles the tilted (I - P)^T of its own rows and solves it, the widest
    first.
    Returns the y of each window, and the reflected weight and the balance
    residual of the first.
    """
    W = rows[0].shape[1]
    with np.errstate(over="ignore"):
        tilt = np.exp(beta * (np.arange(W) - band_lo).astype(float))
    if not np.all(np.isfinite(tilt)):
        raise SolverFailure(
            f"tilt factors exp(beta * jump) overflow at beta = {beta:.6g}", reason="non-finite"
        )
    ys = []
    # widest first: in the other order glibc trims the heap between the solves and grows it back
    for n in windows[::-1]:
        # only the top h rows have jumps that leave the window: reflect a copy of them
        h = min(W - 1 - band_lo, n)
        edge = np.concatenate([np.empty((0, W)), *row_slice(rows, n - h, n)])
        window = row_slice(rows, 0, n - h) + [edge]
        reflected = 0.0
        with _tilted_rows(beta):
            for c in range(band_lo + 1, W):
                x = np.arange(h - min(c - band_lo, n), h)
                reflected += float(edge[x, c].sum())
                edge[x, h - 1 - x + band_lo] += edge[x, c]
                edge[x, c] = 0.0
            system = band_system(window, band_lo, transpose=True, factors=tilt)
        y = _pinned_solve(*system)
        del system  # this window's storage goes before the next one's is assembled
        scale = _positive(y, _discounted_sum(beta, y), n)
        ys.insert(0, y)
    # the last window solved is the first of ``windows``
    return ys, reflected, _balance_residual(window, band_lo, tilt, y, n) / scale


def _pinned_solve(lu, ab: np.ndarray) -> np.ndarray:
    """The tilted balance equations in band storage ``ab`` solved with the
    equation of state 0 replaced by the pin y(0) = 1.  ``ab`` is the
    caller's own storage, which the solve may overwrite."""
    band_pin(lu, ab, 0)
    rhs = np.zeros(ab.shape[1])
    rhs[0] = 1.0
    try:
        return band_solve(lu, ab, rhs, overwrite=True)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(
            f"compensated stationary solve failed: {exc}", reason="singular"
        ) from exc


def _discounted_sum(beta: float, y: np.ndarray) -> float:
    """sum_i exp(-beta i) y(i).

    exp(-beta i) is exactly 0 from i = 746 / beta on: the BLAS dot adds its
    products in blocks, and past a prefix whose length is a multiple of 64
    they are exact zeros, which leave the sum unchanged.
    """
    n = y.size
    live = n if beta * n <= 746.0 else min(n, -(-math.ceil(746.0 / beta) // 64) * 64)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.exp(-beta * np.arange(live, dtype=float)) @ y[:live])


def _positive(y: np.ndarray, total: float, n: int) -> float:
    """Divide y by ``total`` in place, check that the result is finite and
    that its first n entries are not negative beyond rounding, and clip it
    at 1e-300.  Returns the scale max(1, max |y|) of the first n entries.

    The first n entries are finite when their min and max are (NaN if any
    entry is), as in ``kernels._finite``; the few past them are tested
    apart."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.divide(y, total, out=y)
    neg, top = float(y[:n].min()), float(y[:n].max())
    if not (math.isfinite(total) and math.isfinite(neg) and math.isfinite(top)
            and np.all(np.isfinite(y[n:]))):
        raise SolverFailure("compensated stationary solve overflowed", reason="non-finite")
    scale = max(1.0, -neg, top)
    if neg < -1e-10 * scale:
        raise SolverFailure(
            f"compensated stationary vector has negative entries (min {neg:.3e})",
            reason="negative-values",
            diagnostics={"min_value": neg},
        )
    np.clip(y, 1e-300, None, out=y)
    return scale


def _balance_residual(rows, band_lo: int, tilt: np.ndarray, y: np.ndarray, n: int) -> float:
    """max |(y P)(i) - y(i)| over the states 1..n - 1 of the window ``rows``
    tilted by ``tilt``; y covers every state the rows reach."""
    balance = band_rmatvec(rows, band_lo, y, factors=tilt)[:n]
    balance = np.abs(np.subtract(balance, y[:n], out=balance), out=balance)
    return float(balance[1:].max())


def _log_pi(y: np.ndarray, beta: float) -> np.ndarray:
    """log pi(i) = log y(i) - beta i on the states of y."""
    log_pi = np.log(y)
    ramp = np.arange(y.size, dtype=float)
    ramp *= beta
    log_pi -= ramp
    return log_pi


def _log_law(y: np.ndarray, beta: float) -> tuple[np.ndarray, float]:
    """``_log_pi`` on the window of y, and |log| of the window's mass (the
    ``normalization_error``)."""
    return _log_pi(y, beta), abs(math.log(_discounted_sum(beta, y)))


def stationary_solve(
    chain,
    K: int,
    beta: float | None = None,
    check_doubling: bool = True,
    doubling_tol: float = 1e-8,
) -> StationaryResult:
    """Stationary law of a downward-drifting chain on the window 0..K.

    ``chain`` is a :class:`ChainFamily` or a stochastic kernel.  ``beta``
    defaults to the Cramér root of the limiting jump law; passing 0 turns
    compensation off (only safe for short windows).

    When the rows from some level h on are a tail row whose walk satisfies
    Cramér's condition (``_homogeneous_levels``) and the rows tilted at the
    root stay finite, the law is exact (method ``matrix-geometric``): it is
    solved at the Cramér root, where the compensated vector is
    matrix-geometric above h, and an explicit ``beta`` only rescales y.
    Otherwise the solve is truncated, with jumps above K reflected onto K,
    and repeated on a doubled window, which needs rows up to 2K: the two
    stationary vectors must agree on 0..K/2 (method ``linear-solve``).
    """
    if K < 1:
        raise StateRangeError(f"window 0..{K} needs K >= 1")
    top = 2 * K if check_doubling else K
    kernel = chain
    if isinstance(chain, ChainFamily):
        # rows from homogeneous_from on are the limit row: one explicit copy
        # is checked, and the kernel's tail broadcasts the rest
        hf = chain.homogeneous_from
        kernel = chain.kernel(top) if hf is None else chain.homogeneous_kernel()
    levels = _homogeneous_levels(kernel, K)
    if levels is not None and levels[2].mean < 0:
        # tilted at the tail walk's own root; a root past cramer_root's
        # overflow-safe bound, or a tilt that overflows on explicit rows
        # wider than the tail row, leaves the chain to the truncated solve
        try:
            root = certified_root(levels[2])
        except NoCramerRootError:
            root = None
        if root is not None:
            with np.errstate(over="ignore"):
                tilt = np.exp(root * kernel.offsets)
            if np.all(np.isfinite(tilt)):
                return _matrix_geometric_stationary(
                    kernel, K, root, root if beta is None else beta, tilt, *levels
                )
    if beta is None:
        walk = _limit_walk_of(chain)
        if walk.mean >= 0:
            raise UnsupportedInputError(
                f"limiting drift {walk.mean:.6g} is not negative; "
                "the chain has no stationary law to solve for"
            )
        beta = certified_root(walk)
    return _truncated_stationary(kernel, K, beta, check_doubling, doubling_tol)


def _matrix_geometric_stationary(kernel: TransitionKernel, K: int, root: float, beta: float,
                                 tilt: np.ndarray, h: int, s: int,
                                 walk: LatticeWalk) -> StationaryResult:
    """The stationary law on 0..K from the rows below s + m, at the Cramér
    root ``root`` of the tail walk (``tilt`` = exp(root x offset) over the
    band), rescaled to the compensation ``beta``; h is the homogeneous level
    and s the state from which y is matrix-geometric
    (``_homogeneous_levels``): no row below h reaches past s + m - 1, so the
    balance equations from s + m on are the tail walk's.

    y(i) = pi(i) exp(root i) solves the balance equations of the tilted
    rows, and on the levels of m states above s, y_(k+1) = y_k R, where
    R = G^T for the first-passage matrix G of the negated tilted walk
    (Neuts 1981; Latouche & Ramaswami 1999).  R has spectral radius 1, so
    nothing underflows.  One banded system holds the balance equations from
    state 0 (pinned, y(0) = 1) up to the level below its top and, as its
    last m equations, the closure; G's powers fill the levels above it up
    to K + band_lo.  The normalisation adds the exact geometric remainder
    exp(-root s) y_0 (I - exp(-root m) R)^-1 d, d(j) = exp(-root j), and the
    balance residual is taken over all of the window.
    """
    bl = kernel.band_lo
    G, g_residual = _tilted_first_passage(walk)
    m = len(G)
    levels, direct = _level_counts(K + bl - s + 1, m)
    n = s + direct * m
    rows = kernel.row_blocks(0, max(K + bl, n - 1))
    y = np.empty(s + levels * m)
    with _tilted_rows(root):
        system = band_closure(row_slice(rows, 0, n), bl, G, transpose=True, factors=tilt)
    y[:n] = _pinned_solve(*system)
    _level_powers(G, y[s:].reshape(levels, m), direct)  # R's powers never underflow: all filled
    remainder = np.linalg.solve(np.eye(m) - math.exp(-root * m) * G, y[s : s + m])
    total = _discounted_sum(root, y[:s]) + math.exp(-root * s) * _discounted_sum(root, remainder)
    y = y[: K + bl + 1]
    scale = _positive(y, total, K + 1)
    residual = _balance_residual(row_slice(rows, 0, K + bl + 1), bl, tilt, y, K + 1) / scale
    log_pi, normalization_error = _log_law(y[: K + 1], root)
    window = y[: K + 1]
    if beta != root:
        with np.errstate(over="ignore", under="ignore"):
            window = np.exp(log_pi + beta * np.arange(K + 1, dtype=float))
        if not (np.all(np.isfinite(window)) and window.min() > 0.0):
            raise SolverFailure(
                f"compensated vector pi(i) exp(beta i) leaves the float range at "
                f"beta = {beta:.6g}",
                reason="non-finite",
            )
    return StationaryResult(
        K=K,
        tilt_beta=float(beta),
        log_pi=log_pi,
        y=window,
        normalization_error=normalization_error,
        reflected_weight=0.0,
        method="matrix-geometric",
        meta={
            "balance_residual": residual,
            "first_passage_residual": g_residual,
            "homogeneous_level": h,
            "level_size": m,
        },
    )


def _truncated_stationary(kernel: TransitionKernel, K: int, beta: float, check_doubling: bool,
                          doubling_tol: float) -> StationaryResult:
    """The stationary law of the chain truncated at K, jumps above K
    reflected onto K, checked on 0..K/2 by the solve at 2K when
    ``check_doubling`` is set."""
    top = 2 * K if check_doubling else K
    windows = (K + 1, 2 * K + 1) if check_doubling else (K + 1,)
    ys, reflected, balance_residual = _compensated_solves(
        kernel.row_blocks(0, top), kernel.band_lo, beta, windows
    )
    log_pi, normalization_error = _log_law(ys[0], beta)
    doubling = None
    if check_doubling:
        half = K // 2
        doubling = float(np.max(np.abs(log_pi[: half + 1] - _log_pi(ys[1][: half + 1], beta))))
        if doubling > doubling_tol:
            raise SolverFailure(
                f"stationary solves at windows {K} and {2 * K} disagree by "
                f"{doubling:.3e} in log probability on the lower half",
                reason="doubling",
                diagnostics={"disagreement": doubling, "K": K},
            )

    return StationaryResult(
        K=K,
        tilt_beta=float(beta),
        log_pi=log_pi,
        y=ys[0],
        normalization_error=normalization_error,
        reflected_weight=reflected,
        doubling_disagreement=doubling,
        meta={"balance_residual": balance_residual},
    )


def birth_death_closed_form(up, down, K: int) -> np.ndarray:
    """Log stationary law of a birth-death chain by detailed balance.

    ``up(i)`` and ``down(i)`` are the one-step up/down probabilities (a
    holding probability may take up the slack).  Mass above K is ignored,
    which for a geometrically decaying chain costs nothing at double
    precision once K is a few thousand.
    """
    upf, downf = _as_state_fn(up), _as_state_fn(down)
    lp = np.zeros(K + 1)
    for i in range(1, K + 1):
        u, d = upf(i - 1), downf(i)
        if not (u > 0 and d > 0):
            raise UnsupportedInputError(
                f"birth-death closed form needs positive rates (state {i})"
            )
        lp[i] = lp[i - 1] + math.log(u) - math.log(d)
    top = lp.max()
    return lp - (top + math.log(np.exp(lp - top).sum()))


def birth_death_rates(family: ChainFamily):
    """(up, down) probability callables read off a band-(1,1) family's rows."""
    if family.band_lo != 1 or family.band_hi != 1:
        raise UnsupportedInputError("needs a nearest-neighbour family")

    def up(i: int) -> float:
        return float(family.row(i)[2])

    def down(i: int) -> float:
        return float(family.row(i)[0])

    return up, down


# ---------------------------------------------------------------------------
# tail extraction and the local decay rate


@dataclass(frozen=True)
class TailFit:
    """Fitted tail constant pi(i) / exp(predicted log tail) over a window.

    ``predicted`` and ``log_constants`` hold, state by state over the window,
    the predicted log tail and log pi minus it.
    """

    constant: float
    variation: float
    window: tuple[int, int]
    passed: bool
    log_constants: np.ndarray
    predicted: np.ndarray


def tail_extract(log_pi: np.ndarray, predict_log, window: tuple[int, int],
                 variation_tol: float = 0.01) -> TailFit:
    """Estimate the tail constant over a state window.

    ``predict_log`` is called once, with the window's states as one integer
    array, and returns the predicted log tail shape (without the constant)
    at each of them, as ``TailModel.predict_log_tail`` does; a callable that
    takes one state at a time needs ``np.vectorize``.  The fit passes when
    the pointwise constants stay within ``variation_tol`` relative deviation
    of their median across the window.
    """
    i0, i1 = window
    if not 0 <= i0 < i1 < len(log_pi):
        raise StateRangeError(f"window {window} outside the solved range")
    states = np.arange(i0, i1 + 1)
    predicted = np.asarray(predict_log(states), dtype=float)
    if predicted.shape != states.shape:
        raise UnsupportedInputError(
            f"predict_log gave shape {predicted.shape} for the {states.size} states of the "
            "window; a callable of one state needs np.vectorize"
        )
    logc = log_pi[i0 : i1 + 1] - predicted
    med = float(np.median(logc))
    variation = float(np.max(np.abs(np.exp(logc - med) - 1.0)))
    return TailFit(
        constant=float(np.exp(med)),
        variation=variation,
        window=(i0, i1),
        passed=variation <= variation_tol,
        log_constants=logc,
        predicted=predicted,
    )


def _conv_trunc(a: np.ndarray, b: np.ndarray, M: int) -> np.ndarray:
    out = np.zeros(M + 1)
    for k in range(min(len(a), M + 1)):
        if a[k] == 0.0:
            continue
        top = M + 1 - k
        out[k:] += a[k] * b[:top]
    return out


def _implicit_series(u: np.ndarray, m, D, M: int) -> np.ndarray:
    """Coefficients (orders 0..M in the perturbation size) of
    a + sum_k m_k u^k / k! + sum_{k,j} D_{k,j} u^k / k! a^j
    where u is itself a series in a with no constant term."""
    F = np.zeros(M + 1)
    if M >= 1:
        F[1] = 1.0
    upow = np.zeros(M + 1)
    upow[0] = 1.0
    for k in range(1, M + 1):
        upow = _conv_trunc(upow, u, M)
        fk = math.factorial(k)
        F += (m[k - 1] / fk) * upow
        for j in range(1, M - k + 1):
            d = D.get((k, j), 0.0)
            if d:
                F[j:] += (d / fk) * upow[: M + 1 - j]
    return F


def cramer_coefficients(m, D, M: int) -> np.ndarray:
    """Coefficients R_1..R_M of the local-root expansion.

    The local decay rate solves an implicit equation whose series form is
    a + sum_k m_k u^k/k! + sum_{k,j} D_{k,j} u^k/k! a^j = 0, with ``a``
    the perturbation size at the current state, m_k the tilted moments of
    the limit law, and D the interaction coefficients.  Substituting
    u = sum R_n a^n and matching order by order gives
    R_n = -(order-n coefficient with R_n zeroed) / m_1.
    """
    if M < 1:
        raise UnsupportedInputError("expansion order must be at least 1")
    m = [float(v) for v in m]
    if len(m) < M:
        raise UnsupportedInputError(f"need tilted moments m_1..m_{M} (got {len(m)})")
    if m[0] == 0.0:
        raise UnsupportedInputError("the first tilted moment must be nonzero")
    u = np.zeros(M + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, M + 1):
            F = _implicit_series(u, m, D, n)
            u[n] = -F[n] / m[0]
        resid = cramer_series_residual(m, D, u[1:])
    if not (np.all(np.isfinite(u)) and math.isfinite(resid)):
        raise SolverFailure(
            "local-root expansion overflowed: a coefficient or its residual is not finite",
            reason="non-finite", diagnostics={"R": u[1:], "back_substitution_residual": resid},
        )
    return u[1:].copy()


def cramer_series_residual(m, D, R) -> float:
    """Max absolute coefficient of the implicit series after substituting R
    back in; near zero when R solves the matching equations."""
    R = np.asarray(R, dtype=float)
    M = R.size
    u = np.concatenate([[0.0], R])
    F = _implicit_series(u, m, D, M)
    return float(np.max(np.abs(F[1:]))) if M >= 1 else 0.0


@dataclass(frozen=True)
class TailModel:
    """State-dependent decay rate beta(x) and the integrated tail predictor.

    ``coefficients[k-1]`` multiplies profile.value(x)**k in beta(x) (the
    interaction scale is already folded in).  ``predict_log_tail`` returns
    the predicted log stationary tail up to an additive constant, at a state
    or at each of an array of states.
    """

    mode: str  # "constant" | "alpha-over-m" | "cramer-series"
    beta_limit: float
    coefficients: tuple
    profile: object | None
    meta: dict = field(default_factory=dict)

    def beta_at(self, x):
        b = np.full_like(np.asarray(x, dtype=float), self.beta_limit)
        for k, r in enumerate(self.coefficients, start=1):
            b = b + r * np.asarray(self.profile.value(x)) ** k
        return b if b.ndim else float(b)

    def predict_log_tail(self, i):
        x = np.asarray(i, dtype=float)
        out = -self.beta_limit * x
        for k, r in enumerate(self.coefficients, start=1):
            out = out - r * self.profile.integral_power(k, x)
        return out if out.ndim else float(out)


def build_beta_fn(
    family: ChainFamily,
    mode: str = "cramer-series",
    order: int = 2,
) -> TailModel:
    """Tail-rate model for a family with a drift perturbation profile.

    ``constant`` ignores the perturbation; ``alpha-over-m`` applies the
    first-order rate correction; ``cramer-series`` carries the expansion to
    the given order.  Closed-form tilted moments and interaction
    coefficients are used when the family provides them; otherwise the
    coefficients are fitted by least squares against exact local roots at
    probe states, and the fit residual is reported in the model metadata
    with ``hypotheses_verified`` set to False.
    """
    if mode not in ("constant", "alpha-over-m", "cramer-series"):
        raise UnsupportedInputError(f"unknown tail-rate mode {mode!r}")
    walk = family.limit_walk
    if walk.mean >= 0:
        raise UnsupportedInputError("tail model needs a negative limiting drift")
    beta = certified_root(walk)
    if mode == "constant":
        return TailModel(mode, beta, (), family.alpha_profile, {"hypotheses_verified": True})
    if family.alpha_profile is None:
        raise UnsupportedInputError(f"family {family.name} has no perturbation profile")
    M = 1 if mode == "alpha-over-m" else int(order)

    data = family.moment_data(beta, M)
    if data is not None:
        m, D, scale = data
        R = cramer_coefficients(m, D, M)
        coeffs = tuple(float(R[k - 1] * scale**k) for k in range(1, M + 1))
        meta = {
            "hypotheses_verified": True,
            "series_residual": cramer_series_residual(m, D, R),
            "moments": tuple(m),
        }
    else:
        coeffs, resid = _fit_root_expansion(family, beta, M)
        meta = {"hypotheses_verified": False, "fit_residual": resid}
    return TailModel(mode, beta, coeffs, family.alpha_profile, meta)


def _fit_root_expansion(family, beta, M):
    """Least-squares fit of beta(x) - beta against powers of the profile,
    using exact local Cramér roots at about 40 states spread geometrically
    over 1..4000."""
    states = np.unique(np.geomspace(1, 4000, 40).astype(int))
    rows = []
    rhs = []
    for x, r in zip(states, family.row_rule(states)):
        local = LatticeWalk(lo=-family.band_lo, pmf=r / r.sum())
        if local.mean >= 0:
            continue
        bx = cramer_root(local)
        a = float(family.alpha_profile.value(int(x)))
        rows.append([a**k for k in range(1, M + 1)])
        rhs.append(bx - beta)
    if len(rows) < M:
        raise UnsupportedInputError("not enough usable probe states to fit the expansion")
    A = np.array(rows)
    b = np.array(rhs)
    sol, res, *_ = np.linalg.lstsq(A, b, rcond=None)
    fitted = A @ sol
    resid = float(np.max(np.abs(fitted - b)))
    return tuple(float(c) for c in sol), resid


# ---------------------------------------------------------------------------
# regeneration over a low set, conditioning, renewal measures


def entry_measure(kernel: TransitionKernel, log_pi: np.ndarray, level: int) -> dict[int, float]:
    """One-step entry flow e(i) = sum_{j <= level} pi(j) P(j, i), i > level."""
    if not 0 <= level < len(log_pi):
        raise StateRangeError(f"level {level} outside the solved range [0, {len(log_pi) - 1}]")
    bh = kernel.band_hi
    block = np.vstack([kernel.rows(0, level), np.zeros((bh, kernel.band_lo + bh + 1))])
    mu = np.concatenate([np.exp(log_pi[: level + 1]), np.zeros(bh)])
    flow = band_rmatvec(block, kernel.band_lo, mu)[level + 1 :]
    return {level + 1 + int(k): float(flow[k]) for k in np.flatnonzero(flow)}


_DOOB_EXPLICIT_ROWS = 64  # rows above the level materialised before the tail rule


def doob_transform(
    kernel: StochasticKernel,
    h,
    level: int,
    residual_tol: float | None = 1e-8,
) -> TransitionKernel:
    """Change of measure by a positive function on the states above a level.

    Row i > level becomes P(i, j) h(j) / h(i) restricted to j > level.  For
    h harmonic on the killed chain the result is stochastic up to the
    numerical quality of h; the worst row defect is checked against
    ``residual_tol`` (pass None to skip, e.g. when h is only asymptotically
    harmonic) and recorded in the kernel metadata.  Rows are never
    renormalised.
    """
    hf = _as_state_fn(h)
    bl, bh = kernel.band_lo, kernel.band_hi
    lo = level + 1

    def hat_rows(states: np.ndarray) -> np.ndarray:
        a, b = int(states[0]), int(states[-1])
        # h once per state a - band_lo .. b + band_hi, zero at and below the level
        hv = np.zeros(b - a + bl + bh + 1)
        first = max(lo, a - bl)
        hv[first - a + bl :] = [hf(j) for j in range(first, b + bh + 1)]
        h_rows = hv[bl : b - a + bl + 1]
        bad = np.flatnonzero(~(h_rows > 0))
        if bad.size:
            raise UnsupportedInputError(
                f"h({a + bad[0]}) = {float(h_rows[bad[0]])!r} is not positive")
        targets = hv[np.arange(b - a + 1)[:, None] + np.arange(bl + bh + 1)]
        return kernel.rows(a, b) * targets / h_rows[:, None]

    top = max(kernel.truncation, lo + _DOOB_EXPLICIT_ROWS)
    weights = hat_rows(np.arange(lo, top + 1))
    defect = float(np.max(np.abs(row_sums(weights) - 1.0)))
    if residual_tol is not None and defect > residual_tol:
        raise InternalConsistencyError(
            f"transformed rows are off stochastic by {defect:.3e} "
            f"(tol {residual_tol:.1e}); h is not harmonic enough for the killed chain"
        )
    tail = ParametricTail(hat_rows, declared_delta_abs_bound=math.inf)
    return TransitionKernel(
        band_lo=bl,
        band_hi=bh,
        weights=weights,
        state_lo=lo,
        tail=tail,
        meta={"transform_level": level, "max_row_defect": defect},
    )


def _climb_transform(rows: np.ndarray, offsets: np.ndarray, lo: int):
    """b -> sup_i E exp(b * step from row i), with missing row mass sent to
    the cemetery level ``lo - 1`` (which only lowers the transform)."""
    x = np.arange(rows.shape[0]) + lo
    defects = np.clip(1.0 - row_sums(rows), 0.0, None)
    return lambda b: float((rows @ np.exp(b * offsets) + defects * np.exp(b * (lo - 1 - x))).max())


def _climb_exponent(transform) -> float:
    """Largest b in [2^-10, 2] with ``transform(b) <= 1``, or 0.0 if none.

    The transform is convex in b, so its sublevel set is an interval: halve b
    from 2 to the first feasible value, then bisect up to twice that.  Below
    2^-10 the certified window would run to ~10^5 states, and rounding lets
    the flat walk's cosh(b) pass.
    """
    good = 2.0
    while not transform(good) <= 1.0 + 1e-12:
        if good <= 2.0**-10:
            return 0.0
        good /= 2
    if good == 2.0:
        return good
    bad = 2 * good
    for _ in range(10):
        mid = 0.5 * (good + bad)
        good, bad = (mid, bad) if transform(mid) <= 1.0 + 1e-12 else (good, mid)
    return good


def renewal_measure(
    kernel: TransitionKernel,
    start: dict[int, float],
    K_range: int,
    tol: float = 1e-10,
) -> tuple[np.ndarray, dict]:
    """U(i) = sum_n (start . kernel^n)(i) on state_lo..K_range, certified.

    U is solved on a window reaching above ``K_range`` as one banded system
    U (I - P_win) = start (Asmussen, *Applied Probability and Queues*,
    ch. VIII); the only error is mass that leaves the window upward, charged
    once as (U . leaving) times a bound on what a particle above the window
    can still add to the output range.  Two certificates supply that bound.
    When the jump minorant has positive mean, a particle at x adds at most
    exp(-r (x - K_range)) / p_escape expected future visits to any in-range
    state (escape upward).  Otherwise all cemetery-adjusted row means must be
    <= -eps < 0, and the supermartingale x + eps n caps the expected
    remaining lifetime by (x - lo + 1) / eps (absorption), with the window
    sized through a row-wise verified climb exponent so that mass leaving it
    is negligible.  Raises ``SolverFailure`` when the charge exceeds ``tol``.
    Returns the measure and a diagnostics dict.
    """
    lo = kernel.state_lo
    if K_range < lo:
        raise StateRangeError(f"renewal range ends at {K_range}, below the first state {lo}")
    bl = kernel.band_lo
    minor = jump_minorant(kernel)
    p_esc = escape_probability(minor)
    supercritical = p_esc > 0.0

    if supercritical:
        rexp = ruin_exponent(minor)
        margin = 1 if rexp == math.inf else int(math.ceil(math.log(1.0 / tol) / rexp)) + 1
    else:
        rexp = math.inf
        margin = None  # fixed after the climb exponent is known

    offsets = kernel.offsets.astype(float)

    if supercritical:
        top = K_range + margin + kernel.band_hi
        rows = kernel.rows(lo, top)
        climb = None
        eps = None
    else:
        # pick the climb exponent from a provisional window, then put the top
        # high enough that mass ever reaching it is far below the target
        # accuracy even after multiplying by a lifetime bound
        probe_top = K_range + 8 * kernel.band_hi + 8
        climb = _climb_exponent(_climb_transform(kernel.rows(lo, probe_top), offsets, lo))
        if climb <= 0.0:
            raise UnsupportedInputError(
                "kernel admits neither a positive-drift minorant nor a "
                "verified exponential climb bound; the renewal measure "
                "cannot be certified"
            )
        margin = int(math.ceil((math.log(1.0 / tol) + math.log(1e12)) / climb)) + 1
        top = K_range + margin + kernel.band_hi
        rows = kernel.rows(lo, top)
        if _climb_transform(rows, offsets, lo)(climb) > 1.0 + 1e-12:
            raise InternalConsistencyError(
                "climb exponent degraded when the window was widened"
            )
        x_all = np.arange(rows.shape[0]) + lo
        defects = np.clip(1.0 - row_sums(rows), 0.0, None)
        means = rows @ offsets + defects * (lo - 1 - x_all)
        eps = -float(means.max())
        if eps <= 0.0:
            raise UnsupportedInputError(
                "some cemetery-adjusted row mean is nonnegative; the lifetime "
                "bound needed to certify the renewal measure does not hold"
            )

    n_win = top - lo + 1
    mu = np.zeros(n_win)
    for s, wt in start.items():
        if not lo <= s <= top:
            raise StateRangeError(f"start state {s} outside the window [{lo}, {top}]")
        mu[s - lo] += float(wt)
    U = band_solve(*band_system(rows, bl, transpose=True), mu)
    # the weight each window row sends above the window, and what one unit of
    # it can still add to the output range
    pad = np.concatenate([np.zeros(bl + n_win), np.ones(kernel.band_hi)])
    leaving = band_matvec(rows, bl, pad)
    if supercritical:
        far_factor = 0.0 if rexp == math.inf else math.exp(-rexp * (top + 1 - K_range)) / p_esc
    else:
        far_factor = (top + kernel.band_hi - lo + 1) / eps
    dropped_bound = float(U @ leaving) * far_factor
    if not dropped_bound <= tol:
        raise SolverFailure(
            f"mass leaving the renewal window adds up to {dropped_bound:.3e} > tol {tol:.1e}",
            reason="window", diagnostics={"error_bound": dropped_bound, "window_top": top},
        )
    return U[: K_range - lo + 1].copy(), {
        "iterations": 0,
        "error_bound": dropped_bound,
        "window_top": top,
        "state_lo": lo,
        "certificate": "escape" if supercritical else "absorption",
    }
