"""Harmonic construction: closed form, linear solve, conditions, Monte Carlo."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import harmonictails as ht
from conftest import (
    collapsed_chain as collapsed,
    parametric_family_twin,
    parametric_twin,
    reference_band_matvec,
    reference_band_system,
    seeded_drift_kernels,
)
from harmonictails.harmonic import _truncated_solve
from harmonictails.kernels import row_slice
from harmonictails.ladder import _EXACT_WORK_RATIO, _level_powers

RATIO = 3.0 / 7.0  # q/p for the default up probability 0.7


def exact_f(i, alpha=2.0):
    f0 = alpha * (1 - RATIO) / (1 - alpha * RATIO)
    return 1.0 - RATIO**i + RATIO**i * f0


# ---------------------------------------------------------------------------
# closed form


def test_closed_form_values():
    assert ht.reflected_walk_harmonic_exact(2.0, 0.7, 0) == pytest.approx(8.0, abs=1e-14)
    assert ht.reflected_walk_harmonic_exact(2.0, 0.7, 1) == pytest.approx(4.0, abs=1e-14)
    for i in range(21):
        got = ht.reflected_walk_harmonic_exact(2.0, 0.7, i)
        assert got == pytest.approx(1.0 + 7.0 * RATIO**i, abs=1e-13)
    arr = ht.reflected_walk_harmonic_exact(2.0, 0.7, np.arange(5))
    assert isinstance(arr, np.ndarray)
    np.testing.assert_allclose(arr, [exact_f(i) for i in range(5)], rtol=1e-14)


def test_closed_form_critical_and_beyond():
    crit = 0.7 / 0.3
    vals = ht.reflected_walk_harmonic_exact(crit, 0.7, np.arange(6))
    np.testing.assert_allclose(vals, RATIO ** np.arange(6), rtol=1e-12)
    with pytest.raises(ht.NoPositiveHarmonicError):
        ht.reflected_walk_harmonic_exact(3.0, 0.7, 0)
    with pytest.raises(ht.UnsupportedInputError):
        ht.reflected_walk_harmonic_exact(2.0, 0.4, 0)
    with pytest.raises(ht.UnsupportedInputError):
        ht.reflected_walk_harmonic_exact(-1.0, 0.7, 0)


# the builders refuse NaN themselves, before any kernel() reads a row
@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0])
def test_perturbed_reflected_walk_refuses_nan(alpha):
    with pytest.raises(ht.UnsupportedInputError, match="alpha must be positive"):
        ht.perturbed_reflected_walk(p=0.7, alpha=alpha)


@pytest.mark.parametrize("alphas", [[1.2, math.nan], [math.inf], [1.0, -1.0]])
def test_multi_perturbed_walk_refuses_nan(alphas):
    with pytest.raises(ht.UnsupportedInputError, match="row weights must be positive"):
        ht.multi_perturbed_walk(alphas, p=0.7)


# ---------------------------------------------------------------------------
# linear solve


def test_solve_matches_closed_form(ex1_kernel):
    # the rows from state 1 on are the limit row: the exact path at every K
    exact = [ht.build_solve(ex1_kernel, K=K) for K in (20, 400, 2000)]
    for est in exact:
        assert est.method == "matrix-geometric"
        assert est.residual is not None and est.residual <= 1e-9
        assert est.meta["first_passage_residual"] <= 1e-12
        assert (est.meta["homogeneous_level"], est.meta["level_size"]) == (1, 1)
        assert "doubling_disagreement" not in est.meta
    # the same rows as a parametric tail: the truncated solve, with its doubling check
    trunc = ht.build_solve(parametric_twin(ex1_kernel), K=400)
    assert trunc.method == "linear-solve"
    assert trunc.residual is not None and trunc.residual <= 1e-9
    assert trunc.meta["doubling_disagreement"] is not None
    assert trunc.meta["doubling_disagreement"] <= 1e-6
    for e in (*exact, trunc):
        for i in range(21):
            assert e.value(i) == pytest.approx(exact_f(i), abs=1e-8)
        # pinned boundary extends the function above the truncation
        assert e.value(10000) == 1.0
    with pytest.raises(ht.StateRangeError):
        ht.build_solve(ex1_kernel, K=400, check_doubling=True).value(-1)


def test_solve_values_keep_the_dict_behaviour(ex1_kernel):
    from harmonictails.harmonic import StateArray

    est = ht.build_solve(ex1_kernel, K=400)
    f = est.array(0, 400)
    as_dict = dict(zip(range(401), f.tolist()))
    assert est.values == as_dict and len(est.values) == 401
    assert list(est.values) == est.states() == list(range(401))
    for i in (0, 7, 400):
        assert est.values[np.int64(i)] == est.value(np.int64(i)) == as_dict[i]
        assert type(est.values[i]) is float
    assert np.int64(5) in est.values and 401 not in est.values and -1 not in est.values
    assert "3" not in est.values and 2.5 not in est.values
    assert est.value(401) == est.value(10**9) == 1.0  # the boundary value above K
    with pytest.raises(ht.StateRangeError):
        est.value(-1)
    with pytest.raises(ValueError):
        est.values.array[0] = 2.0  # read-only
    with pytest.raises(TypeError):
        est.values[0] = 2.0
    for bad in (np.nan, -1e-3, np.inf):
        vals = StateArray(3, np.array([1.0, 0.5, bad]))
        with pytest.raises(ht.UnsupportedInputError, match="state 5"):
            ht.HarmonicEstimate(values=vals, method="linear-solve", truncation=5)


def _per_state(est, lo, hi):
    """``est.array(lo, hi)`` as it was: one ``value`` call per state."""
    return np.array([est.value(i) for i in range(lo, hi + 1)])


def _same_outcome(f, g):
    """f() and g() return the same bytes, or raise the same error."""
    try:
        expect = g()
    except ht.StateRangeError as exc:
        with pytest.raises(ht.StateRangeError) as got:
            f()
        assert str(got.value) == str(exc)
        return
    out = f()
    assert out.dtype == expect.dtype and out.tobytes() == expect.tobytes()


def test_estimate_array_matches_the_per_state_loop(ex1_kernel):
    solved = ht.build_solve(ex1_kernel, K=400)
    killed = ht.build_solve(ht.perturbed_reflected_walk(p=0.7, alpha=2.0).kernel(8).embed().kill(range(6)),
                            K=60)  # state_lo 6
    mc = ht.build_mc(ex1_kernel, states=[0, 1, 2, 5], n_paths=50, horizon=10_000, seed=3)
    windows = [(0, 400), (0, 0), (17, 230), (390, 420), (400, 401), (401, 450), (3, 2),
               (-1, 5), (-3, -1), (5, 70), (6, 60), (55, 61), (61, 64), (0, 5), (2, 5), (5, 5)]
    for est in (solved, killed, mc):
        for lo, hi in windows:
            _same_outcome(lambda: est.array(lo, hi), lambda: _per_state(est, lo, hi))
    without_boundary = ht.HarmonicEstimate(values=solved.values, method="linear-solve",
                                           truncation=400)
    for lo, hi in [(0, 400), (399, 401), (450, 460)]:
        _same_outcome(lambda: without_boundary.array(lo, hi),
                      lambda: _per_state(without_boundary, lo, hi))


def _reference_build_solve(kernel, K, check_doubling):
    """The earlier assembly: the whole row block, its row sums, and one band
    system per window; (f, doubling disagreement, residual)."""
    from harmonictails.kernels import band_solve

    lo, bl = kernel.state_lo, kernel.band_lo
    doubled = check_doubling and kernel.has_row(2 * K)
    block = kernel.rows(lo, 2 * K if doubled else K)
    mass = block.sum(axis=1)
    n = K - lo + 1

    def solve(rows, m):
        return np.clip(1.0 - band_solve(*reference_band_system(rows, bl), 1.0 - m), 0.0, None)

    f = solve(block[:n], mass[:n])
    disagreement = None
    if doubled:
        a, b = f[: K // 2 - lo + 1], solve(block, mass)[: K // 2 - lo + 1]
        disagreement = float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))))
    v = np.concatenate([np.zeros(bl), f, np.ones(kernel.band_hi)])
    pf = reference_band_matvec(block[:n], v)
    return f, disagreement, float(np.max(np.abs(pf - f) / np.maximum(1.0, f)))


def test_build_solve_matches_reference_assembly():
    cases = 0
    for kernel in seeded_drift_kernels(np.random.default_rng(41)):
        lo, W = kernel.state_lo, kernel.band_lo + kernel.band_hi + 1
        # n >= W; at K = 2100 the 2K window is long enough for row blocks
        for K in (2 * lo + W, kernel.truncation, kernel.truncation + 1, 150, 2100):
            for check_doubling in (True, False):
                est = _truncated_solve(kernel, K, 1e-10, check_doubling, 1.0)
                f, disagreement, residual = _reference_build_solve(kernel, K, check_doubling)
                assert est.values.array.tobytes() == f.tobytes(), (kernel.band_lo, lo, K)
                assert est.residual == residual
                assert est.meta.get("doubling_disagreement") == disagreement
                cases += 1
    assert cases == 40 * 5 * 2


def test_doubling_below_twice_state_lo():
    # states 0..5 killed: state_lo is 6, and at K < 12 the lower half K // 2
    # lies below it; the two solves are compared at state_lo
    killed = ht.perturbed_reflected_walk(p=0.7, alpha=2.0).kernel(8).embed().kill(range(6))
    assert killed.state_lo == 6
    for K in (6, 7, 8, 10, 11):
        est = _truncated_solve(killed, K, 1e-10, True, 1.0)
        wide = _truncated_solve(killed, 2 * K, 1e-10, False, 1e-6)
        a, b = est.value(6), wide.value(6)
        assert est.meta["doubling_disagreement"] == abs(a - b) / max(1.0, abs(a))
    est = ht.build_solve(killed, 40)
    assert est.value(6) == pytest.approx(1.0 - (3.0 / 7.0), abs=1e-12)


# ---------------------------------------------------------------------------
# the exact (matrix-geometric) solve and the cases left to the truncated one


def test_exact_solve_matches_truncated_solve():
    # the seeded kernels with a homogeneous tail that steps down (band widths
    # 3 to 11; state_lo 0 and 5; three boundary rows off mass one), the
    # example-1 walk killed on 0..5 (state_lo 6) and a killed walk with steps
    # -3..2: the truncated solve at K = 3000 has converged to about 1e-11 on
    # 0..K/2 (its doubling check), so the two agree there to 1e-10 relative
    K = 3000
    kernels = [k for k in seeded_drift_kernels(np.random.default_rng(41))
               if isinstance(k.tail, ht.HomogeneousTail) and k.band_lo]
    kernels.append(ht.perturbed_reflected_walk(p=0.7, alpha=2.0).kernel(8).embed().kill(range(6)))
    walk = ht.LatticeWalk.from_dict({-3: 0.2, -1: 0.1, 0: 0.1, 2: 0.6})
    kernels.append(ht.walk_killed_at_negative(walk).kernel(3))
    for kernel in kernels:
        est = ht.build_solve(kernel, K)
        ref = _truncated_solve(kernel, K, 1e-10, True, 1e-6)
        assert est.method == "matrix-geometric" and est.meta["first_passage_residual"] <= 1e-12
        assert est.residual <= 1e-12 and est.value(K + 1) == 1.0
        half = K // 2 - kernel.state_lo + 1
        a, b = est.values.array[:half], ref.values.array[:half]
        assert np.max(np.abs(a - b) / np.maximum(1.0, b)) <= 1e-10, (kernel.band_lo, kernel.band_hi)
    assert len(kernels) == 20


def test_exact_solve_needs_a_long_window():
    # the window must hold the two levels of m states above h that the
    # closure couples, and the cyclic reduction on levels of m states must
    # cost less than the truncated solves: otherwise the truncated solve runs
    for kernel, h, m in [
        (ht.perturbed_reflected_walk(p=0.7, alpha=2.0).kernel(8), 1, 1),
        (ht.multi_perturbed_walk((1.2, 1.5), p=0.7).kernel(10), 3, 1),
        (ht.walk_killed_at_negative(ht.LatticeWalk.from_dict({-3: 0.2, 2: 0.8})).kernel(3), 3, 3),
    ]:
        top = h + 2 * m - 1
        assert ht.build_solve(kernel, top - 1, check_doubling=False).method == "linear-solve"
        est = ht.build_solve(kernel, top)
        assert est.method == "matrix-geometric"
        assert (est.meta["homogeneous_level"], est.meta["level_size"]) == (h, m)
    # m = 200 on a band of width 202: m^3 = 8e6 against 8 K x 202
    walk = ht.LatticeWalk.from_dict({-1: 0.3, 1: 0.3, 200: 0.4})
    kernel = ht.walk_killed_at_negative(walk).kernel(3)
    K = -(-200**3 // (_EXACT_WORK_RATIO * 202))
    assert ht.build_solve(kernel, K - 1, check_doubling=False).method == "linear-solve"
    assert ht.build_solve(kernel, K, check_doubling=False).method == "matrix-geometric"


def test_truncated_solve_cases():
    # a limit walk on 2Z, a parametric tail and a limit walk that drifts down,
    # past one direct solve
    limit = np.array([0.3, 0.0, 0.0, 0.0, 0.7])
    gcd2 = ht.TransitionKernel(band_lo=2, band_hi=2, weights=np.array([[0, 0, 0, 0, 1.0]] * 2),
                               tail=ht.HomogeneousTail(limit))
    parametric = next(k for k in seeded_drift_kernels(np.random.default_rng(41))
                      if isinstance(k.tail, ht.ParametricTail) and k.band_lo)
    for kernel in (gcd2, parametric, recurrent_rows_chain()):
        est = ht.build_solve(kernel, 2000)
        assert est.method == "linear-solve" and est.meta["doubling_disagreement"] <= 1e-6


def test_exact_solve_of_a_kernel_with_rows_up_to_K():
    # the homogeneous level comes from the rows themselves: explicit rows up
    # to K that equal the limit row give the solve of the short kernel
    fam = ht.perturbed_reflected_walk(p=0.7, alpha=2.0)
    for K in (2000, 5000):
        long, short = ht.build_solve(fam.kernel(K), K), ht.build_solve(fam.kernel(8), K)
        assert long.method == "matrix-geometric" and long.meta["homogeneous_level"] == 1
        assert long.values.array.tobytes() == short.values.array.tobytes()
        assert long.residual == short.residual


def test_truncated_solve_without_doubled_rows_is_refused():
    # explicit rows up to 100 and no tail: the doubling check at K = 100
    # needs rows up to 200, so the solve refuses rather than return an
    # unchecked result; without the check it solves, and at K = 50 the rows
    # hold the doubled window
    rows = {0: {1: 2.0}, **{i: {-1: 0.3, 1: 0.7} for i in range(1, 101)}}
    kernel = ht.kernel_from_rows(rows, 100, 1, 1)
    with pytest.raises(ht.StateRangeError, match=r"200.*check_doubling=False"):
        ht.build_solve(kernel, 100)
    unchecked = ht.build_solve(kernel, 100, check_doubling=False)
    assert unchecked.method == "linear-solve" and "doubling_disagreement" not in unchecked.meta
    checked = ht.build_solve(kernel, 50)
    assert checked.meta["doubling_disagreement"] is not None
    assert checked.value(0) == pytest.approx(unchecked.value(0), rel=1e-6)


def test_solve_trichotomy():
    # the exact solve at K = 300 and 2000, and the truncated one on the
    # parametric twin at K = 300
    for K, twin in ((300, False), (2000, False), (300, True)):
        def kernel(alpha):
            k = ht.perturbed_reflected_walk(p=0.7, alpha=alpha).kernel(8)
            return parametric_twin(k) if twin else k

        ok = ht.build_solve(kernel(2.0), K=K)
        assert ok.value(0) == pytest.approx(8.0, abs=1e-8)
        assert ok.method == ("linear-solve" if twin else "matrix-geometric")

        with pytest.raises(ht.SolverFailure) as exc:
            ht.build_solve(kernel(7.0 / 3.0), K=K)
        assert exc.value.reason in ("negative-values", "doubling", "non-finite")

        with pytest.raises(ht.SolverFailure) as exc:
            ht.build_solve(kernel(3.0), K=K)
        assert exc.value.reason in ("negative-values", "doubling", "non-finite")


def test_solve_limit_contract(ex1_kernel):
    est = ht.build_solve(ex1_kernel, K=400)
    top_quarter = range(300, 401)
    assert max(abs(est.value(i) - 1.0) for i in top_quarter) <= 1e-3


def test_multi_perturbed_solve():
    fam = ht.multi_perturbed_walk((1.2, 1.5), p=0.7)
    est = ht.build_solve(fam.kernel(10), K=400)
    # product 1.8 below the critical 7/3: f(0) = A (1 - q/p) / (1 - A q/p)
    assert est.value(0) == pytest.approx(4.5, abs=1e-8)
    # the first rows are single weighted jumps, so f steps down by the weights
    assert est.value(1) == pytest.approx(4.5 / 1.2, abs=1e-8)
    assert est.value(2) == pytest.approx(4.5 / 1.2 / 1.5, abs=1e-8)
    assert abs(est.value(350) - 1.0) <= 1e-6

    strong = ht.multi_perturbed_walk((1.4, 1.5), p=0.7)  # product 2.1, still below
    est2 = ht.build_solve(strong.kernel(10), K=400)
    assert est2.value(0) == pytest.approx(2.1 * (1 - RATIO) / (1 - 2.1 * RATIO), abs=1e-7)

    with pytest.raises(ht.SolverFailure):
        ht.build_solve(ht.multi_perturbed_walk((1.6, 1.6), p=0.7).kernel(10), K=300)


def test_verify_harmonicity_of_exact_form(ex1_kernel):
    f = {i: exact_f(i) for i in range(80)}
    assert ht.verify_harmonicity(ex1_kernel, f, range(70)) <= 1e-12


# ---------------------------------------------------------------------------
# jump-law envelopes and return probabilities


def test_jump_minorant_and_majorant(ex1_kernel):
    minor = ht.jump_minorant(ex1_kernel)
    assert minor.lo == -1
    np.testing.assert_allclose(minor.pmf, [0.3, 0.0, 0.7], atol=1e-15)
    assert minor.mean == pytest.approx(0.4, abs=1e-14)
    assert ht.escape_probability(minor) == pytest.approx(0.4, abs=1e-12)

    tails, mean = ht.jump_down_majorant(ex1_kernel)
    np.testing.assert_allclose(tails, [0.3], atol=1e-15)
    assert mean == pytest.approx(0.3, abs=1e-14)


def _jump_down_majorant_loop(rows, L):
    """Z[j] = max over the rows of P{jump <= -j}, one prefix sum per depth j:
    the loop that the cumulative sum replaced, kept as its reference."""
    Z = np.zeros(L + 1)
    for j in range(1, L + 1):
        Z[j] = rows[:, : L - j + 1].sum(axis=1).max() if L - j + 1 > 0 else 0.0
    return Z[1:]


def _truncated_drift_loop(rows, offsets, band_hi):
    """The largest drift truncated at M = 0..band_hi, minimised over the rows,
    and its M: the loop that the cumulative sum replaced."""
    offsets = offsets.astype(float)
    drift_eps, drift_M = -math.inf, 0
    for M in range(0, band_hi + 1):
        mask = offsets <= M
        eps = float((rows[:, mask] * offsets[mask]).sum(axis=1).min())
        if eps > drift_eps:
            drift_eps, drift_M = eps, M
    return drift_eps, drift_M


def _wide_killed_kernels(rng):
    """Killed walks with L >= 8 down steps and a few up steps."""
    for L in (8, 12, 30):
        for H in (1, 3):
            pmf = rng.dirichlet(np.ones(L + H + 1))
            yield ht.walk_killed_at_negative(ht.LatticeWalk(lo=-L, pmf=pmf)).kernel(2 * L)


def test_envelopes_match_the_loops():
    from harmonictails.harmonic import _collect_rows

    rng = np.random.default_rng(15)
    kernels = [*seeded_drift_kernels(rng), *_wide_killed_kernels(rng)]
    assert max(k.band_lo for k in kernels) == 30
    for kernel in kernels:
        rows, L = _collect_rows(kernel), kernel.band_lo
        tails, mean = ht.jump_down_majorant(kernel)
        want = _jump_down_majorant_loop(rows, L)
        rep = ht.check_conditions(kernel)
        eps, M = _truncated_drift_loop(rows, kernel.offsets, kernel.band_hi)
        # numpy sums 8 or more terms pairwise, the cumulative sum in order
        if L < 8:
            assert np.array_equal(tails, want)
        else:
            assert np.max(np.abs(tails - want)) <= 1e-15
        assert mean == pytest.approx(want.sum(), abs=1e-15)
        if kernel.band_lo + kernel.band_hi < 7:
            assert (rep.drift_eps, rep.drift_M) == (eps, M)
        else:
            assert rep.drift_eps == pytest.approx(eps, abs=1e-15 * L)
            assert rep.drift_M == M


def test_escape_probability_no_drift():
    flat = ht.LatticeWalk(lo=-1, pmf=np.array([0.5, 0.0, 0.5]))
    assert ht.escape_probability(flat) == 0.0


def test_return_probability_oracles(ex1_kernel):
    P = ex1_kernel.embed()
    lo0, hi0 = ht.return_probability_bounds(P, 0, tol=1e-10)
    assert lo0 <= hi0
    assert hi0 - lo0 <= 1e-10
    assert lo0 == pytest.approx(3.0 / 7.0, abs=1e-9)
    assert hi0 == pytest.approx(3.0 / 7.0, abs=1e-9)

    lo1, hi1 = ht.return_probability_bounds(P, 1, tol=1e-10)
    assert hi1 == pytest.approx(0.6, abs=1e-9)


def test_return_probability_below_the_first_state_is_refused():
    P = ht.kernel_from_rows({i: {-1: 0.3, 1: 0.7} for i in range(5, 9)}, 8, 1, 1, state_lo=5,
                            tail=ht.HomogeneousTail(np.array([0.3, 0.0, 0.7])), stochastic=True)
    assert ht.return_probability_bounds(P, 5)[1] < 1.0
    for j in (4, 2, -1):
        with pytest.raises(ht.StateRangeError, match=f"^state {j} is below"):
            ht.return_probability_bounds(P, j)


def test_return_probability_without_certificate(down_walk):
    killed = ht.walk_killed_at_negative(down_walk)
    P = killed.kernel(40).embed()
    assert ht.return_probability_bounds(P, 0) == (0.0, 1.0)


# ---------------------------------------------------------------------------
# sufficient conditions


def test_check_conditions_example1(ex1_kernel, ex1_family):
    rep = ht.check_conditions(ex1_kernel, family=ex1_family)
    assert rep.sum_abs_delta == pytest.approx(math.log(2.0), abs=1e-12)
    assert rep.delta_plus_sum == pytest.approx(math.log(2.0), abs=1e-12)
    np.testing.assert_allclose(rep.minorant.pmf, [0.3, 0.0, 0.7], atol=1e-15)
    assert rep.minorant_mean == pytest.approx(0.4, abs=1e-14)
    assert rep.escape_prob_lower == pytest.approx(0.4, abs=1e-12)
    assert rep.gamma_available == pytest.approx(math.log(5.0 / 3.0), abs=1e-12)
    assert rep.drift_eps == pytest.approx(0.4, abs=1e-14)
    assert rep.drift_M == 1
    assert rep.zeta_mean == pytest.approx(0.3, abs=1e-14)

    assert set(rep.return_prob_bounds) == {0}
    lo, hi = rep.return_prob_bounds[0]
    assert lo == pytest.approx(3.0 / 7.0, abs=1e-7)
    assert hi == pytest.approx(3.0 / 7.0, abs=1e-7)

    ((state, gamma), bound) = next(iter(rep.local_time_moment_bound.items()))
    assert state == 0
    assert gamma == pytest.approx(math.log(2.0))
    # geometric local time: E 2^{ell(0)} = 2 (1 - r) / (1 - 2 r) = 8 at r = 3/7
    assert bound == pytest.approx(8.0, abs=1e-6)

    assert rep.prop_2_5_holds
    assert rep.prop_2_7_holds
    assert rep.thm_2_4_applicable
    assert rep.notes == ()


def test_check_conditions_supercritical():
    fam = ht.perturbed_reflected_walk(p=0.7, alpha=3.0)
    rep = ht.check_conditions(fam.kernel(8), family=fam)
    # the walk structure is unchanged, but e^{delta+} r_0 = 3 * 3/7 > 1
    assert rep.prop_2_5_holds
    assert rep.prop_2_7_holds
    assert not rep.thm_2_4_applicable
    ((state, gamma), bound) = next(iter(rep.local_time_moment_bound.items()))
    assert state == 0
    assert gamma == pytest.approx(math.log(3.0))
    assert bound == math.inf


def test_check_conditions_negative_drift(down_walk):
    fam = ht.walk_killed_at_negative(down_walk)
    rep = ht.check_conditions(fam.kernel(40), family=fam)
    assert rep.minorant_mean == pytest.approx(-0.4, abs=1e-14)
    assert not rep.prop_2_5_holds
    assert not rep.prop_2_7_holds
    assert not rep.thm_2_4_applicable
    assert rep.return_prob_bounds == {}
    assert rep.escape_prob_lower == 0.0


def test_verdicts_direct():
    assert ht.minorant_verdict(0.4)
    assert not ht.minorant_verdict(0.0)
    assert not ht.minorant_verdict(-0.1)
    assert ht.drift_verdict(0.4, 0.3)
    assert not ht.drift_verdict(0.0, 0.3)
    assert not ht.drift_verdict(0.4, math.inf)
    assert not ht.limit_theorem_verdict(math.inf, 0.4, 0.1, [0.1])
    assert not ht.limit_theorem_verdict(1.0, 0.0, 0.1, [0.1])


@given(
    delta_plus=st.floats(0.0, 2.0),
    mean=st.floats(-1.0, 1.0),
    uppers=st.lists(st.floats(0.0, 1.0), max_size=6),
    shrink=st.floats(0.0, 1.0),
)
def test_limit_verdict_monotone_in_bounds(delta_plus, mean, uppers, shrink):
    base = ht.limit_theorem_verdict(delta_plus, mean, delta_plus, uppers)
    tighter = ht.limit_theorem_verdict(
        delta_plus, mean, delta_plus, [u * shrink for u in uppers]
    )
    # sharpening the return-probability uppers can only help
    assert tighter or not base


# ---------------------------------------------------------------------------
# Monte Carlo


def test_build_solve_and_mc_certify_G_once_per_kernel(monkeypatch):
    from harmonictails import ladder

    passages = []
    first_passage = ladder._first_passage
    monkeypatch.setattr(ladder, "_first_passage", lambda w: passages.append(w) or first_passage(w))

    def fresh():
        return ht.perturbed_reflected_walk(p=0.7, alpha=1.2).kernel(8)

    kernel = fresh()
    solve = ht.build_solve(kernel, 2000)
    assert solve.method == "matrix-geometric" and len(passages) == 1
    assert ht.build_solve(kernel, 3000).method == "matrix-geometric" and len(passages) == 1
    # the tail row has mass 1 exactly, so the embedded chain's tail walk is
    # the kernel's, with its G
    mc = ht.build_mc(kernel, (0, 3), 500, 1000, seed=1)
    assert "excursion_level" in mc.meta and len(passages) == 1
    assert ht.harmonic._path_cache(kernel).walk is ht.ladder._tail_walk(kernel)
    assert solve.values.array.tobytes() == ht.build_solve(fresh(), 2000).values.array.tobytes()
    assert mc.values == ht.build_mc(fresh(), (0, 3), 500, 1000, seed=1).values


def test_a_walk_keeps_a_failed_root(monkeypatch):
    from harmonictails import ladder

    walk = ht.LatticeWalk.from_dict({-1: 0.3, 1: 0.7})
    with pytest.raises(ht.NoCramerRootError, match="mean must be negative"):
        ladder.certified_root(walk)
    calls = []
    monkeypatch.setattr(ladder, "cramer_root", lambda w: calls.append(w))
    for _ in range(3):
        with pytest.raises(ht.NoCramerRootError, match="mean must be negative") as exc:
            ladder.certified_root(walk)
        assert len(exc.traceback) <= 3  # raised afresh, not on a growing traceback
    assert calls == []


def test_check_conditions_certain_escape():
    # the minorant never steps down, so paths escape surely and every
    # local-time moment is finite: gamma_available is inf
    kernel = ht.kernel_from_rows({0: {1: 1.0}}, 0, 1, 1, tail=ht.HomogeneousTail([0.7, 0.0, 1e308]))
    report = ht.check_conditions(kernel)
    assert report.escape_prob_lower == 1.0 and report.gamma_available == math.inf
    assert not report.thm_2_4_applicable  # the tail rows' mass is not 1


def test_build_mc_refuses_weights_whose_moments_overflow():
    kernel = ht.perturbed_reflected_walk(p=0.7, alpha=1e308).kernel(8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ht.SolverFailure, match="path weights from state 0") as exc:
            ht.build_mc(kernel, [0], 1000, 1000, seed=1)
    assert exc.value.reason == "non-finite"


def test_build_mc_matches_exact():
    fam = ht.perturbed_reflected_walk(p=0.7, alpha=1.2)
    kernel = fam.kernel(8)
    est = ht.build_mc(kernel, states=(0, 1, 2), n_paths=20_000, horizon=100_000, seed=5)
    assert est.method == "monte-carlo"
    assert est.meta["stop_level"] == 23
    assert not est.meta["horizon_warning"]
    for i in (0, 1, 2):
        err = abs(est.values[i] - exact_f(i, alpha=1.2))
        assert err <= 3.0 * est.std_errors[i]
        assert est.std_errors[i] <= 0.01


def test_build_mc_reproducible():
    fam = ht.perturbed_reflected_walk(p=0.7, alpha=1.2)
    kernel = fam.kernel(8)
    a = ht.build_mc(kernel, states=(0,), n_paths=2_000, horizon=10_000, seed=42)
    b = ht.build_mc(kernel, states=(0,), n_paths=2_000, horizon=10_000, seed=42)
    c = ht.build_mc(kernel, states=(0,), n_paths=2_000, horizon=10_000, seed=43)
    assert a.values == b.values
    assert a.std_errors == b.std_errors
    assert a.values != c.values


def test_build_mc_horizon_warning():
    fam = ht.perturbed_reflected_walk(p=0.7, alpha=1.2)
    est = ht.build_mc(fam.kernel(8), states=(0,), n_paths=500, horizon=3, seed=1)
    assert est.meta["horizon_warning"]
    assert est.meta["exhausted"][0] > 0


def test_build_mc_needs_drift_certificate(down_walk):
    killed = ht.walk_killed_at_negative(down_walk)
    with pytest.raises(ht.UnsupportedInputError):
        ht.build_mc(killed.kernel(40), states=(0,), n_paths=10, horizon=100, seed=0)


def test_local_time_moment_mc(ex1_kernel):
    # ell(0) is geometric with return probability q/p = 3/7, so E 2^ell(0)
    # = 2 (4/7) / (1 - 2 (3/7)) = 8; 2^ell(0) has an infinite variance
    # (4 (3/7) > 1), so the chain the paths run on is solved for it
    pc, dense = collapsed(ex1_kernel, 0, n_paths=20_000)
    n = len(dense)
    w = np.where(pc.scored[:n] == 0, 2.0, 1.0)
    f = np.linalg.solve(np.eye(n) - w[:, None] * dense[:, :n], w * dense[:, n])
    assert f[0] == pytest.approx(8.0, rel=1e-12)
    # E 1.2^ell(0) = 1.2 (4/7) / (1 - 1.2 (3/7)) = 24/17, by Monte Carlo: at
    # 1.2 the weights have finite moments up to the fourth (1.2^4 3/7 < 1),
    # so the standard error means what a 3-SE check takes it to mean
    est, se, cut = ht.local_time_moment_mc(
        ex1_kernel, i=0, gamma=math.log(1.2), n_paths=20_000, horizon=100_000, seed=11
    )
    assert cut == 0.0
    assert abs(est - 24.0 / 17.0) <= 3.0 * se

    one, zero_se, _ = ht.local_time_moment_mc(
        ex1_kernel, i=0, gamma=0.0, n_paths=500, horizon=10_000, seed=11
    )
    assert one == 1.0
    assert zero_se == 0.0


def test_expected_local_times_mc(ex1_kernel):
    out = ht.expected_local_times_mc(
        ex1_kernel, start=0, sites=(0, 1), n_paths=20_000, horizon=100_000, seed=3
    )
    m0, se0 = out[0]
    m1, se1 = out[1]
    # geometric visit counts: E ell(0) = 1/(1 - 3/7), E ell(1) = 1/(1 - 0.6)
    assert abs(m0 - 7.0 / 4.0) <= 3.0 * se0
    assert abs(m1 - 2.5) <= 3.0 * se1
    # convexity: exp(gamma E ell) is a lower bound for E exp(gamma ell) = 8
    assert math.exp(math.log(2.0) * (m0 + 3 * se0)) <= 8.0


def test_mc_streams_pinned(ex1_kernel):
    # a change of random stream shows up here first: example 1 runs on the
    # collapsed excursions, the doob kernel's parametric tail at a stopping level
    est = ht.build_mc(ex1_kernel, (0,), 2000, 10000, seed=42)
    assert est.values[0] == 5.909
    assert est.std_errors[0] == 0.42937051484645483
    got = ht.local_time_moment_mc(ex1_kernel, 0, 0.2, 2000, 10000, seed=11)
    assert got == (1.4515870301148874, 0.009186217780543626, 0.0)
    got = ht.expected_local_times_mc(ex1_kernel, 0, (0, 3), 2000, 10000, seed=5)
    assert got == {0: (1.772, 0.026445371595790242), 3: (2.5155, 0.044338051450229274)}
    got = ht.local_time_moment_mc(ENGINE_KERNELS["doob"], 0, 0.2, 2000, 10000, seed=11)
    assert got == (1.348427452810467, 0.005783374267860485, 0.0)


def test_mc_streams_keyed_by_seed_estimator_and_start(ex1_kernel):
    # a state's estimate does not depend on which other states are listed
    both = ht.build_mc(ex1_kernel, (0, 5), 2000, 10000, seed=9)
    alone = ht.build_mc(ex1_kernel, (5,), 2000, 10000, seed=9)
    assert (both.values[5], both.std_errors[5]) == (alone.values[5], alone.std_errors[5])
    # build_mc, local_time_moment_mc and expected_local_times_mc (estimators
    # 1, 2 and 3) draw apart from one (seed, start)
    stream = ht.harmonic._path_stream
    assert len({stream(9, estimator, 0).random() for estimator in (1, 2, 3)}) == 3
    # the seed is taken mod 2^64
    assert stream(-9, 1, 0).random(64).tobytes() == stream(2**64 - 9, 1, 0).random(64).tobytes()
    neg, wrapped = (ht.build_mc(ex1_kernel, (0,), 500, 10000, seed=s) for s in (-9, 2**64 - 9))
    assert (neg.values, neg.std_errors) == (wrapped.values, wrapped.std_errors)


def test_mc_stream_z_scores_are_standard():
    # at alpha = 1.2 the weight has a finite fourth moment (1.2^4 3/7 < 1),
    # so over 40 seeds the z-scores of 2000-path estimates at states 0-2
    # against the exact f center on 0 with unit spread
    kernel = ht.perturbed_reflected_walk(p=0.7, alpha=1.2).kernel(8)
    states = (0, 1, 2)
    exact = ht.reflected_walk_harmonic_exact(1.2, 0.7, np.array(states))
    z = []
    for seed in range(40):
        est = ht.build_mc(kernel, states, n_paths=2000, horizon=100_000, seed=seed)
        z += [(est.values[i] - f) / est.std_errors[i] for i, f in zip(states, exact)]
    assert abs(np.mean(z)) <= 0.3
    assert 0.8 <= np.std(z, ddof=1) <= 1.2


def test_mean_se_matches_numpy_reductions_bit_for_bit():
    # expected_local_times_mc's per-site statistics run along contiguous rows
    # in the order numpy's axis-0 reductions add a C-ordered block
    rng = np.random.default_rng(3)
    for n, q in ((1, 3), (2, 2), (5000, 1), (5000, 2), (20000, 3), (777, 9)):
        for x in (rng.poisson(2.5, (n, q)).astype(float),
                  rng.standard_normal((n, q)) * 1e3, rng.exponential(1.0, (n, q)) ** 3):
            se = x.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros(q)
            mean, got_se = ht.harmonic._mean_se(x)
            assert mean.tobytes() == x.mean(axis=0).tobytes()
            assert got_se.tobytes() == se.tobytes()


def wide(b):
    """Tail row {-1: .5, b: .5}, levels of m = b states, band width b + 2,
    and state 0 jumping to b."""
    return ht.kernel_from_rows({0: {b: 2.0}}, truncation=0, band_lo=1, band_hi=b,
                               tail=ht.HomogeneousTail(np.eye(b + 2)[[0, b + 1]].sum(0) / 2))


def stop_level_steps(kernel, top, n_paths, seed):
    """The path steps of ``n_paths`` paths from state 0 run up to the
    stopping level, on build_mc's stream."""
    pc = ht.harmonic._path_chain(kernel, top, 1e-8, {}, 0)
    assert pc.G is None
    work = {"path_steps": 0}
    ht.harmonic._run_paths(pc, (pc.scored == 0).astype(float), 0, n_paths, 10000, seed, 1, work)
    return work["path_steps"]


def test_excursions_cut_the_path_steps(ex1_kernel):
    est = ht.build_mc(ex1_kernel, (0,), 2000, 10000, seed=42)
    assert (est.meta["excursion_level"], est.meta["first_passage_residual"]) == (1, 0.0)
    assert est.meta["stop_level"] == 23
    # the same paths' law run up to the stopping level
    assert 0 < 5 * est.meta["path_steps"] <= stop_level_steps(ex1_kernel, 0, 2000, 42)
    # b = 10: G costs m^3 = 1000 against _EXACT_WORK_RATIO x n_paths x 12 for
    # the paths; fewer than 11 paths keep the stopping level, and no excursion keys
    est = ht.build_mc(wide(10), (0,), 10, 100, seed=0)
    assert "excursion_level" not in est.meta and est.meta["path_steps"] >= 10
    assert ht.build_mc(wide(10), (0,), 11, 100, seed=0).meta["excursion_level"] == 1
    # the re-entry lands on state 1 (L = 1) whatever b, so every b the m^3 guard
    # admits for 100 paths (b <= 29) collapses at 1, below the stopping level
    # (28 from b = 10 on), in fewer steps than the climb to it while b is
    # below that level (from 29 on, state 0 jumps above it at once)
    for b in (3, 10, 16, 17, 20, 25, 28):
        est = ht.build_mc(wide(b), (0,), 100, 100, seed=0)
        assert est.meta["excursion_level"] == 1, b
        assert 0 < est.meta["path_steps"] < stop_level_steps(wide(b), 0, 100, 0), b
    # b = 60: 60^3 > 8 x 100 x 62
    est = ht.build_mc(wide(60), (0,), 100, 100, seed=0)
    assert "excursion_level" not in est.meta and est.meta["stop_level"] == 28
    assert ht.build_mc(wide(60), (0,), 436, 100, seed=0).meta["excursion_level"] == 1


def test_expected_local_times_mc_one_path_set(ex1_kernel, monkeypatch):
    calls = []
    run_paths = ht.harmonic._run_paths
    monkeypatch.setattr(ht.harmonic, "_run_paths",
                        lambda *args: calls.append(args) or run_paths(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ht.expected_local_times_mc(ex1_kernel, start=0, sites=(0, 1, 2, 5),
                                         n_paths=1, horizon=1000, seed=3)
    assert len(calls) == 1  # every site is scored on the same paths
    assert sorted(out) == [0, 1, 2, 5]
    assert all(se == 0.0 for _, se in out.values())
    assert out[0][0] >= 1.0  # time zero counts as a visit to the start
    assert ht.expected_local_times_mc(ex1_kernel, start=0, sites=(), n_paths=10,
                                      horizon=10, seed=0) == {}


def test_path_chain_reused_per_kernel(monkeypatch):
    def fresh():
        return ht.perturbed_reflected_walk(p=0.7, alpha=1.2).kernel(8)

    certified, folded = [], []
    ruin = ht.harmonic.ruin_exponent
    monkeypatch.setattr(ht.harmonic, "ruin_exponent", lambda w: certified.append(1) or ruin(w))
    collapse = ht.harmonic._collapse
    monkeypatch.setattr(ht.harmonic, "_collapse", lambda *a: folded.append(a[1]) or collapse(*a))
    kernel = fresh()
    # one certification for any sequence of tops, return_tol and n_paths
    calls = [
        lambda k: ht.build_mc(k, (0, 3), 500, 1000, seed=1),
        lambda k: ht.build_mc(k, (2,), 500, 1000, seed=2),
        lambda k: ht.local_time_moment_mc(k, 0, 0.2, 500, 1000, seed=3),
        lambda k: ht.expected_local_times_mc(k, 0, (0, 2), 500, 1000, seed=4),
        lambda k: ht.build_mc(k, (0,), 500, 1000, seed=5, return_tol=1e-4),
        lambda k: ht.build_mc(k, (0,), 700, 1000, seed=5),
        lambda k: ht.local_time_moment_mc(k, 0, 0.2, 700, 1000, seed=6),
        lambda k: ht.expected_local_times_mc(k, 1, (1, 5), 500, 1000, seed=7, return_tol=1e-3),
        lambda k: ht.build_mc(k, (1,), 500, 1000, seed=1),
    ]
    for n, call in enumerate(calls):
        before = len(certified)
        got = call(kernel)
        assert len(certified) - before == (n == 0)
        assert got == call(fresh())
    # each call checks its states against its own stopping level all the same
    stop = ht.build_mc(kernel, (0,), 500, 1000, seed=1).meta["stop_level"]
    before = len(certified)
    with pytest.raises(ht.StateRangeError) as kept:
        ht.build_mc(kernel, (stop + 1, stop + 2), 500, 1000, seed=1)
    assert len(certified) == before
    with pytest.raises(ht.StateRangeError) as built:
        ht.build_mc(fresh(), (stop + 1, stop + 2), 500, 1000, seed=1)
    assert str(kept.value) == str(built.value) == (
        f"start state {stop + 2} outside the scored range [0, {stop + 1}]")
    # the last two folds are kept: alternating tops 0 and 2 (ends 1 and 2)
    # builds the end-2 fold once, a stopping-level chain evicts the older one
    folded.clear()
    before = len(certified)
    for _ in range(3):
        ht.build_mc(kernel, (0,), 10, 100, seed=1)
        ht.expected_local_times_mc(kernel, 0, (0, 2), 10, 100, seed=1)
    assert folded == [2]
    folded.clear()
    assert ht.harmonic._path_chain(kernel, 0, 1e-8, {}, 0).end == stop
    ht.build_mc(kernel, (0,), 10, 100, seed=1)
    folds = ht.harmonic._path_cache(kernel).folds
    assert folded == [stop, 1] and len(folds) == ht.harmonic._KEPT_FOLDS
    assert len(certified) == before
    # a replaced kernel is a new value with nothing kept
    copy = dataclasses.replace(kernel)
    assert copy.kept == {}
    got = ht.build_mc(copy, (1,), 500, 1000, seed=1)
    assert len(certified) == before + 1
    assert got == ht.build_mc(kernel, (1,), 500, 1000, seed=1)


HELD = ht.TransitionKernel(band_lo=0, band_hi=1, weights=np.array([[0.999, 0.001]]),
                           tail=ht.HomogeneousTail(np.array([0.0, 1.0])))


@pytest.mark.parametrize("name,sites,horizon,words", [
    ("example1", (), 10**5, 0),
    ("example1", 0, 10**5, 1),
    ("example1", (0,), 10**5, 1),
    ("example1", (0, 1, 2), 10**5, 1),
    ("example1", (0, 1, 2, 3), 10**5, 2),  # 17-bit fields, three to a word
    ("example1", tuple(range(7)), 10**5, 3),
    ("example1", tuple(range(7)), 14, 1),  # 4-bit fields, 15 to a word
    ("example1", tuple(range(7)), 15, 1),  # a count of 16 takes 5 bits
    ("lindley4", (3, 0, 3, 1), 30, 1),
    ("held", (0, 1), 14, 1),  # 0 is held until the horizon: 15 visits
    ("held", (0, 1), 15, 1),  # 16 visits, which must not carry into site 1
    ("held", 0, 15, 1),
])
def test_visit_counts_match_float_scores(name, sites, horizon, words, monkeypatch):
    # packed int64 counts give the float score's totals bit for bit
    kernel = HELD if name == "held" else ENGINE_KERNELS[name]
    scores = []
    run_paths = ht.harmonic._run_paths
    monkeypatch.setattr(ht.harmonic, "_run_paths",
                        lambda pc, score, *a: scores.append(score) or run_paths(pc, score, *a))
    for start, n_paths, seed in ((2, 257, 2**64 - 1), (1, 1, 0), (0, 300, 3)):
        counts, cut = ht.harmonic._visit_counts(kernel, start, sites, {}, n_paths, horizon,
                                                seed, 3, 1e-6)
        assert scores[-1].dtype == np.int64 and scores[-1].shape[1:] == (words,)
        top = max(np.atleast_1d(sites).tolist(), default=start)
        pc = ht.harmonic._path_chain(kernel, top, 1e-6, {}, n_paths)
        score = np.equal.outer(pc.scored, sites).astype(float)
        ref, ref_cut = run_paths(pc, score, start, n_paths, horizon, seed, 3)
        assert counts.dtype == ref.dtype and counts.flags.c_contiguous
        assert np.array_equal(counts, ref) and cut == ref_cut
    if name == "held":  # from 0, the site's count reaches horizon + 1
        assert np.max(counts) == horizon + 1


# ---------------------------------------------------------------------------
# collapsed excursions against linear solves


def excursion_kernels():
    walk4 = ht.LatticeWalk.from_dict({-1: 0.3, 0: 0.125, 1: 0.4, 2: 0.175})
    lindley4 = ht.lindley_chain(walk4).kernel(10)
    weighted = lindley4.weights.copy()
    weighted[0] *= 1.3
    return {
        "example1": ENGINE_KERNELS["example1"],
        "rows": ENGINE_KERNELS["rows"],
        # an explicit row that jumps four levels of m = 1 above the top
        "reach": ht.kernel_from_rows({0: {4: 2.0}}, truncation=0, band_lo=1, band_hi=4,
                                     tail=ht.HomogeneousTail(np.array([0.3, 0, 0.7, 0, 0, 0]))),
        # levels of m = 2 states, weight 1.3 at the origin
        "lindley4": ht.TransitionKernel(band_lo=1, band_hi=2, weights=weighted,
                                        tail=lindley4.tail),
        # levels of m = b states entered at their last state, L = 1
        "wide3": wide(3),
        "wide17": wide(17),
        "wide60": wide(60),
        # levels of m = 430, weight 1.5 at the origin
        "wide430": ht.kernel_from_rows(
            {0: {1: 1.5}}, truncation=0, band_lo=1, band_hi=430,
            tail=ht.HomogeneousTail(np.eye(432)[[0, 2, 431]].T @ [0.3, 0.3, 0.4])),
    }


@pytest.mark.parametrize("name", ["example1", "rows", "reach", "lindley4", "wide3", "wide17",
                                  "wide60", "wide430"])
@pytest.mark.parametrize("top", [0, 3, 6])
def test_collapsed_chain_solves_to_build_solve(name, top):
    # f = e^delta P_c f on state_lo..top with f = 1 at the escape:
    # (I - diag(e^delta) P_c) f = diag(e^delta) escape
    kernel = excursion_kernels()[name]
    pc, dense = collapsed(kernel, top)
    lo, end, n, m = kernel.state_lo, pc.end, len(dense), len(pc.G)
    L = -ht.ladder._tail_walk(kernel.embed()).lo
    assert pc.L == L and end == max(top, kernel.embed().homogeneous_level(), lo + L - 1)
    assert np.max(np.abs(dense.sum(axis=1) - 1.0)) <= 4e-16
    assert dense.min() >= 0.0
    w = kernel.rows(lo, end).sum(axis=1)  # e^delta
    f = np.linalg.solve(np.eye(n) - w[:, None] * dense[:, :n], w * dense[:, n])
    if name == "rows":  # f(0) < 0: no positive f, so build_solve refuses; its system, dense
        with pytest.raises(ht.SolverFailure, match="negative"):
            ht.build_solve(kernel, K=400)
        ref = truncated_system_solution(kernel, 400)
    else:  # K above the starts below, which reach three levels above end
        K = max(400, end + 3 * m + 4)
        est = ht.build_solve(parametric_twin(kernel), K=K)
        assert est.method == "linear-solve"
        ref = est.array(lo, K)
    np.testing.assert_allclose(f, ref[:n], rtol=1e-10, atol=0)
    # a start above the top comes down by its entry law, or escapes (f = 1)
    for s in range(end + 1, end + 3 * m + 5):
        law = np.diff(pc.entry(s), prepend=0.0)
        got = law @ f[n - L :] + (1.0 - law.sum())
        assert got == pytest.approx(ref[s - lo], rel=1e-10, abs=0)
    assert pc.entry(end) is None


ROUTE_CASES = {
    "example1": lambda: ht.perturbed_reflected_walk(p=0.7, alpha=2.0).kernel(8),
    "example2": lambda: ht.multi_perturbed_walk((1.2, 1.5), p=0.7).kernel(10),
    "reach": lambda: excursion_kernels()["reach"],
    "wide3": lambda: wide(3),
    "wide17": lambda: wide(17),
    "lindley": lambda: ht.lindley_chain(ht.LatticeWalk.from_dict({-1: 0.7, 1: 0.3})),
    "lindley4": lambda: ht.lindley_chain(
        ht.LatticeWalk.from_dict({-2: 0.175, -1: 0.4, 0: 0.125, 1: 0.3})),
}


@pytest.mark.parametrize("name", list(ROUTE_CASES))
def test_exact_and_truncated_routes_agree(name):
    # the exact solve and the truncated one on the parametric twin of the
    # same rows, at K = 400 on 0..200, within the twin's own doubling_tol
    chain, K = ROUTE_CASES[name](), 400
    if isinstance(chain, ht.ChainFamily):
        exact = ht.stationary_solve(chain, K)
        trunc = ht.stationary_solve(parametric_family_twin(chain), K)
        gap = np.max(np.abs(exact.log_pi[: K // 2 + 1] - trunc.log_pi[: K // 2 + 1]))
        tol = 1e-8
    else:
        exact = ht.build_solve(chain, K)
        trunc = ht.build_solve(parametric_twin(chain), K)
        a, b = exact.array(0, K // 2), trunc.array(0, K // 2)
        gap = np.max(np.abs(a - b) / np.abs(b))
        tol = 1e-6
    assert (exact.method, trunc.method) == ("matrix-geometric", "linear-solve")
    assert gap <= tol


def exact_solve_window(kernel, K, monkeypatch):
    """build_solve's estimate, and the window rows, the padded v and the
    number of rows checked that its exact route hands to ``_estimate``."""
    seen = {}
    estimate = ht.harmonic._estimate

    def spy(kernel, K, tol, rows, v, method, meta, checked):
        seen.update(rows=rows, v=v, checked=checked)
        return estimate(kernel, K, tol, rows, v, method, meta, checked)

    monkeypatch.setattr(ht.harmonic, "_estimate", spy)
    est = ht.build_solve(kernel, K)
    assert est.method == "matrix-geometric"
    return est, seen


@pytest.mark.parametrize("K", [400, 4000, 40000])
@pytest.mark.parametrize("name", ["example1", "example2", "reach", "wide3", "wide17"])
def test_exact_solve_checks_match_the_whole_window(name, K, monkeypatch):
    # the exact route checks f up to its first state of value exactly 1 and
    # the residual up to the first row whose neighbours all are: over the
    # whole window the residual has the same bits and the clip moves nothing
    kernel = ROUTE_CASES[name]()
    est, seen = exact_solve_window(kernel, K, monkeypatch)
    n = K - kernel.state_lo + 1
    assert est.residual == ht.harmonic._residual(row_slice(seen["rows"], 0, n), kernel.band_lo,
                                                 seen["v"])
    f = est.array(kernel.state_lo, K)
    np.testing.assert_array_equal(ht.harmonic._nonnegative(f.copy()), f)
    if K == 40000:  # G's powers underflow far below K
        assert seen["checked"] < 2000


def test_near_critical_exact_solve_checks_the_whole_window(monkeypatch):
    # G = 0.49 / 0.51: its powers stay above the float range's floor up to
    # K = 4000, so no level of g is known to be 0 and every row is checked
    kernel = ht.perturbed_reflected_walk(p=0.51, alpha=1.01).kernel(40)
    _, seen = exact_solve_window(kernel, 4000, monkeypatch)
    assert seen["checked"] == 4001


@pytest.mark.parametrize("K", [400, 40000])
def test_supercritical_exact_solve_still_fails_on_negative_values(K):
    # f(0) = alpha (1 - r) / (1 - alpha r) = -6 at alpha = 3, r = 3/7
    with pytest.raises(ht.SolverFailure) as exc:
        ht.build_solve(ht.perturbed_reflected_walk(p=0.7, alpha=3.0).kernel(8), K)
    assert exc.value.reason == "negative-values"
    assert exc.value.diagnostics == {"min_value": -5.9999999999999964}


def test_level_powers_returns_the_first_all_zero_level():
    # x_k = 2^-k: 2^-1074 is the least subnormal and 2^-1075 rounds to 0
    X = np.zeros((4096, 1))
    X[:2, 0] = [1.0, 0.5]
    assert _level_powers(np.array([[0.5]]), X, 2) == 1075
    assert X[1074, 0] == 2.0**-1074 and not X[1075:].any()
    # powers that never underflow fill every level
    X = np.zeros((64, 1))
    X[:2, 0] = [1.0, 0.9]
    assert _level_powers(np.array([[0.9]]), X, 2) == 64
    assert X[63, 0] == pytest.approx(0.9**63, rel=1e-14)


def test_build_solve_applies_tol_as_given():
    # the exact solve of example 1 leaves a residual of 3.9e-16, within the
    # default 1e-10 and beyond 1e-17
    kernel = ht.perturbed_reflected_walk(p=0.7, alpha=2.0).kernel(8)
    assert ht.build_solve(kernel, 400).residual == pytest.approx(3.9e-16, rel=0.01)
    with pytest.raises(ht.SolverFailure) as exc:
        ht.build_solve(kernel, 400, tol=1e-17)
    assert exc.value.reason == "residual"


def truncated_system_solution(kernel, K):
    """f on state_lo..K from f = Q f there and f = 1 above K, by a dense solve."""
    lo = kernel.state_lo
    n = K - lo + 1
    Q = np.zeros((n, n + kernel.band_hi))
    for x, row in enumerate(kernel.rows(lo, K)):
        Q[x, x : x + row.size - kernel.band_lo] = row[kernel.band_lo :]
        Q[x, max(x - kernel.band_lo, 0) : x] = row[max(kernel.band_lo - x, 0) : kernel.band_lo]
    return np.linalg.solve(np.eye(n) - Q[:, :n], Q[:, n:].sum(axis=1))


def test_collapsed_chain_solves_seeded_kernels():
    # bands up to (5, 4) and (2, 8), state_lo 0 and 5, rows of mass off one:
    # the collapsed chain's solve against the truncated system at K = 600
    solved = 0
    for kernel in seeded_drift_kernels(np.random.default_rng(3)):
        if not isinstance(kernel.tail, ht.HomogeneousTail) or kernel.band_lo == 0:
            continue
        try:
            # a stopping level far above top, so that the collapse pays on every
            # kernel (rows to state_lo + 12 put top at state_lo + 13 or above)
            pc, dense = collapsed(kernel, kernel.state_lo + 2, return_tol=1e-30)
        except ht.UnsupportedInputError:  # no positive-drift minorant
            continue
        lo, n = kernel.state_lo, len(dense)
        w = kernel.rows(lo, pc.end).sum(axis=1)
        f = np.linalg.solve(np.eye(n) - w[:, None] * dense[:, :n], w * dense[:, n])
        np.testing.assert_allclose(f, truncated_system_solution(kernel, 600)[:n],
                                   rtol=1e-10, atol=0)
        solved += 1
    assert solved >= 8


@pytest.mark.parametrize("top", [1, 3, 6])
def test_collapsed_visits_match_a_long_truncation(top):
    # expected visits among state_lo..top: the collapsed chain's against those
    # of the chain killed above K = 600, whose paths from near K come back
    # below top with a chance of about (G's spectral radius)^300
    walk4 = ht.LatticeWalk.from_dict({-1: 0.3, 0: 0.125, 1: 0.4, 2: 0.175})
    kernel = ht.lindley_chain(walk4).kernel(10)
    pc, dense = collapsed(kernel, top)
    assert (len(pc.G), pc.end) == (2, top)
    n, K = len(dense), 600
    visits = np.linalg.inv(np.eye(n) - dense[:, :n])
    P = np.zeros((K + 1, K + 1))
    for x, row in enumerate(kernel.embed().rows(0, K)):
        for c in np.flatnonzero(row):
            if x + c - 1 <= K:
                P[x, x + c - 1] = row[c]
    ref = np.linalg.inv(np.eye(K + 1) - P)[:n, :n]
    assert np.max(np.abs(visits - ref)) <= 1e-13 * np.max(ref)


def test_collapsed_overshoot_scores_zero():
    # rows are stochastic only within rounding, and a uniform above a row's
    # sum lands on its dropped last column, up to end + band_hi; with the
    # rows halved half the steps do, and each ends its path as an escape
    kernel = excursion_kernels()["reach"]
    pc, dense = collapsed(kernel, 0)
    C = pc.chain
    half = ht.TransitionKernel(band_lo=C.band_lo, band_hi=C.band_hi, weights=C.weights / 2,
                               state_lo=C.state_lo)
    score = np.ones(pc.scored.size)
    score[pc.end + 1 - C.state_lo :] = 0.0
    totals, cut = ht.harmonic._run_paths(dataclasses.replace(pc, chain=half), score, 0, 1000,
                                         100, 0, 1)
    assert cut == 0 and totals.min() >= 1.0 and totals.max() <= 100.0


def test_path_chain_is_finite_in_both_shapes(ex1_kernel):
    # a parametric tail row {-1: .3, 1: .3, 2: .4} runs at a stopping level,
    # example 1 on its collapsed excursions; either way on a finite chain
    rule = lambda s: np.tile([0.3, 0.0, 0.3, 0.4], (len(s), 1))  # noqa: E731
    parametric = ht.TransitionKernel(band_lo=1, band_hi=2, weights=np.array([[0, 0, 2.0, 0]]),
                                     tail=ht.ParametricTail(rule, 0.0))
    for kernel in (ex1_kernel, parametric):
        pc = ht.harmonic._path_chain(kernel, 0, 1e-8, {}, 2000)
        C = pc.chain
        assert (pc.G is not None) == (kernel is ex1_kernel)
        assert C.tail is None and C.truncation == pc.end
        assert np.max(np.abs(C.weights.sum(axis=1) - 1.0)) <= 4e-16
    # at the stopping level every jump above end lands on the escape, end + 1
    end = pc.end
    rows = parametric.embed().rows(0, end)
    target = np.arange(end + 1)[:, None] + C.offsets
    assert np.array_equal(C.weights[target <= end], rows[target <= end])
    assert np.all(C.weights[target > end + 1] == 0.0)
    np.testing.assert_allclose(C.weights[target == end + 1], [0.4, 0.7], rtol=1e-15)
    # paths scored by how far above end they land: one step from end, and a
    # start above end, which lands on the escape at once
    score = np.clip(pc.scored - end, 0, None).astype(float)
    totals, cut = ht.harmonic._run_paths(pc, score, end, 1000, 1, 0, 1)
    assert set(totals) == {0.0, 1.0} and np.count_nonzero(totals) == 1000 - cut > 500
    totals, cut = ht.harmonic._run_paths(pc, score, end + 2, 1000, 10, 0, 1)
    assert cut == 0 and np.all(totals == 1.0)


# ---------------------------------------------------------------------------
# banded residual against the scalar apply loop


def scalar_residual(kernel, f, states):
    """The per-state reference: max |(Q f)(i) - f(i)| / max(1, f(i))."""
    worst = 0.0
    for i in states:
        fi = f[i]
        worst = max(worst, abs(kernel.apply(f, i) - fi) / max(1.0, fi))
    return worst


@st.composite
def banded_kernels(draw):
    bl, bh = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    W = bl + bh + 1
    n = draw(st.integers(max(bl, 1), 8))  # tail rows start at band_lo or above
    state_lo = draw(st.integers(0, 2))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 3.0))
    w = np.array(draw(st.lists(st.lists(weight, min_size=W, max_size=W),
                               min_size=n, max_size=n)))
    for r in range(n):
        w[r, : max(bl - (state_lo + r), 0)] = 0.0  # nothing below state 0
        w[r, bl] += 0.5  # every row keeps some mass
    tail = ht.HomogeneousTail(np.array(draw(st.lists(weight, min_size=W, max_size=W))) + 0.1)
    return ht.TransitionKernel(band_lo=bl, band_hi=bh, weights=w, state_lo=state_lo, tail=tail)


@given(kernel=banded_kernels(), data=st.data())
def test_banded_residual_matches_scalar_apply(kernel, data):
    top = kernel.truncation + 4
    f = {i: data.draw(st.floats(0.0, 10.0)) for i in range(0, top + kernel.band_hi + 1)}
    states = data.draw(st.lists(st.integers(kernel.state_lo, top), max_size=12))
    calls = []

    def fn(i):
        calls.append(i)
        return f[i]

    assert ht.verify_harmonicity(kernel, fn, states) == scalar_residual(kernel, f, states)
    assert len(calls) == len(set(calls))  # f is read once per state


def test_verify_harmonicity_state_range(ex1_kernel):
    tight = ht.TransitionKernel(band_lo=1, band_hi=1, weights=ex1_kernel.weights)
    with pytest.raises(ht.StateRangeError):
        ht.verify_harmonicity(tight, lambda i: 1.0, range(0, 12))
    assert ht.verify_harmonicity(ex1_kernel, lambda i: 1.0, []) == 0.0


# ---------------------------------------------------------------------------
# deficit form of the truncated solve


def recurrent_rows_chain():
    """The shipped custom-rows example: a reflected walk with drift down."""
    return ht.kernel_from_rows(
        {0: {0: 0.6, 1: 0.4}}, truncation=0, band_lo=1, band_hi=1,
        tail=ht.HomogeneousTail(np.array([0.7, 0.0, 0.3])), stochastic=True,
    )


def test_solve_recurrent_chain_is_constant():
    # the truncated system is singular to working precision, but f = 1 solves
    # it exactly: the deficit 1 - f has a zero right-hand side
    est = ht.build_solve(recurrent_rows_chain(), K=200)
    values = np.array([est.value(i) for i in range(201)])
    assert np.max(np.abs(values - 1.0)) <= 1e-12
    assert est.residual <= 1e-12
    assert est.meta["doubling_disagreement"] <= 1e-12


def test_build_solve_doubling_failure():
    # near-critical drift and weight, the tail as a parametric rule: the
    # solves at K = 20 and 40 disagree on 0..10, so the boundary at 20 has
    # not decoupled
    kernel = parametric_twin(ht.perturbed_reflected_walk(p=0.51, alpha=1.01).kernel(40))
    with pytest.raises(ht.SolverFailure) as exc:
        ht.build_solve(kernel, K=20)
    assert exc.value.reason == "doubling"
    assert set(exc.value.diagnostics) == {"disagreement", "K"}
    assert exc.value.diagnostics["K"] == 20
    assert exc.value.diagnostics["disagreement"] == pytest.approx(0.0754, abs=1e-4)


def test_near_critical_exact_solve_matches_closed_form():
    # the chain above with its homogeneous tail: the exact solve needs no
    # decoupling at K = 20
    est = ht.build_solve(ht.perturbed_reflected_walk(p=0.51, alpha=1.01).kernel(40), K=20)
    assert est.method == "matrix-geometric"
    exact = [ht.reflected_walk_harmonic_exact(1.01, 0.51, i) for i in range(21)]
    np.testing.assert_allclose(est.array(0, 20), exact, rtol=1e-12, atol=0)


def test_build_solve_refuses_a_substochastic_tail_row():
    # boundary value 1 above the truncation needs tail rows of mass one
    kernel = ht.TransitionKernel(band_lo=1, band_hi=1, weights=np.array([[0.0, 0.0, 1.0]]),
                                 tail=ht.HomogeneousTail(np.array([0.3, 0.0, 0.69])))
    with pytest.raises(ht.UnsupportedInputError, match="tail row at 21 has mass 0.98"):
        ht.build_solve(kernel, K=20)


# ---------------------------------------------------------------------------
# Monte Carlo start states and sites


def test_mc_refuses_fewer_than_one_path(ex1_kernel, monkeypatch):
    monkeypatch.setattr(ht.harmonic, "_path_chain", lambda *a: pytest.fail("paths were set up"))
    calls = [
        lambda n: ht.build_mc(ex1_kernel, (0,), n, 100, seed=0),
        lambda n: ht.local_time_moment_mc(ex1_kernel, 0, 0.1, n, 100, seed=0),
        lambda n: ht.expected_local_times_mc(ex1_kernel, 0, (0, 1), n, 100, seed=0),
    ]
    for call in calls:
        for n in (0, -3):
            with pytest.raises(ht.UnsupportedInputError, match=f"^n_paths must be at least 1 \\(got {n}\\)$"):
                call(n)


def test_mc_rejects_states_outside_scored_range(ex1_kernel):
    # the local-time stopping level sits above the state itself, so only a
    # state below the kernel's range is out of reach there
    with pytest.raises(ht.StateRangeError):
        ht.local_time_moment_mc(ex1_kernel, i=-1, gamma=0.1, n_paths=10, horizon=10, seed=0)
    for bad in (-1, 1000):
        with pytest.raises(ht.StateRangeError):
            ht.build_mc(ex1_kernel, states=(0, bad), n_paths=10, horizon=10, seed=0)
        with pytest.raises(ht.StateRangeError):
            ht.expected_local_times_mc(ex1_kernel, start=bad, sites=(0,), n_paths=10,
                                       horizon=10, seed=0)
    with pytest.raises(ht.StateRangeError):
        ht.expected_local_times_mc(ex1_kernel, start=0, sites=(-1, 2), n_paths=10,
                                   horizon=10, seed=0)


# ---------------------------------------------------------------------------
# the path engine against the compare-matrix loop


def compare_matrix_paths(P, score, start, n_paths, horizon, seed, estimator, entry=None):
    """The reference loop on the finite chain ``P``: each step scans every
    path and compares each live one against its whole cdf row, scattering
    back into full-length arrays.  A start above the chain is on its escape,
    or with ``entry``, a cdf over the chain's last entry.size states, lands
    by a binary search of one uniform per path."""
    lo, stop = P.state_lo, P.truncation
    cdf = P.rows(lo, stop).cumsum(axis=1)
    cdf[:, -1] = 1.0
    rng = ht.harmonic._path_stream(seed, estimator, start)
    offsets = P.offsets
    states = np.full(n_paths, min(start, stop + 1), dtype=np.int64)
    totals = np.full((n_paths,) + score.shape[1:], score[states[0] - lo])
    if entry is not None:
        u = rng.random(n_paths)
        states = stop + 1 - entry.size + np.searchsorted(entry, u, side="right")
        totals = score[states - lo]
    active = states <= stop
    for _ in range(horizon):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        s = states[idx]
        u = rng.random(idx.size)
        choice = (u[:, None] >= cdf[s - lo]).sum(axis=1)
        ns = s + offsets[choice]
        totals[idx] += score[ns - lo]
        states[idx] = ns
        active[idx] = ns <= stop
    return totals, int(active.sum())


def engine_kernels():
    """Upward-drifting kernels of widths 3 and 4, explicit and tail rows."""
    walk4 = ht.LatticeWalk.from_dict({-1: 0.3, 0: 0.125, 1: 0.4, 2: 0.175})
    rows = {0: {1: 2.0}, 1: {-1: 0.5, 1: 1.5}, 2: {-1: 0.4, 0: 0.2, 1: 0.6}}
    killed = ht.walk_killed_at_negative(ht.LatticeWalk.from_dict({1: 0.3, -1: 0.7}))
    return {
        "example1": ht.perturbed_reflected_walk(p=0.7, alpha=2.0).kernel(8),
        "lindley4": ht.lindley_chain(walk4).kernel(10),
        "rows": ht.kernel_from_rows(rows, truncation=2, band_lo=1, band_hi=1,
                                    tail=ht.HomogeneousTail(np.array([0.35, 0.0, 0.65]))),
        # conditioned to stay nonnegative: h(i) = (7/3)^(i+1) - 1 is harmonic
        "doob": ht.doob_transform(killed.kernel(40), lambda i: (7 / 3) ** (i + 1) - 1,
                                  level=-1),
    }


ENGINE_KERNELS = engine_kernels()


@given(
    name=st.sampled_from(sorted(ENGINE_KERNELS)),
    top=st.integers(0, 4),
    return_tol=st.sampled_from([1e-2, 1e-6]),
    shape=st.sampled_from([(), (1,), (3,)]),
    horizon=st.sampled_from([0, 1, 30, 100_000]),
    n_paths=st.sampled_from([1, 2, 257]),
    seed=st.integers(0, 2**64 - 1),
    estimator=st.integers(1, 3),
    data=st.data(),
)
def test_run_paths_matches_compare_matrix_loop(name, top, return_tol, shape, horizon,
                                               n_paths, seed, estimator, data):
    kernel = ENGINE_KERNELS[name]
    pc = ht.harmonic._path_chain(kernel, kernel.state_lo + top, return_tol, {}, 0)
    P, stop, scored = pc.chain, pc.end, pc.scored
    start = data.draw(st.one_of(
        st.integers(P.state_lo, stop - 1),  # below the stopping level
        st.just(stop),
        st.integers(stop + 1, stop + P.band_hi),  # already above it
    ))
    score = np.random.default_rng(seed).normal(size=(scored.size,) + shape)
    args = (score, start, n_paths, horizon, seed, estimator)
    totals, exhausted = ht.harmonic._run_paths(pc, *args)
    ref_totals, ref_exhausted = compare_matrix_paths(P, *args)
    assert np.array_equal(totals, ref_totals)
    assert exhausted == ref_exhausted


# tail rows {-2: .2, -1: .1, 1: .3, 2: .4}: down steps of two, so an entry
# above the end lands on one of the last L = 2 states
ENTRY_KERNELS = {**ENGINE_KERNELS, "down2": ht.kernel_from_rows(
    {0: {2: 1.0}, 1: {1: 1.0}}, truncation=1, band_lo=2, band_hi=2,
    tail=ht.HomogeneousTail(np.array([0.2, 0.1, 0.0, 0.3, 0.4])))}


@given(
    name=st.sampled_from(sorted(ENTRY_KERNELS)),
    top=st.integers(0, 4),
    return_tol=st.sampled_from([1e-2, 1e-6]),
    shape=st.sampled_from([(), (1,), (3,)]),
    horizon=st.sampled_from([0, 1, 30, 100_000]),
    n_paths=st.sampled_from([1, 2, 257]),
    seed=st.integers(0, 2**64 - 1),
    estimator=st.integers(1, 3),
    data=st.data(),
)
def test_run_paths_entry_matches_searchsorted(name, top, return_tol, shape, horizon, n_paths,
                                              seed, estimator, data):
    # collapsed chains: a start above the end lands by its entry cdf
    kernel = ENTRY_KERNELS[name]
    pc = ht.harmonic._path_chain(kernel, kernel.state_lo + top, return_tol, {}, 2000)
    m = 1 if pc.G is None else len(pc.G)
    start = data.draw(st.integers(pc.end + 1, pc.end + 2 * m))
    score = np.random.default_rng(seed).normal(size=(pc.scored.size,) + shape)
    args = (score, start, n_paths, horizon, seed, estimator)
    totals, exhausted = ht.harmonic._run_paths(pc, *args)
    ref_totals, ref_exhausted = compare_matrix_paths(pc.chain, *args, entry=pc.entry(start))
    assert np.array_equal(totals, ref_totals)
    assert totals.shape == (n_paths,) + shape and totals.flags.c_contiguous
    assert exhausted == ref_exhausted


def test_entry_kernels_collapse():
    # every kernel but the Doob transform (no homogeneous tail) collapses,
    # down2 with entries over two states
    for name, kernel in ENTRY_KERNELS.items():
        pc = ht.harmonic._path_chain(kernel, kernel.state_lo, 1e-6, {}, 2000)
        assert (pc.G is None) == (name == "doob"), name
        assert pc.L == {"doob": 0, "down2": 2}.get(name, 1), name
