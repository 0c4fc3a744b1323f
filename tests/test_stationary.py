"""Stationary laws, tail extraction, rate expansions, regeneration identities."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import harmonictails as ht
from conftest import lindley_exact_log_pi

BETA = math.log(7.0 / 3.0)


@pytest.fixture(scope="module")
def example3_result(example3_family):
    return ht.stationary_solve(example3_family, 2000)


# ---------------------------------------------------------------------------
# stationary solves


def test_lindley_stationary_exact(lindley_result):
    fam, res = lindley_result
    exact = lindley_exact_log_pi(400)
    assert np.max(np.abs(res.log_pi - exact)) <= 1e-10
    assert res.tilt_beta == pytest.approx(BETA, abs=1e-14)
    assert res.reflected_weight == pytest.approx(0.3, abs=1e-12)
    assert res.normalization_error <= 1e-8
    assert res.doubling_disagreement is not None
    assert res.doubling_disagreement <= 1e-8
    assert res.pi.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ht.StateRangeError):
        res.log_value(401)
    with pytest.raises(ht.StateRangeError):
        res.log_value(-1)


def test_stationary_without_compensation(down_walk):
    fam = ht.lindley_chain(down_walk)
    res = ht.stationary_solve(fam, 60, beta=0.0, check_doubling=False)
    assert res.doubling_disagreement is None
    exact = lindley_exact_log_pi(60)
    assert np.max(np.abs(res.log_pi[:31] - exact[:31])) <= 1e-9


def test_stationary_needs_negative_drift():
    up = ht.LatticeWalk.from_dict({1: 0.7, -1: 0.3})
    with pytest.raises(ht.UnsupportedInputError):
        ht.stationary_solve(ht.lindley_chain(up), 100)


def test_log_tail_envelope(lindley_result):
    _, res = lindley_result
    i = np.arange(50, 401)
    rates = res.log_pi[50:] / i
    assert np.max(np.abs(rates + BETA)) <= 0.05


def test_birth_death_closed_form(down_walk):
    lp = ht.birth_death_closed_form(lambda i: 0.3, lambda i: 0.7, 400)
    np.testing.assert_allclose(lp, lindley_exact_log_pi(400), atol=1e-12)
    with pytest.raises(ht.UnsupportedInputError):
        ht.birth_death_closed_form(lambda i: 0.0, lambda i: 0.7, 10)


def test_birth_death_rates(example3_family):
    up, down = ht.birth_death_rates(example3_family)
    # even states get the positive sign of the alternating perturbation
    assert up(6) == pytest.approx(0.3 + 0.05 * 7.0**-0.7, abs=1e-14)
    assert down(6) == pytest.approx(1.0 - up(6), abs=1e-14)
    with pytest.raises(ht.UnsupportedInputError):
        ht.birth_death_rates(ht.multi_perturbed_walk((1.2, 1.5)))


def test_example3_matches_birth_death(example3_family, example3_result):
    res = example3_result
    up, down = ht.birth_death_rates(example3_family)
    lp = ht.birth_death_closed_form(up, down, 2000)
    assert np.max(np.abs(res.log_pi - lp)) <= 1e-10
    assert res.tilt_beta == pytest.approx(BETA, abs=1e-14)
    assert res.doubling_disagreement <= 1e-8


# ---------------------------------------------------------------------------
# tail extraction


def test_tail_extract_synthetic():
    i = np.arange(201)
    log_pi = math.log(0.3) - 0.8 * i
    fit = ht.tail_extract(log_pi, lambda j: -0.8 * j, (50, 150))
    assert fit.passed
    assert fit.constant == pytest.approx(0.3, rel=1e-12)
    assert fit.variation <= 1e-12
    assert fit.window == (50, 150)
    assert fit.log_constants.shape == (101,)


def test_tail_extract_lindley(lindley_result):
    _, res = lindley_result
    fit = ht.tail_extract(res.log_pi, lambda j: -BETA * j, (100, 300))
    assert fit.passed
    assert fit.constant == pytest.approx(4.0 / 7.0, abs=1e-8)
    assert fit.variation <= 1e-8


def test_tail_extract_detects_drifting_constant():
    i = np.arange(201)
    log_pi = -0.8 * i + 0.001 * i
    fit = ht.tail_extract(log_pi, lambda j: -0.8 * j, (50, 150))
    assert not fit.passed
    assert fit.variation > 0.01


def test_tail_extract_window_errors():
    log_pi = np.zeros(100)
    with pytest.raises(ht.StateRangeError):
        ht.tail_extract(log_pi, lambda j: 0.0, (50, 150))
    with pytest.raises(ht.StateRangeError):
        ht.tail_extract(log_pi, lambda j: 0.0, (60, 40))


# ---------------------------------------------------------------------------
# local-rate expansion coefficients


def test_cramer_coefficients_worked_pair():
    R = ht.cramer_coefficients((2.0, 3.0), {(1, 1): 1.0}, 2)
    np.testing.assert_allclose(R, [-0.5, 0.0625], atol=1e-15)
    assert ht.cramer_series_residual((2.0, 3.0), {(1, 1): 1.0}, R) <= 1e-15


@given(
    m1=st.floats(0.2, 5.0),
    m2=st.floats(-3.0, 3.0),
    d11=st.floats(-2.0, 2.0),
)
def test_cramer_low_orders_closed_form(m1, m2, d11):
    R = ht.cramer_coefficients((m1, m2), {(1, 1): d11}, 2)
    assert R[0] == pytest.approx(-1.0 / m1, rel=1e-12)
    assert R[1] == pytest.approx(d11 / m1**2 - m2 / (2.0 * m1**3), rel=1e-9, abs=1e-12)


def test_cramer_back_substitution_random():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        M = int(rng.integers(1, 6))
        m = rng.normal(size=M)
        m[0] = rng.choice([-1.0, 1.0]) * (0.5 + abs(m[0]))
        D = {}
        for k in range(1, M + 1):
            for j in range(1, M - k + 1):
                if rng.random() < 0.5:
                    D[(k, j)] = float(rng.normal())
        R = ht.cramer_coefficients(m, D, M)
        assert ht.cramer_series_residual(m, D, R) <= 1e-10


def test_cramer_coefficients_errors():
    with pytest.raises(ht.UnsupportedInputError):
        ht.cramer_coefficients((1.0,), {}, 0)
    with pytest.raises(ht.UnsupportedInputError):
        ht.cramer_coefficients((1.0,), {}, 2)
    with pytest.raises(ht.UnsupportedInputError):
        ht.cramer_coefficients((0.0, 1.0), {}, 2)


# ---------------------------------------------------------------------------
# tail-rate models


def test_build_beta_fn_constant(example3_family):
    model = ht.build_beta_fn(example3_family, mode="constant")
    assert model.mode == "constant"
    assert model.coefficients == ()
    assert model.beta_limit == pytest.approx(BETA, abs=1e-14)
    assert model.predict_log_tail(10) == pytest.approx(-10 * BETA, abs=1e-12)
    assert model.meta["hypotheses_verified"]


def test_build_beta_fn_first_order(example3_family):
    model = ht.build_beta_fn(example3_family, mode="alpha-over-m")
    assert len(model.coefficients) == 1
    # R_1 = -1/m_1 with m_1 = p e^b - q e^-b = 0.4, scale e^b - e^-b = 40/21
    scale = 7.0 / 3.0 - 3.0 / 7.0
    assert model.coefficients[0] == pytest.approx(-scale / 0.4, rel=1e-12)
    assert model.meta["hypotheses_verified"]
    x = 9
    expect = BETA + model.coefficients[0] * example3_family.alpha_profile.value(x)
    assert model.beta_at(x) == pytest.approx(expect, rel=1e-12)


def test_build_beta_fn_series(example3_family):
    model = ht.build_beta_fn(example3_family, mode="cramer-series", order=2)
    assert len(model.coefficients) == 2
    assert model.meta["hypotheses_verified"]
    assert model.meta["series_residual"] <= 1e-12
    first = ht.build_beta_fn(example3_family, mode="alpha-over-m").coefficients[0]
    assert model.coefficients[0] == pytest.approx(first, rel=1e-12)


def test_build_beta_fn_fit_fallback(example3_family):
    # strip the closed-form moment data by renaming the family
    anon = dataclasses.replace(example3_family, name="custom-drift")
    model = ht.build_beta_fn(anon, mode="alpha-over-m")
    assert not model.meta["hypotheses_verified"]
    assert "fit_residual" in model.meta
    scale = 7.0 / 3.0 - 3.0 / 7.0
    assert model.coefficients[0] == pytest.approx(-scale / 0.4, rel=0.05)


def test_build_beta_fn_guards(example3_family, down_walk):
    with pytest.raises(ht.UnsupportedInputError):
        ht.build_beta_fn(example3_family, mode="quadratic")
    with pytest.raises(ht.UnsupportedInputError):
        ht.build_beta_fn(ht.perturbed_reflected_walk(), mode="constant")
    plain = ht.lindley_chain(down_walk)
    with pytest.raises(ht.UnsupportedInputError):
        ht.build_beta_fn(plain, mode="alpha-over-m")


def test_profile_integrals():
    prof = ht.PowerAlpha(c0=0.05, exponent=-0.6)
    x = 37.0
    assert prof.integral_power(1, x) == pytest.approx(
        0.05 * ((1 + x) ** 0.4 - 1.0) / 0.4, rel=1e-12
    )
    alt = ht.AlternatingAlpha(c0=0.05, gamma=0.7)
    # partial sums of the signed profile stay bounded by the first term
    sums = [alt.integral_power(1, x) for x in range(1, 200)]
    assert max(abs(s) for s in sums) <= 0.05 + 1e-12


# ---------------------------------------------------------------------------
# regeneration over a low set


def test_entry_measure(lindley_result):
    fam, res = lindley_result
    kernel = fam.kernel(96)
    e = ht.entry_measure(kernel, res.log_pi, 5)
    assert set(e) == {6}
    assert e[6] == pytest.approx(math.exp(res.log_pi[5]) * 0.3, rel=1e-12)


def test_renewal_pure_death_oracle():
    rows = {i: {-1: 1.0} for i in range(1, 61)}
    kernel = ht.kernel_from_rows(rows, truncation=60, band_lo=1, band_hi=1, state_lo=1)
    U, diag = ht.renewal_measure(kernel, {5: 1.0}, K_range=10, tol=1e-10)
    np.testing.assert_allclose(U, [1, 1, 1, 1, 1, 0, 0, 0, 0, 0], atol=1e-9)
    assert diag["certificate"] == "absorption"
    assert diag["error_bound"] <= 1e-10


def test_renewal_requires_certificate(lindley_result, down_walk):
    fam, _ = lindley_result
    # the reflecting row at zero has positive mean: no absorption certificate,
    # and the downward drift rules out the escape certificate
    with pytest.raises(ht.UnsupportedInputError):
        ht.renewal_measure(fam.kernel(400), {0: 1.0}, K_range=30)
    flat = ht.LatticeWalk.from_dict({1: 0.5, -1: 0.5})
    killed = ht.walk_killed_at_negative(flat).kernel(400)
    with pytest.raises(ht.UnsupportedInputError):
        ht.renewal_measure(killed, {0: 1.0}, K_range=30)


def test_regeneration_identity_lindley(lindley_result):
    fam, res = lindley_result
    N = 5
    kernel = fam.kernel(200)
    killed = kernel.kill(range(N + 1))
    assert killed.state_lo == N + 1
    e = ht.entry_measure(kernel, res.log_pi, N)
    U, diag = ht.renewal_measure(killed, e, K_range=18, tol=1e-14)
    assert diag["certificate"] == "absorption"
    pi = np.exp(res.log_pi)
    for i in range(N + 1, 19):
        rel = abs(U[i - (N + 1)] - pi[i]) / pi[i]
        assert rel <= 1e-6


def test_regeneration_transformed_lindley(lindley_result):
    fam, res = lindley_result
    N = 5
    kernel = fam.kernel(200)
    killed = kernel.kill(range(N + 1))

    def h(i):
        return (7.0 / 3.0) ** (i - (N + 1)) - 3.0 / 7.0

    hat = ht.doob_transform(killed, h, level=N, residual_tol=1e-8)
    assert hat.meta["max_row_defect"] <= 1e-8
    e = ht.entry_measure(kernel, res.log_pi, N)
    e_hat = {i: v * h(i) for i, v in e.items()}
    U, diag = ht.renewal_measure(hat, e_hat, K_range=120, tol=1e-12)
    assert diag["certificate"] == "escape"
    pi = np.exp(res.log_pi)
    for i in range(N + 1, 121):
        target = pi[i] * h(i)
        rel = abs(U[i - (N + 1)] - target) / target
        assert rel <= 1e-6


def test_regeneration_identity_example3(example3_family, example3_result):
    res = example3_result
    N = 6
    kernel = example3_family.kernel(300)
    killed = kernel.kill(range(N + 1))
    e = ht.entry_measure(kernel, res.log_pi, N)
    U, diag = ht.renewal_measure(killed, e, K_range=19, tol=1e-14)
    assert diag["certificate"] == "absorption"
    pi = np.exp(res.log_pi)
    for i in range(N + 1, 20):
        rel = abs(U[i - (N + 1)] - pi[i]) / pi[i]
        assert rel <= 1e-6


def test_regeneration_transformed_example3(example3_family, example3_result):
    # a pure exponential tilt is not harmonic for the killed chain, but the
    # transform identity holds for any positive h; skip the defect check
    res = example3_result
    N = 6
    kernel = example3_family.kernel(300)
    killed = kernel.kill(range(N + 1))

    def h(i):
        return math.exp(BETA * (i - (N + 1)))

    hat = ht.doob_transform(killed, h, level=N, residual_tol=None)
    assert hat.meta["max_row_defect"] > 0.1  # genuinely non-harmonic
    e = ht.entry_measure(kernel, res.log_pi, N)
    e_hat = {i: v * h(i) for i, v in e.items()}
    U, diag = ht.renewal_measure(hat, e_hat, K_range=120, tol=1e-12)
    pi = np.exp(res.log_pi)
    for i in range(N + 1, 121):
        target = pi[i] * h(i)
        rel = abs(U[i - (N + 1)] - target) / target
        assert rel <= 1e-6


def test_conditioned_walk_renewal(down_walk):
    killed = ht.walk_killed_at_negative(down_walk).kernel(300)

    def h(i):
        return (7.0 / 3.0) ** i - 3.0 / 7.0

    hat = ht.doob_transform(killed, h, level=-1, residual_tol=1e-10)
    assert hat.state_lo == 0
    U, diag = ht.renewal_measure(hat, {0: 1.0}, K_range=100, tol=1e-10)
    # long-run density of the conditioned walk: 1 / (mean of the tilted step)
    dev = np.abs(U[60:] - 2.5)
    assert np.max(dev) <= 0.025

    row = hat.row(100)
    tilted = np.array([0.3, 0.0, 0.7])
    tv = 0.5 * float(np.abs(row - tilted).sum())
    assert tv <= 1e-3


def test_doob_transform_guards(down_walk):
    killed = ht.walk_killed_at_negative(down_walk).kernel(300)
    with pytest.raises(ht.UnsupportedInputError):
        ht.doob_transform(killed, lambda i: float(i - 5), level=0)
    with pytest.raises(ht.InternalConsistencyError):
        ht.doob_transform(killed, lambda i: 1.0, level=-1, residual_tol=1e-8)
    # skipping the check records the defect instead
    hat = ht.doob_transform(killed, lambda i: 1.0, level=-1, residual_tol=None)
    assert hat.meta["max_row_defect"] == pytest.approx(0.7, abs=1e-12)


# ---------------------------------------------------------------------------
# the direct renewal solve and the array-built Doob transform against the
# loops they replaced


def _renewal_by_iteration(kernel, start, K_range, top):
    """sum_n mu P^n on the window state_lo..top by the mu -> mu P loop,
    run until the mass left in the window is 1e-20 of the smallest output."""
    lo, bl = kernel.state_lo, kernel.band_lo
    rows = kernel.rows(lo, top)
    mu = np.zeros(top - lo + 1)
    for s, wt in start.items():
        mu[s - lo] += wt
    U = mu.copy()
    while mu.sum() > 1e-20 * U[: K_range - lo + 1].min():
        mu = ht.kernels.band_rmatvec(rows, bl, mu)
        U += mu
    return U[: K_range - lo + 1]


def _regeneration_cases(lindley_result, example3_family, example3_result):
    cases = []
    for fam, res, N, K_kernel, h, residual_tol in (
        (lindley_result[0], lindley_result[1], 5, 200,
         lambda i: (7.0 / 3.0) ** (i - 6) - 3.0 / 7.0, 1e-8),
        (example3_family, example3_result, 6, 300, lambda i: math.exp(BETA * (i - 7)), None),
    ):
        kernel = fam.kernel(K_kernel)
        killed = kernel.kill(range(N + 1))
        e = ht.entry_measure(kernel, res.log_pi, N)
        hat = ht.doob_transform(killed, h, level=N, residual_tol=residual_tol)
        cases.append((killed, e, 18 if N == 5 else 19, 1e-14))
        cases.append((hat, {i: v * h(i) for i, v in e.items()}, 120, 1e-12))
    return cases


def test_renewal_solve_matches_iteration(lindley_result, example3_family, example3_result,
                                         down_walk):
    cases = _regeneration_cases(lindley_result, example3_family, example3_result)
    killed = ht.walk_killed_at_negative(down_walk).kernel(300)
    hat = ht.doob_transform(killed, lambda i: (7.0 / 3.0) ** i - 3.0 / 7.0, level=-1)
    cases.append((hat, {0: 1.0}, 100, 1e-10))
    for kernel, start, K_range, tol in cases:
        U, diag = ht.renewal_measure(kernel, start, K_range=K_range, tol=tol)
        assert diag["iterations"] == 0 and diag["error_bound"] <= tol
        ref = _renewal_by_iteration(kernel, start, K_range, diag["window_top"])
        assert np.max(np.abs(U / ref - 1.0)) <= 1e-12


def test_renewal_window_charge_over_tol(lindley_result):
    # the window is sized for unit start mass; 1e30 of it leaves too much
    killed = lindley_result[0].kernel(200).kill(range(6))
    with pytest.raises(ht.SolverFailure) as exc:
        ht.renewal_measure(killed, {6: 1e30}, K_range=18, tol=1e-14)
    assert exc.value.reason == "window"


def test_regeneration_identity_near_critical():
    # a = 0.49: the climb exponent is log(51/49) ~ 0.04, so the certified
    # window runs to ~1500 states
    a, N = 0.49, 5
    rho = a / (1 - a)
    fam = ht.lindley_chain(ht.LatticeWalk.from_dict({1: a, -1: 1 - a}))
    log_pi = np.log(1 - rho) + np.arange(301) * math.log(rho)
    kernel = fam.kernel(300)
    e = ht.entry_measure(kernel, log_pi, N)
    U, diag = ht.renewal_measure(kernel.kill(range(N + 1)), e, K_range=18, tol=1e-14)
    assert diag["certificate"] == "absorption"
    assert np.max(np.abs(U / np.exp(log_pi[N + 1 : 19]) - 1.0)) <= 1e-6


def _doob_by_row_loop(kernel, h, level):
    """Explicit rows of doob_transform as the per-row, per-column loop built them."""
    bl, lo = kernel.band_lo, level + 1

    def hat_row(i):
        base = kernel.row(i)
        out = np.zeros_like(base)
        for c in np.flatnonzero(base):
            j = i + c - bl
            if j > level:
                out[c] = base[c] * h(j) / h(i)
        return out

    top = max(kernel.truncation, lo + 64)
    return np.array([hat_row(i) for i in range(lo, top + 1)]), hat_row


def test_doob_transform_rows_match_row_loop(lindley_result, example3_family, down_walk):
    # the loop called h at the numpy integers of np.flatnonzero, the array
    # build calls it at Python ints, and float ** int rounds differently for
    # the two, so each h here reads its state through int()
    killed_walk = ht.walk_killed_at_negative(down_walk)
    for kernel, h, level in (
        (lindley_result[0].kernel(200).kill(range(6)),
         lambda i: (7.0 / 3.0) ** (int(i) - 6) - 3.0 / 7.0, 5),
        (example3_family.kernel(300).kill(range(7)), lambda i: math.exp(BETA * (int(i) - 7)), 6),
        # not killed: the weight on states at and below the level must go
        (example3_family.kernel(300), lambda i: math.exp(BETA * (int(i) - 7)), 6),
        (killed_walk.kernel(300), lambda i: (7.0 / 3.0) ** int(i) - 3.0 / 7.0, -1),
        (killed_walk.kernel(40), lambda i: (7 / 3) ** (int(i) + 1) - 1, -1),
    ):
        hat = ht.doob_transform(kernel, h, level=level, residual_tol=None)
        weights, hat_row = _doob_by_row_loop(kernel, h, level)
        assert np.array_equal(hat.weights, weights)
        top = hat.truncation
        tail = hat.rows(top + 1, top + 5)
        assert np.array_equal(tail, np.array([hat_row(i) for i in range(top + 1, top + 6)]))
