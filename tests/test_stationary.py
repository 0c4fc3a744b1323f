"""Stationary laws, tail extraction, rate expansions, regeneration identities."""

import dataclasses
import math
import re
import runpy
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import harmonictails as ht
import harmonictails.cli  # noqa: F401  (ht.cli below)
from conftest import lindley_exact_log_pi, parametric_family_twin
from harmonictails.stationary import _truncated_stationary

BETA = math.log(7.0 / 3.0)


@pytest.fixture(scope="module")
def example3_result(example3_family):
    return ht.stationary_solve(example3_family, 2000)


# ---------------------------------------------------------------------------
# stationary solves


def test_lindley_stationary_exact(lindley_result):
    fam, res = lindley_result
    # the rows from state 1 on are the limit row: the exact path at every K
    exact = [res, ht.stationary_solve(fam, 2000)]
    for ex in exact:
        assert ex.method == "matrix-geometric"
        assert ex.meta["first_passage_residual"] <= 1e-12
        assert (ex.meta["homogeneous_level"], ex.meta["level_size"]) == (1, 1)
        assert ex.doubling_disagreement is None and ex.reflected_weight == 0.0
    # the same rows as a parametric tail: the truncated solve reflects the
    # jumps above K and checks by doubling
    trunc = ht.stationary_solve(parametric_family_twin(fam), 400)
    assert trunc.method == "linear-solve"
    assert trunc.reflected_weight == pytest.approx(0.3, abs=1e-12)
    assert trunc.doubling_disagreement is not None
    assert trunc.doubling_disagreement <= 1e-8
    for r in (*exact, trunc):
        assert np.max(np.abs(r.log_pi - lindley_exact_log_pi(r.K))) <= 1e-10
        assert r.tilt_beta == pytest.approx(BETA, abs=1e-14)
        assert r.normalization_error <= 1e-8
        assert r.pi.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ht.StateRangeError):
        res.log_value(401)
    with pytest.raises(ht.StateRangeError):
        res.log_value(-1)


def _custom_boundary(fam, rng):
    """The Lindley chain's limit row above its homogeneous level plus three,
    random stochastic rows below."""
    kernel = fam.kernel(fam.homogeneous_from + 3)
    off = kernel.offsets
    w = kernel.weights.copy()
    for r in range(len(w) - 1):
        w[r] = rng.dirichlet(np.ones(off.size)) * (r + off >= 0)
        w[r] /= w[r].sum()
    return ht.StochasticKernel(band_lo=kernel.band_lo, band_hi=kernel.band_hi, weights=w,
                               tail=kernel.tail)


def test_exact_stationary_matches_truncated_solve():
    # Lindley chains of band widths 3 to 11 and, over the same limit rows,
    # random stochastic boundary rows: the truncated solve at K = 3000 has
    # converged on 0..K/2, and log pi agrees there to 1e-11
    rng = np.random.default_rng(12)
    K, cases = 3000, 0
    for fam in _seeded_lindley_chains(rng):
        if not fam.band_hi:
            continue
        for chain, kernel in ((fam, fam.kernel(2 * K)), 2 * (_custom_boundary(fam, rng),)):
            res = ht.stationary_solve(chain, K)
            ref = _truncated_stationary(kernel, K, res.tilt_beta, True, 1e-8)
            assert res.method == "matrix-geometric" and res.meta["first_passage_residual"] <= 1e-12
            assert res.meta["balance_residual"] <= 1e-12 and res.doubling_disagreement is None
            assert np.max(np.abs(res.log_pi[: K // 2 + 1] - ref.log_pi[: K // 2 + 1])) <= 1e-11
            cases += 1
    assert cases == 14


def test_exact_stationary_with_a_row_that_jumps_past_its_level():
    # row 0 jumps up 3 while the tail walk steps +-1 (levels of one state
    # from h = 1): y is geometric only from state 3 on, which the remainder
    # past the window must start from for the law to sum to one
    tail = ht.HomogeneousTail(np.array([0.7, 0.0, 0.3, 0.0, 0.0]))
    kernel = ht.kernel_from_rows({0: {0: 0.2, 3: 0.8}}, 0, 1, 3, tail=tail, stochastic=True)
    K = 400
    res = ht.stationary_solve(kernel, K)
    ref = _truncated_stationary(kernel, K, res.tilt_beta, True, 1e-8)
    assert res.method == "matrix-geometric" and res.meta["homogeneous_level"] == 1
    assert res.normalization_error <= 1e-12
    assert np.max(np.abs(res.log_pi[: K // 2 + 1] - ref.log_pi[: K // 2 + 1])) <= 1e-11


def test_exact_solve_with_a_row_that_jumps_past_its_direct_block():
    # row 0 jumps up 1500 with weight 2 while the tail walk steps +-1 (levels
    # of one state from h = 1): g = 1 - f is geometric only from state 1500
    # on, so the direct block must start there to hold that jump.  The walk
    # falls from 1500 to 0 with chance x = (.497 / .503)^1500, so
    # f(0) = 2 f(1500) = 2 (1 - x) / (1 - 2x), 2 (1 + x) within 1e-15
    tail = ht.HomogeneousTail(np.r_[0.497, 0.0, 0.503, np.zeros(1499)])
    kernel = ht.kernel_from_rows({0: {1500: 2.0}}, 0, 1, 1500, tail=tail)
    est = ht.build_solve(kernel, 3000)
    assert est.method == "matrix-geometric" and est.meta["homogeneous_level"] == 1
    assert est.value(0) == pytest.approx(2.0 * (1.0 + (0.497 / 0.503) ** 1500), rel=1e-12)
    # K = 400 is short of s + 2m - 1 = 1501: the truncated solve runs, and
    # its boundary at K has not decoupled
    assert ht.build_solve(kernel, 400, check_doubling=False).method == "linear-solve"
    with pytest.raises(ht.SolverFailure) as exc:
        ht.build_solve(kernel, 400)
    assert exc.value.reason == "doubling"


def test_stationary_beta_only_rescales(down_walk):
    fam = ht.lindley_chain(down_walk)
    res = ht.stationary_solve(fam, 2000)
    for beta in (0.5, BETA, 1.0):
        other = ht.stationary_solve(fam, 2000, beta=beta)
        assert other.method == "matrix-geometric" and other.tilt_beta == beta
        assert other.log_pi.tobytes() == res.log_pi.tobytes()
        i = np.arange(2001)
        np.testing.assert_allclose(other.y, np.exp(res.log_pi + beta * i), rtol=1e-13)
    # pi(2000) = exp(-1694) underflows: beta = 0 cannot carry it
    with pytest.raises(ht.SolverFailure) as exc:
        ht.stationary_solve(fam, 2000, beta=0.0)
    assert exc.value.reason == "non-finite"


def test_stationary_truncated_cases():
    # a walk on 2Z, a parametric tail and a window short of the two levels
    # above h = 1 that the closure couples
    gcd2 = ht.lindley_chain(ht.LatticeWalk.from_dict({-2: 0.6, 0: 0.1, 2: 0.3}))
    lind = ht.lindley_chain(ht.LatticeWalk.from_dict({-1: 0.7, 1: 0.3}))
    ex3 = ht.alternating_drift_chain(p=0.3, c0=0.05, gamma=0.7)
    for chain, K in ((gcd2, 2000), (ex3, 2000), (lind, 1)):
        assert ht.stationary_solve(chain, K, check_doubling=False).method == "linear-solve"
    assert ht.stationary_solve(lind, 2).method == "matrix-geometric"


def test_truncated_power_drift_solve_memory_peak():
    # K = 20000 with doubling: the 2K rows, the two solution vectors and the
    # K window's own band storage hold about 2.56 MB at once, the 2K window's
    # storage freed before the K window is assembled; keeping it alive would
    # add 0.48 MB
    fam = ht.power_drift_chain(0.3, 0.05, -0.6)
    ht.stationary_solve(fam, 100)  # loads LAPACK outside the trace
    tracemalloc.start()
    try:
        res = ht.stationary_solve(fam, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.method == "linear-solve"
    assert peak < 2.7e6, f"peak {peak / 1e6:.2f} MB"


def test_stationary_without_compensation(down_walk):
    fam = ht.lindley_chain(down_walk)
    res = ht.stationary_solve(fam, 60, beta=0.0, check_doubling=False)
    assert res.doubling_disagreement is None
    exact = lindley_exact_log_pi(60)
    assert np.max(np.abs(res.log_pi[:31] - exact[:31])) <= 1e-9


def test_stationary_doubling_failure():
    # drift -0.02, the rows read as a parametric tail: the reflected windows
    # at 20 and 40 disagree on 0..10
    chain = ht.lindley_chain(ht.LatticeWalk.from_dict({1: 0.49, -1: 0.51}))
    with pytest.raises(ht.SolverFailure) as exc:
        ht.stationary_solve(parametric_family_twin(chain), K=20)
    assert exc.value.reason == "doubling"
    assert set(exc.value.diagnostics) == {"disagreement", "K"}
    assert exc.value.diagnostics["K"] == 20
    assert exc.value.diagnostics["disagreement"] == pytest.approx(0.349, abs=1e-3)


def test_near_critical_exact_stationary_matches_closed_form():
    # the chain above with its homogeneous level: the exact law at K = 20 is
    # geometric, pi(i) = (1 - rho) rho^i with rho = 0.49 / 0.51
    chain = ht.lindley_chain(ht.LatticeWalk.from_dict({1: 0.49, -1: 0.51}))
    res = ht.stationary_solve(chain, K=20)
    assert res.method == "matrix-geometric"
    rho = 0.49 / 0.51
    exact = math.log(1 - rho) + np.arange(21) * math.log(rho)
    assert np.max(np.abs(res.log_pi - exact)) <= 1e-12


def test_stationary_bare_kernel_tilt():
    # without beta, a bare kernel's homogeneous tail gives the limit walk (the
    # same law as its family's) on either route, and a parametric tail gives
    # none; a walk on 2Z takes the truncated route
    walk = ht.LatticeWalk.from_dict({1: 0.3, -1: 0.7})
    for steps, K, method in (({1: 0.3, -1: 0.7}, 40, "matrix-geometric"),
                             ({2: 0.3, 0: 0.1, -2: 0.6}, 100, "linear-solve")):
        chain = ht.lindley_chain(ht.LatticeWalk.from_dict(steps))
        bare = ht.stationary_solve(chain.kernel(2 * K), K=K)
        assert bare.method == method and bare.tilt_beta == ht.cramer_root(chain.limit_walk)
        assert np.array_equal(bare.log_pi, ht.stationary_solve(chain, K=K).log_pi)
    rule = lambda s: np.tile([0.7, 0.0, 0.3], (len(s), 1))  # noqa: E731
    parametric = ht.TransitionKernel(band_lo=1, band_hi=1, weights=np.array([[0.0, 0.7, 0.3]]),
                                     tail=ht.ParametricTail(rule, 0.0))
    with pytest.raises(ht.UnsupportedInputError, match="limiting jump law"):
        ht.stationary_solve(parametric, K=40)
    assert ht.stationary_solve(parametric, K=40, beta=ht.cramer_root(walk)).K == 40


def test_stationary_needs_negative_drift():
    up = ht.LatticeWalk.from_dict({1: 0.7, -1: 0.3})
    with pytest.raises(ht.UnsupportedInputError):
        ht.stationary_solve(ht.lindley_chain(up), 100)


@pytest.mark.parametrize("K", [0, -1, -7])
def test_stationary_window_needs_K_at_least_one(down_walk, K):
    with pytest.raises(ht.StateRangeError):
        ht.stationary_solve(ht.lindley_chain(down_walk), K)


def test_homogeneous_rows_are_built_once():
    walk = ht.LatticeWalk.from_dict({-2: 0.175, -1: 0.4, 0: 0.125, 1: 0.3})
    fam = ht.lindley_chain(walk)
    asked = []

    def counting(states):
        asked.append(len(states))
        return fam.row_rule(states)

    res = ht.stationary_solve(dataclasses.replace(fam, row_rule=counting), 500)
    assert sum(asked) <= fam.homogeneous_from + 1
    ref = ht.stationary_solve(fam, 500)
    assert res.log_pi.tobytes() == ref.log_pi.tobytes()

    # the explicit row at homogeneous_from is the limit row, so a family whose
    # limit row is not stochastic is still refused
    def heavy(states):
        rows = fam.row_rule(states)
        rows[states >= fam.homogeneous_from] *= 1.1
        return rows

    bad = dataclasses.replace(fam, row_rule=heavy, limit_pmf=fam.limit_pmf * 1.1)
    with pytest.raises(ht.UnsupportedInputError, match="sums to"):
        ht.stationary_solve(bad, 500)


def _count_calls(monkeypatch, name):
    """The first argument of every call of ladder.<name> from now on."""
    from harmonictails import ladder

    calls, f = [], getattr(ladder, name)
    monkeypatch.setattr(ladder, name, lambda walk, *a, **kw: calls.append(walk) or f(walk, *a, **kw))
    return calls


def test_stationary_solves_certify_once_per_family(monkeypatch):
    roots = _count_calls(monkeypatch, "cramer_root")
    passages = _count_calls(monkeypatch, "_first_passage")
    lind = ht.lindley_chain(ht.LatticeWalk.from_dict({-2: 0.175, -1: 0.4, 0: 0.125, 1: 0.3}))
    drift = ht.power_drift_chain(0.3, 0.05, -0.6)
    # exact: the tail walk's root and its tilted G; truncated: the limit walk's root
    for fam, K, method, G in [(lind, 2000, "matrix-geometric", 1), (drift, 400, "linear-solve", 0)]:
        roots.clear()
        passages.clear()
        first = ht.stationary_solve(fam, K)
        assert (first.method, len(roots), len(passages)) == (method, 1, G)
        again = ht.stationary_solve(fam, K)
        ht.build_beta_fn(fam, mode="constant")
        assert (len(roots), len(passages)) == (1, G)
        assert again.log_pi.tobytes() == first.log_pi.tobytes()
        fresh = ht.stationary_solve(dataclasses.replace(fam), K)
        assert (len(roots), len(passages)) == (2, 2 * G)
        assert fresh.log_pi.tobytes() == first.log_pi.tobytes()


def test_stationary_solves_certify_once_per_kernel(monkeypatch):
    roots = _count_calls(monkeypatch, "cramer_root")
    kernel = ht.lindley_chain(ht.LatticeWalk.from_dict({-1: 0.7, 1: 0.3})).kernel(8)
    first = ht.stationary_solve(kernel, 400)
    for _ in range(2):
        assert ht.stationary_solve(kernel, 400).log_pi.tobytes() == first.log_pi.tobytes()
    # the tail row keeps its walk, and the walk its root
    assert len(roots) == 1


def test_a_family_its_kernels_and_their_chains_share_one_walk():
    fam = ht.lindley_chain(ht.LatticeWalk.from_dict({-1: 0.7, 1: 0.3}))
    k = fam.kernel(8)
    assert fam.limit_walk is ht.ladder._tail_walk(k) is ht.ladder._tail_walk(k.embed())
    assert ht.ladder._tail_walk(fam.homogeneous_kernel()) is fam.limit_walk
    # zero steps at the ends of the limit row are cut: one walk of steps -1, 1
    padded = ht.cli.build_chain({"name": "general", "band_lo": 2, "band_hi": 1,
                                 "rows": {"0": {"1": 1.0}}, "tail_row": {"-1": 0.7, "1": 0.3}})
    assert padded.limit_walk is ht.ladder._tail_walk(padded.homogeneous_kernel())
    assert (padded.limit_walk.lo, padded.limit_walk.pmf.tolist()) == (-1, [0.7, 0.0, 0.3])


def test_family_kernel_and_walks_keep_nothing_after_replace():
    fam = ht.lindley_chain(ht.LatticeWalk.from_dict({-1: 0.7, 1: 0.3}))
    ht.stationary_solve(fam, 2000)
    kernel = fam.homogeneous_kernel()
    walk = ht.ladder._tail_walk(kernel)
    assert fam.limit_walk is fam.limit_walk and fam.homogeneous_kernel() is kernel
    assert kernel.kept and walk.kept["certified_root"] == ht.cramer_root(walk)
    for obj in (fam, kernel, walk, fam.limit_walk):
        assert dataclasses.replace(obj).kept == {}
    copy = dataclasses.replace(fam)
    assert copy.homogeneous_kernel() is not kernel and copy.limit_walk is not fam.limit_walk
    with pytest.raises(ht.UnsupportedInputError, match="no homogeneous level"):
        ht.power_drift_chain().homogeneous_kernel()


def test_overflowing_tilt_fails_where_the_rows_are_assembled(monkeypatch):
    fam = ht.cli.build_chain({"name": "general", "band_lo": 1, "band_hi": 1,
                              "rows": {"0": {"1": 1e308}}, "tail_row": {"-1": 0.7, "1": 0.3}})
    solves = []
    monkeypatch.setattr(ht.stationary, "band_solve", lambda *a, **kw: solves.append(a))
    for K in (400, 2000):  # truncated, then exact
        with pytest.raises(ht.SolverFailure, match="overflow when tilted") as exc:
            ht.stationary_solve(fam, K)
        assert exc.value.reason == "non-finite" and solves == []


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
    assert np.array_equal(fit.predicted, -0.8 * np.arange(50, 151))
    assert np.array_equal(fit.log_constants, log_pi[50:151] - fit.predicted)


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
    # predict_log gets the window's states as one array; a callable of one
    # state is refused unless wrapped in np.vectorize
    with pytest.raises(ht.UnsupportedInputError, match="np.vectorize"):
        ht.tail_extract(log_pi, lambda j: 0.0, (10, 40))
    fit = ht.tail_extract(log_pi, np.vectorize(lambda j: -0.5 * math.sqrt(j)), (10, 40))
    assert fit.predicted.tolist() == [-0.5 * math.sqrt(j) for j in range(10, 41)]


@pytest.mark.parametrize("mode,order", [("constant", 1), ("alpha-over-m", 1),
                                        ("cramer-series", 2), ("cramer-series", 3)])
@pytest.mark.parametrize("family", [ht.alternating_drift_chain(0.3, 0.05, 0.7),
                                    ht.power_drift_chain(0.3, 0.05, -0.6)], ids=["alt", "power"])
def test_predict_log_tail_on_an_array_matches_each_state(family, mode, order):
    model = ht.build_beta_fn(family, mode=mode, order=order)
    states = np.arange(0, 400)
    each = [model.predict_log_tail(int(i)) for i in states]
    assert all(type(v) is float for v in each)
    assert model.predict_log_tail(states).tobytes() == np.array(each).tobytes()
    res = ht.stationary_solve(family, 400)
    fit = ht.tail_extract(res.log_pi, model.predict_log_tail, (150, 350))
    assert fit.predicted.tobytes() == np.array(each[150:351]).tobytes()


def test_tail_mode_comparison_script_passes(monkeypatch, capsys):
    # scripts/tail_mode_comparison.py at exponent -0.6: the first-order
    # correction settles the fitted constant
    script = Path(__file__).resolve().parents[1] / "scripts" / "tail_mode_comparison.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--exponent", "-0.6"])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert re.search(r"^alpha-over-m +[^ ]+ +[^ ]+ +passes$", out, re.MULTILINE), out


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


@pytest.mark.parametrize("gamma", [math.nan, 0.0])
def test_alternating_drift_chain_refuses_nan(gamma):
    with pytest.raises(ht.UnsupportedInputError, match="gamma must be positive"):
        ht.alternating_drift_chain(p=0.3, c0=0.05, gamma=gamma)


@pytest.mark.parametrize("exponent", [math.nan, 0.0])
def test_power_drift_chain_refuses_nan(exponent):
    with pytest.raises(ht.UnsupportedInputError, match="must decay"):
        ht.power_drift_chain(p=0.3, c0=0.05, exponent=exponent)


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


def test_entry_measure_above_the_solved_range_is_refused(lindley_result):
    fam, res = lindley_result
    kernel = fam.kernel(len(res.log_pi) + 8)
    assert ht.entry_measure(kernel, res.log_pi, len(res.log_pi) - 1)
    for level in (len(res.log_pi), len(res.log_pi) + 3):
        with pytest.raises(ht.StateRangeError, match=f"^level {level} outside the solved range"):
            ht.entry_measure(kernel, res.log_pi, level)


def test_entry_measure_below_zero_is_refused(lindley_result):
    fam, res = lindley_result
    with pytest.raises(ht.StateRangeError, match="^level -5 outside the solved range"):
        ht.entry_measure(fam.kernel(96), res.log_pi, -5)


def test_renewal_range_below_the_first_state_is_refused(lindley_result):
    fam, _ = lindley_result
    killed = fam.kernel(200).kill(range(6))
    assert killed.state_lo == 6
    U, _ = ht.renewal_measure(killed, {6: 1.0}, K_range=6)
    assert len(U) == 1
    with pytest.raises(ht.StateRangeError, match="renewal range ends at 3, below the first state 6"):
        ht.renewal_measure(killed, {6: 1.0}, K_range=3)


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


# ---------------------------------------------------------------------------
# the compensated solve against the assembly it replaced


def _reference_compensated_solve(block, band_lo, beta):
    """The earlier assembly: a copy of the whole block, the reflect loop over
    it, the broadcast tilt, I - P filled from -block and mu P from fresh
    products; the pin and the solve as in the library."""
    from harmonictails.kernels import band_pin, band_solve

    n, W = block.shape
    P = np.array(block)
    reflected = 0.0
    for c in range(band_lo + 1, W):
        k = min(c - band_lo, n)
        over = np.arange(n - k, n)
        reflected += float(P[over, c].sum())
        P[over, n - 1 - over + band_lo] += P[over, c]
        P[over, c] = 0.0
    tilted = P * np.exp(beta * (np.arange(W) - band_lo).astype(float))
    ab = np.zeros((W, n))
    for c in range(W):
        off = c - band_lo
        lo, hi = max(0, -off), min(n, n - off)
        ab[c, lo:hi] = -tilted[lo:hi, c]
    ab[band_lo] += 1.0
    lu = (W - 1 - band_lo, band_lo)
    band_pin(lu, ab, 0)
    rhs = np.zeros(n)
    rhs[0] = 1.0
    z = band_solve(lu, ab, rhs)
    norm = np.exp(-beta * np.arange(n).astype(float)) @ z
    y = np.clip(z / norm, 1e-300, None)
    yP = np.zeros(n)
    for c in range(W):
        off = c - band_lo
        k = min(abs(off), n)
        vals = y * tilted[:, c]
        if off >= 0:
            yP[k:] += vals[: n - k]
        else:
            yP[: n - k] += vals[k:]
    balance = yP - y
    return y, reflected, float(np.max(np.abs(balance[1:])) / max(1.0, float(np.abs(y).max())))


def _seeded_lindley_chains(rng):
    """Lindley chains of random walks with negative mean, band widths 2 to 11."""
    for band_lo, band_hi in [(1, 0), (1, 1), (2, 1), (1, 2), (3, 2), (2, 4), (4, 4), (3, 7)]:
        off = np.arange(-band_lo, band_hi + 1)
        pmf = rng.dirichlet(np.ones(off.size))
        while pmf @ off >= -0.05:  # push the mass down until the walk drifts down
            pmf = pmf * np.exp(-0.5 * off)
            pmf /= pmf.sum()
        yield ht.lindley_chain(ht.LatticeWalk(lo=-band_lo, pmf=pmf))


def test_compensated_solve_matches_reference_assembly():
    from harmonictails.stationary import _compensated_solves

    rng = np.random.default_rng(12)
    cases = 0
    for fam in _seeded_lindley_chains(rng):
        bl, bh = fam.band_lo, fam.band_hi
        betas = [0.0] + ([ht.cramer_root(fam.limit_walk)] if bh else [])
        for n in sorted({2, bh, bh + 1, 40, 300} - {0, 1}):  # windows up to band_hi included
            block = fam.kernel(max(n - 1, bl)).rows(0, n - 1)
            for beta in betas:
                (y,), reflected, residual = _compensated_solves([block], bl, beta, (n,))
                y0, reflected0, residual0 = _reference_compensated_solve(block, bl, beta)
                assert y.tobytes() == y0.tobytes(), (bl, bh, n, beta)
                assert (reflected, residual) == (reflected0, residual0), (bl, bh, n, beta)
                cases += 1
    assert cases == 61


def test_compensated_pair_matches_reference_assembly():
    # each window assembles its own system, and the norm weights stop where
    # exp(-beta i) is exactly 0; both solves equal the reference's,
    # homogeneous and parametric tails, windows short enough and long enough
    # to cut the norm
    from harmonictails.stationary import _compensated_solves

    rng = np.random.default_rng(13)
    cases = cut = 0
    for fam in _seeded_lindley_chains(rng):
        bl, bh = fam.band_lo, fam.band_hi
        betas = [0.0] + ([ht.cramer_root(fam.limit_walk)] if bh else [])
        parametric = dataclasses.replace(fam, homogeneous_from=None).kernel(3 * bl + 2)
        for kernel in (fam.kernel(fam.homogeneous_from), parametric):
            for n in sorted({2, bh + 1, 40, 2100} - {0, 1}):  # 2n - 1 rows: one block or two
                rows = kernel.row_blocks(0, 2 * n - 2)
                block = kernel.rows(0, 2 * n - 2)
                for beta in betas:
                    ys, reflected, residual = _compensated_solves(rows, bl, beta, (n, 2 * n - 1))
                    y0, reflected0, residual0 = _reference_compensated_solve(block[:n], bl, beta)
                    y1, _, _ = _reference_compensated_solve(block, bl, beta)
                    assert ys[0].tobytes() == y0.tobytes(), (bl, bh, n, beta)
                    assert ys[1].tobytes() == y1.tobytes(), (bl, bh, n, beta)
                    assert (reflected, residual) == (reflected0, residual0), (bl, bh, n, beta)
                    cases += 1
                    cut += beta * n > 746.0  # both windows' norms cut
    assert cases == 110 and cut >= 8, (cases, cut)


def test_discounted_sum_cut_matches_full_length():
    # exp(-beta i) is exactly 0 from i = 746 / beta on, and the sum stops at
    # the next multiple of 64: it equals the dot over the full length, bit
    # for bit, at lengths around multiples of 64 and at rates whose 746 / beta
    # falls just below, on or just above one; no cut at beta <= 0
    from harmonictails.stationary import _discounted_sum

    rng = np.random.default_rng(14)
    betas = [0.0, -0.01, 0.9, 3.0, 746.0] + [
        746.0 / (64 * k + d) for k in (1, 2, 5, 16) for d in (-0.5, -1e-9, 0.0, 1e-9, 0.5)]
    lengths = sorted({1, 2, 63, 64, 65, 127, 128, 129}
                     | {64 * k + d for k in (2, 5, 16, 17, 40) for d in (-1, 0, 1)})
    cut = 0
    for beta in betas:
        for n in lengths:
            # products of order one up to i = 700 / beta, so that the order
            # in which the dot adds them shows in the last bits
            y = rng.uniform(0.5, 2.0, n) * np.exp(np.clip(beta * np.arange(n), None, 700.0))
            ref = float(np.exp(-beta * np.arange(n, dtype=float)) @ y)
            assert _discounted_sum(beta, y) == ref, (beta, n)
            cut += beta * n > 746.0
    assert cut >= 100, cut
