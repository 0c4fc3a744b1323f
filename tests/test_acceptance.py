"""End-to-end acceptance checks, one test per criterion.

Each test states its tolerance inline and prints a single summary line on
success, so a verbose run reads as a pass/fail scoreboard.
"""

import json
import math
import time

import numpy as np
import pytest

import harmonictails as ht
from conftest import collapsed_chain
from harmonictails.cli import main as cli_main

RATIO = 3.0 / 7.0
BETA = math.log(7.0 / 3.0)


def exact_f(i, alpha=2.0):
    f0 = alpha * (1 - RATIO) / (1 - alpha * RATIO)
    return 1.0 - RATIO**i + RATIO**i * f0


def test_criterion_01_example1_exactness():
    t0 = time.perf_counter()
    fam = ht.perturbed_reflected_walk(p=0.7, alpha=2.0)
    kernel = fam.kernel(8)

    est = ht.build_solve(kernel, K=400)
    assert abs(est.value(0) - 8.0) <= 1e-6
    worst = max(abs(est.value(i) - (1.0 + 7.0 * RATIO**i)) for i in range(21))
    assert worst <= 1e-6

    # Monte Carlo paths run the embedded chain, the walk reflected at 0 for
    # every alpha, to the weight alpha^(visits to 0).  At alpha = 2 that weight
    # has an infinite variance (alpha^2 q/p = 12/7 > 1) and no standard error
    # bounds an estimate, so the chain the paths run on, excursions above its
    # top collapsed, is solved: f = e^delta P_c f, f = 1 at the escape
    pc, dense = collapsed_chain(kernel, 0, n_paths=100_000)
    n = len(dense)
    w = kernel.rows(0, pc.end).sum(axis=1)  # e^delta
    f = np.linalg.solve(np.eye(n) - w[:, None] * dense[:, :n], w * dense[:, n])
    for i in range(21):  # a start above top comes down by its entry law, or escapes
        law = np.diff(pc.entry(i), prepend=0.0) if i > pc.end else np.eye(n)[i]
        fi = law @ f[n - law.size :] + (1.0 - law.sum())
        assert abs(fi - (1.0 + 7.0 * RATIO**i)) <= 1e-10 * fi
    # the same paths at alpha = 1.2, whose weights have a finite variance (0.62)
    kernel = ht.perturbed_reflected_walk(p=0.7, alpha=1.2).kernel(8)
    mc = ht.build_mc(kernel, states=(0, 1, 2), n_paths=100_000, horizon=100_000, seed=7)
    for i in (0, 1, 2):
        assert abs(mc.values[i] - exact_f(i, alpha=1.2)) <= 3.0 * mc.std_errors[i]

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 01 PASS ({elapsed:.1f}s): solve err {worst:.2e}, path chain solved, "
          "MC within 3 SE")


def test_criterion_02_example1_trichotomy():
    # subcritical: solves and tends to one
    sub = ht.build_solve(ht.perturbed_reflected_walk(p=0.7, alpha=2.0).kernel(8), K=400)
    assert abs(sub.value(300) - 1.0) <= 1e-6

    # critical: the truncated solve cannot settle (the surviving harmonic
    # function decays like (q/p)^i, incompatible with the boundary value 1)
    with pytest.raises(ht.SolverFailure):
        ht.build_solve(ht.perturbed_reflected_walk(p=0.7, alpha=7.0 / 3.0).kernel(8), K=400)
    crit = ht.reflected_walk_harmonic_exact(7.0 / 3.0, 0.7, np.arange(10))
    np.testing.assert_allclose(crit, RATIO ** np.arange(10), rtol=1e-12)

    # supercritical: closed form reports non-existence, solver fails too
    with pytest.raises(ht.NoPositiveHarmonicError):
        ht.reflected_walk_harmonic_exact(3.0, 0.7, 0)
    with pytest.raises(ht.SolverFailure):
        ht.build_solve(ht.perturbed_reflected_walk(p=0.7, alpha=3.0).kernel(8), K=400)

    print("criterion 02 PASS: subcritical solves, critical and supercritical flagged")


def test_criterion_03_example2_threshold():
    t0 = time.perf_counter()
    below = ht.multi_perturbed_walk((1.2, 1.5), p=0.7)  # product 1.8 < 7/3
    est = ht.build_solve(below.kernel(10), K=400)
    assert abs(est.value(0) - 4.5) <= 1e-6
    assert abs(est.value(350) - 1.0) <= 1e-6

    above = ht.multi_perturbed_walk((1.6, 1.6), p=0.7)  # product 2.56 > 7/3
    with pytest.raises(ht.SolverFailure):
        ht.build_solve(above.kernel(10), K=400)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 03 PASS ({elapsed:.1f}s): 1.8 solves with f->1, 2.56 flagged")


def _random_down_walk(rng):
    while True:
        L = int(rng.integers(1, 4))
        U = int(rng.integers(1, 4))
        pmf = rng.dirichlet(np.ones(L + U + 1))
        walk = ht.LatticeWalk(lo=-L, pmf=pmf)
        down_mass = pmf[:L].sum()
        up_mass = pmf[L + 1 :].sum()
        if walk.mean <= -0.1 and down_mass >= 0.05 and up_mass >= 0.05:
            return walk


def _check_ladder_equivalence(walk, i_max, ratio_tol, mult_tol):
    h = ht.killed_walk_harmonic(walk, i_max)
    beta, ladder_form, f_min = h.beta, h.ladder_form, h.minimum_form
    mult = ht.equivalence_multiplier(walk)

    ratio = f_min / ladder_form
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) <= ratio_tol
    assert abs(ratio[0] - mult) <= mult_tol * mult

    # envelope: exp(beta i) - exp(-beta) <= f <= exp(beta i), with relative
    # slack because the values reach 1e18 scale at the top of the range
    i = np.arange(i_max + 1)
    upper = np.exp(beta * i)
    lower = upper - math.exp(-beta)
    assert np.all(f_min <= upper * (1.0 + 1e-9))
    assert np.all(f_min >= lower * (1.0 - 1e-9) - 1e-12)
    return ratio, mult


def test_criterion_04_ladder_equivalence():
    t0 = time.perf_counter()
    walk = ht.LatticeWalk.from_dict({1: 0.3, -1: 0.7})
    ratio, mult = _check_ladder_equivalence(walk, 50, ratio_tol=1e-10, mult_tol=1e-10)
    assert np.max(np.abs(ratio - 4.0 / 7.0)) <= 1e-10
    assert abs(mult - 4.0 / 7.0) <= 1e-10

    rng = np.random.default_rng(20240823)
    for _ in range(5):
        w = _random_down_walk(rng)
        _check_ladder_equivalence(w, 50, ratio_tol=1e-6, mult_tol=1e-6)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"criterion 04 PASS ({elapsed:.1f}s): ratio 4/7 exact, 5 random walks constant")


def test_criterion_05_lindley_tail():
    walk = ht.LatticeWalk.from_dict({1: 0.3, -1: 0.7})
    res = ht.stationary_solve(ht.lindley_chain(walk), 400)
    exact = (4.0 / 7.0) * RATIO ** np.arange(401)
    assert np.max(np.abs(res.pi - exact)) <= 1e-10

    fit = ht.tail_extract(res.log_pi, lambda i: -BETA * i, (100, 300))
    assert abs(fit.constant - 4.0 / 7.0) <= 1e-8
    assert fit.variation <= 1e-8
    print(f"criterion 05 PASS: pi exact to {np.max(np.abs(res.pi - exact)):.1e}, "
          f"c = {fit.constant:.12f}")


def test_criterion_06_example3_alternating():
    t0 = time.perf_counter()
    fam = ht.alternating_drift_chain(p=0.3, c0=0.05, gamma=0.7)
    res = ht.stationary_solve(fam, 4000)
    up, down = ht.birth_death_rates(fam)
    lp = ht.birth_death_closed_form(up, down, 4000)
    assert np.max(np.abs(res.log_pi - lp)) <= 1e-10

    model = ht.build_beta_fn(fam, mode="constant")
    fit = ht.tail_extract(res.log_pi, model.predict_log_tail, (2000, 3000))
    assert fit.variation <= 0.01
    assert fit.constant > 0.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 06 PASS ({elapsed:.1f}s): closed-form match, variation "
          f"{fit.variation:.2e}, c = {fit.constant:.4f}")


def test_criterion_07_power_drift_correction():
    fam = ht.power_drift_chain(p=0.3, c0=0.05, exponent=-0.6)
    res = ht.stationary_solve(fam, 4000)

    naive = ht.build_beta_fn(fam, mode="constant")
    fit_naive = ht.tail_extract(res.log_pi, naive.predict_log_tail, (2000, 3000))
    assert not fit_naive.passed
    assert fit_naive.variation > 0.01

    corrected = ht.build_beta_fn(fam, mode="alpha-over-m")
    fit_corr = ht.tail_extract(res.log_pi, corrected.predict_log_tail, (2000, 3000),
                               variation_tol=0.02)
    assert fit_corr.passed
    assert fit_corr.variation <= 0.02
    print(f"criterion 07 PASS: constant mode varies {fit_naive.variation:.3f}, "
          f"corrected {fit_corr.variation:.2e}")


def test_criterion_08_cramer_coefficients():
    rng = np.random.default_rng(88)
    for _ in range(20):
        m1 = float(rng.choice([-1.0, 1.0]) * (0.3 + rng.random() * 3.0))
        m2 = float(rng.normal())
        d11 = float(rng.normal())
        R = ht.cramer_coefficients((m1, m2), {(1, 1): d11}, 2)
        assert R[0] == -1.0 / m1  # exact
        expect2 = d11 / m1**2 - m2 / (2.0 * m1**3)
        assert abs(R[1] - expect2) <= 1e-12 * max(1.0, abs(expect2))

    for _ in range(20):
        M = int(rng.integers(1, 6))
        m = rng.normal(size=M)
        m[0] = float(rng.choice([-1.0, 1.0])) * (0.5 + abs(m[0]))
        D = {(k, j): float(rng.normal())
             for k in range(1, M + 1) for j in range(1, M - k + 1)}
        R = ht.cramer_coefficients(m, D, M)
        assert ht.cramer_series_residual(m, D, R) <= 1e-10
    print("criterion 08 PASS: R1 exact, R2 to 1e-12, back-substitution to 1e-10")


def _regeneration_check(family, res, N, K_low, K_high, h):
    kernel = family.kernel(300)
    killed = kernel.kill(range(N + 1))
    e = ht.entry_measure(kernel, res.log_pi, N)
    pi = np.exp(res.log_pi)

    U, _ = ht.renewal_measure(killed, e, K_range=K_low, tol=1e-14)
    worst_lo = max(
        abs(U[i - (N + 1)] - pi[i]) / pi[i] for i in range(N + 1, K_low + 1)
    )

    hat = ht.doob_transform(killed, h, level=N, residual_tol=None)
    e_hat = {i: v * h(i) for i, v in e.items()}
    Uh, _ = ht.renewal_measure(hat, e_hat, K_range=K_high, tol=1e-12)
    worst_hi = max(
        abs(Uh[i - (N + 1)] - pi[i] * h(i)) / (pi[i] * h(i))
        for i in range(N + 1, K_high + 1)
    )
    return worst_lo, worst_hi


def test_criterion_09_invariant_suites():
    # harmonicity residuals for every constructed harmonic function
    ex1 = ht.perturbed_reflected_walk(p=0.7, alpha=2.0)
    est1 = ht.build_solve(ex1.kernel(8), K=400)
    assert ht.verify_harmonicity(ex1.kernel(8), est1, range(0, 390)) <= 1e-8

    ex2 = ht.multi_perturbed_walk((1.2, 1.5), p=0.7)
    est2 = ht.build_solve(ex2.kernel(10), K=400)
    assert ht.verify_harmonicity(ex2.kernel(10), est2, range(0, 390)) <= 1e-8

    walk = ht.LatticeWalk.from_dict({1: 0.3, -1: 0.7})
    killed_fam = ht.walk_killed_at_negative(walk)
    f_min = ht.killed_walk_harmonic(walk, 60).minimum_form
    assert ht.verify_harmonicity(killed_fam.kernel(70), dict(enumerate(f_min)),
                                 range(0, 50)) <= 1e-8

    # regeneration and transform-consistency on the Lindley chain
    lind = ht.lindley_chain(walk)
    res_l = ht.stationary_solve(lind, 400)
    lo_l, hi_l = _regeneration_check(
        lind, res_l, N=5, K_low=18, K_high=120,
        h=lambda i: (7.0 / 3.0) ** (i - 6) - 3.0 / 7.0,
    )
    assert lo_l <= 1e-6
    assert hi_l <= 1e-6

    # and on the alternating-drift chain
    fam3 = ht.alternating_drift_chain(p=0.3, c0=0.05, gamma=0.7)
    res_3 = ht.stationary_solve(fam3, 400)
    lo_3, hi_3 = _regeneration_check(
        fam3, res_3, N=6, K_low=19, K_high=120,
        h=lambda i: math.exp(BETA * (i - 7)),
    )
    assert lo_3 <= 1e-6
    assert hi_3 <= 1e-6

    # conditioned walk: renewal density tends to 1 / (tilted mean step)
    hat = ht.doob_transform(killed_fam.kernel(300),
                            lambda i: (7.0 / 3.0) ** i - 3.0 / 7.0,
                            level=-1, residual_tol=1e-10)
    U, _ = ht.renewal_measure(hat, {0: 1.0}, K_range=100, tol=1e-10)
    assert np.max(np.abs(U[60:] / 2.5 - 1.0)) <= 0.01

    print(f"criterion 09 PASS: residuals <= 1e-8; regeneration "
          f"{max(lo_l, lo_3):.1e}, transform {max(hi_l, hi_3):.1e}, "
          f"renewal limit within 1%")


def test_criterion_10_reproducibility(tmp_path):
    cfg = tmp_path / "repro.json"
    cfg.write_text(json.dumps({
        "task": "harmonic-mc",
        "chain": {"name": "example1", "p": 0.7, "alpha": 2.0},
        "params": {"seed": 7, "n_paths": 5000, "horizon": 50000,
                   "states": [0, 1, 2]},
    }))
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", str(cfg), "--out", str(a), "--quiet"]) == 0
    assert cli_main(["run", str(cfg), "--out", str(b), "--quiet"]) == 0
    csv_a = (a / "repro.csv").read_bytes()
    assert csv_a == (b / "repro.csv").read_bytes()
    assert (a / "repro.manifest.json").read_bytes() == (b / "repro.manifest.json").read_bytes()
    print(f"criterion 10 PASS: two runs byte-identical ({len(csv_a)} CSV bytes)")
