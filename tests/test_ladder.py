import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import harmonictails as ht


def test_cramer_root_simple(down_walk):
    beta = ht.cramer_root(down_walk)
    assert beta == pytest.approx(math.log(7 / 3), abs=1e-12)
    assert down_walk.mgf(beta) == pytest.approx(1.0, abs=1e-12)


def test_cramer_root_two_up_steps():
    # E e^{b xi} = 1 for {+2: 0.2, -1: 0.8} reduces to x^3 - 5x + 4 = 0 with
    # x = e^b, whose root above one is (sqrt(17) - 1) / 2
    w = ht.LatticeWalk.from_dict({2: 0.2, -1: 0.8})
    beta = ht.cramer_root(w)
    assert beta == pytest.approx(math.log((math.sqrt(17) - 1) / 2), abs=1e-10)
    assert w.mgf(beta) == pytest.approx(1.0, abs=1e-12)


def test_cramer_root_requires_negative_mean_and_up_steps():
    with pytest.raises(ht.NoCramerRootError):
        ht.cramer_root(ht.LatticeWalk.from_dict({1: 0.7, -1: 0.3}))
    with pytest.raises(ht.NoCramerRootError):
        ht.cramer_root(ht.LatticeWalk.from_dict({-1: 0.6, -2: 0.4}))


def test_tilt_walk(down_walk):
    beta = math.log(7 / 3)
    tilted = ht.tilt_walk(down_walk, beta)
    assert tilted.pmf == pytest.approx([0.3, 0.0, 0.7], abs=1e-12)
    assert tilted.mean == pytest.approx(0.4, abs=1e-12)
    with pytest.raises(ht.InconsistentRootError):
        ht.tilt_walk(down_walk, 0.5)


@given(
    up=st.floats(0.05, 0.45),
    spread=st.sampled_from([1, 2, 3]),
)
def test_tilted_walk_has_positive_mean(up, spread):
    w = ht.LatticeWalk.from_dict({spread: up, -1: 1.0 - up})
    assume(w.mean < -1e-3)
    beta = ht.cramer_root(w)
    tilted = ht.tilt_walk(w, beta)
    assert tilted.mean > 0.0


def test_ladder_height_proper_and_defective(down_walk):
    lad = ht.ladder_height(down_walk)
    assert lad.chi_pmf[1] == pytest.approx(1.0, abs=1e-10)
    assert lad.defect == pytest.approx(0.0, abs=1e-10)

    tilted = ht.tilt_walk(down_walk, math.log(7 / 3))
    lad_t = ht.ladder_height(tilted)
    assert lad_t.chi_pmf[1] == pytest.approx(3 / 7, abs=1e-10)
    assert lad_t.defect == pytest.approx(4 / 7, abs=1e-10)


def test_ladder_height_against_simulation():
    w = ht.LatticeWalk.from_dict({1: 0.2, -1: 0.4, -2: 0.4})
    lad = ht.ladder_height(w)
    assert lad.defect == pytest.approx(0.0, abs=1e-9)

    rng = np.random.default_rng(12345)
    n = 200_000
    depths = np.zeros(n, dtype=int)
    pos = np.zeros(n, dtype=int)
    alive = np.ones(n, dtype=bool)
    steps = np.array([1, -1, -2])
    probs = np.array([0.2, 0.4, 0.4])
    for _ in range(500):
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        jump = rng.choice(steps, size=idx.size, p=probs)
        pos[idx] += jump
        done = pos[idx] < 0
        depths[idx[done]] = -pos[idx[done]]
        alive[idx[done]] = False
    assert not alive.any()
    for depth in (1, 2):
        freq = float(np.mean(depths == depth))
        p = lad.chi_pmf[depth]
        se = math.sqrt(p * (1 - p) / n)
        assert abs(freq - p) < 4 * se + 1e-9


def test_renewal_mass_oracles():
    unit = ht.LadderData(chi_pmf=np.array([0.0, 1.0]), defect=0.0)
    assert ht.renewal_mass(unit, 20) == pytest.approx(np.ones(21))

    uniform = ht.LadderData(chi_pmf=np.array([0.0, 0.5, 0.5]), defect=0.0)
    u = ht.renewal_mass(uniform, 40)
    assert u[1] == pytest.approx(0.5)
    assert u[2] == pytest.approx(0.75)
    # long-run density 1 / E chi
    assert u[40] == pytest.approx(2 / 3, abs=1e-10)

    defective = ht.LadderData(chi_pmf=np.array([0.0, 3 / 7]), defect=4 / 7)
    u_d = ht.renewal_mass(defective, 12)
    assert u_d == pytest.approx((3 / 7) ** np.arange(13))


def test_renewal_long_run_density():
    w = ht.LatticeWalk.from_dict({1: 0.2, -1: 0.4, -2: 0.4})
    lad = ht.ladder_height(w).with_renewal(80)
    assert lad.u[80] == pytest.approx(1.0 / lad.mean(), abs=1e-6)


def test_ladder_form_closed(down_walk):
    beta = math.log(7 / 3)
    lad = ht.ladder_height(down_walk).with_renewal(60)
    f = np.array([ht.ladder_harmonic(lad, beta, i) for i in range(51)])
    want = (7 / 4) * (7 / 3) ** np.arange(51) - 3 / 4
    assert np.max(np.abs(f / want - 1)) < 1e-10


def test_tilted_minimum_closed(down_walk):
    beta = math.log(7 / 3)
    f = ht.tilted_minimum_harmonic(down_walk, 50, beta=beta)
    want = (7 / 3) ** np.arange(51) - 3 / 7
    assert np.max(np.abs(f / want - 1)) < 1e-10

    # envelope: exp(beta i) - exp(-beta) <= f <= exp(beta i)
    g = np.exp(beta * np.arange(51))
    assert np.all(f <= g * (1 + 1e-9))
    assert np.all(f >= (g - math.exp(-beta)) * (1 - 1e-9) - 1e-12)


def test_ratio_is_equivalence_multiplier(down_walk):
    beta = math.log(7 / 3)
    lad = ht.ladder_height(down_walk).with_renewal(50)
    ladder_form = np.array([ht.ladder_harmonic(lad, beta, i) for i in range(51)])
    tmin = ht.tilted_minimum_harmonic(down_walk, 50, beta=beta, original_ladder=lad)
    mult = ht.equivalence_multiplier(down_walk, beta=beta)
    assert mult == pytest.approx(4 / 7, abs=1e-12)
    assert np.max(np.abs(tmin / ladder_form - mult)) < 1e-10


def test_ratio_constant_for_wider_band():
    w = ht.LatticeWalk.from_dict({1: 0.15, 2: 0.1, -1: 0.3, -2: 0.45})
    beta = ht.cramer_root(w)
    lad = ht.ladder_height(w).with_renewal(40)
    ladder_form = np.array([ht.ladder_harmonic(lad, beta, i) for i in range(41)])
    tmin = ht.tilted_minimum_harmonic(w, 40, beta=beta, original_ladder=lad)
    ratio = tmin / ladder_form
    mult = ht.equivalence_multiplier(w, beta=beta)
    assert np.max(np.abs(ratio / ratio[0] - 1)) < 1e-6
    assert ratio[0] == pytest.approx(mult, rel=1e-6)


def test_ladder_harmonic_is_harmonic_for_killed_walk(down_walk):
    beta = math.log(7 / 3)
    lad = ht.ladder_height(down_walk).with_renewal(60)
    kernel = ht.walk_killed_at_negative(down_walk).kernel(8)
    res = ht.verify_harmonicity(
        kernel, lambda i: ht.ladder_harmonic(lad, beta, i), range(45)
    )
    assert res < 1e-8


def test_ruin_exponent(down_walk):
    tilted = ht.tilt_walk(down_walk, math.log(7 / 3))
    # the tilted walk's ruin exponent is the original root itself
    assert ht.ruin_exponent(tilted) == pytest.approx(math.log(7 / 3), abs=1e-10)
    up_only = ht.LatticeWalk.from_dict({1: 1.0})
    assert ht.ruin_exponent(up_only) == math.inf
    with pytest.raises(ht.UnsupportedInputError):
        ht.ruin_exponent(down_walk)


def test_walk_from_dict_validation():
    with pytest.raises(ht.UnsupportedInputError):
        ht.LatticeWalk.from_dict({1: 0.4, -1: 0.4})  # mass not one
    with pytest.raises(ht.UnsupportedInputError):
        ht.LatticeWalk.from_dict({1: -0.2, -1: 1.2})


def _ladder_by_iteration(walk, mass_tol=1e-13, max_iter=200_000):
    """The sub-probability-measure iteration that ladder_height replaced:
    run the walk on the nonnegative lattice and harvest the mass at its first
    step below zero, until the alive mass (or, for an upward drift, its
    Lundberg leak bound) drops below ``mass_tol``."""
    L = -walk.lo
    chi = np.zeros(L + 1)
    v = np.ones(1)
    rexp = ht.ruin_exponent(walk) if walk.mean > 0 else None
    for _ in range(max_iter):
        w = np.convolve(v, walk.pmf)  # index k <-> position k - L
        for depth in range(1, L + 1):
            chi[depth] += w[L - depth]
        v = w[L:]
        if v.sum() < mass_tol:
            break
        if rexp is not None:
            leak = np.exp(-rexp * (np.arange(v.size) + 1.0))
            future = 0.0 if rexp == math.inf else float(v @ leak)
            if future < mass_tol:
                break
    else:
        raise AssertionError("reference iteration did not settle")
    return chi, max(0.0, 1.0 - chi.sum())


def _raw_and_tilted(walk):
    return [walk, ht.tilt_walk(walk, ht.cramer_root(walk))]


def _check_against_iteration(walk):
    lad = ht.ladder_height(walk)
    chi, defect = _ladder_by_iteration(walk)
    assert lad.meta["iterations"] == 0
    assert np.max(np.abs(lad.chi_pmf - chi)) <= 1e-12
    assert abs(lad.defect - defect) <= 1e-12


@pytest.mark.parametrize("a", [0.3, 0.45])
def test_ladder_roots_match_iteration_pm1(a):
    for walk in _raw_and_tilted(ht.LatticeWalk.from_dict({1: a, -1: 1 - a})):
        _check_against_iteration(walk)


def test_ladder_roots_match_iteration_random_walks():
    from test_acceptance import _random_down_walk

    rng = np.random.default_rng(7)
    for _ in range(20):
        _check_against_iteration(_random_down_walk(rng))


def test_ladder_roots_lattice_and_zero_mean():
    # steps in 2Z: the law lives on even depths
    for walk in _raw_and_tilted(ht.LatticeWalk.from_dict({2: 0.25, 0: 0.1, -2: 0.65})):
        _check_against_iteration(walk)
    # zero mean: z = 1 is a double root and the law is proper
    lad = ht.ladder_height(ht.LatticeWalk.from_dict({1: 0.5, -1: 0.5}))
    assert lad.chi_pmf[1] == 1.0 and lad.defect == 0.0
    with pytest.raises(ht.UnsupportedInputError):
        ht.ladder_height(ht.LatticeWalk.from_dict({-1: 0.0, 0: 1.0}))


def test_ladder_near_criticality():
    # at a = 0.49 the iteration needs ~10^5 steps raw and minutes tilted, so
    # the closed forms of the +-1 walk are the reference here
    a = 0.49
    raw, tilted = _raw_and_tilted(ht.LatticeWalk.from_dict({1: a, -1: 1 - a}))
    lad = ht.ladder_height(raw)
    assert lad.chi_pmf[1] == pytest.approx(1.0, abs=1e-12) and lad.defect <= 1e-12
    lad_t = ht.ladder_height(tilted)
    assert abs(lad_t.defect - (1 - 2 * a) / (1 - a)) <= 1e-12
    assert abs(lad_t.chi_pmf[1] - a / (1 - a)) <= 1e-12
    assert ht.equivalence_multiplier(raw) == pytest.approx((1 - 2 * a) / (1 - a), abs=1e-12)
