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


def test_cramer_root_of_zero_padded_walk():
    # a chain's limit walk is padded with zero steps out to its band: the
    # bracket is capped by the top step with mass, so {-1: .99, 1: .01}
    # padded to +200 keeps its root log 99, past 700 / 200
    padded = ht.LatticeWalk(lo=-1, pmf=np.concatenate([[0.99, 0.0, 0.01], np.zeros(199)]))
    assert padded.hi == 200
    assert ht.cramer_root(padded) == pytest.approx(math.log(99), rel=1e-14)
    # the root reads the pmf from its first to its last step with mass, so
    # padding changes no bit of it
    for pmf in ({-1: 0.99, 1: 0.01}, {-1: 0.7, 1: 0.3}, {2: 0.2, -1: 0.8},
                {-2: 0.175, -1: 0.4, 0: 0.125, 1: 0.3}, {-3: 0.5, -1: 0.4, 4: 0.1}):
        assert_padding_keeps_the_root(ht.LatticeWalk.from_dict(pmf))


PADDINGS = ((0, 1), (0, 63), (0, 64), (0, 199), (5, 200), (64, 0))


def assert_padding_keeps_the_root(walk):
    root = ht.cramer_root(walk)
    for below, above in PADDINGS:
        wide = ht.LatticeWalk(lo=walk.lo - below,
                              pmf=np.concatenate([np.zeros(below), walk.pmf, np.zeros(above)]))
        assert ht.cramer_root(wide) == root, (walk, below, above)


def test_cramer_root_of_padded_walks_near_zero_mean():
    # a flat mgf near the root is where Brent's method stops anywhere in the
    # interval where g rounds to 0: mean in (-0.05, -0.02), by mixing a random
    # law on -L..U with a step of -1 or +1
    rng = np.random.default_rng(0)
    for _ in range(300):
        L, U = rng.integers(1, 6, size=2)
        pmf = rng.dirichlet(np.ones(L + U + 1))
        mean, target = pmf @ np.arange(-L, U + 1), rng.uniform(-0.05, -0.02)
        if mean > target:
            step, t = -1, (mean - target) / (mean + 1)
        else:
            step, t = 1, (target - mean) / (1 - mean)
        pmf *= 1.0 - t
        pmf[L + step] += t
        walk = ht.LatticeWalk(lo=-int(L), pmf=pmf)
        assert -0.05 < walk.mean < -0.02
        assert_padding_keeps_the_root(walk)


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
    lad = ht.ladder_height(w)
    assert ht.renewal_mass(lad, 80)[80] == pytest.approx(1.0 / lad.mean(), abs=1e-6)


def test_ladder_form_closed(down_walk):
    f = ht.killed_walk_harmonic(down_walk, 50).ladder_form
    want = (7 / 4) * (7 / 3) ** np.arange(51) - 3 / 4
    assert np.max(np.abs(f / want - 1)) < 1e-10


def test_tilted_minimum_closed(down_walk):
    beta = math.log(7 / 3)
    f = ht.killed_walk_harmonic(down_walk, 50).minimum_form
    want = (7 / 3) ** np.arange(51) - 3 / 7
    assert np.max(np.abs(f / want - 1)) < 1e-10

    # envelope: exp(beta i) - exp(-beta) <= f <= exp(beta i)
    g = np.exp(beta * np.arange(51))
    assert np.all(f <= g * (1 + 1e-9))
    assert np.all(f >= (g - math.exp(-beta)) * (1 - 1e-9) - 1e-12)


def test_ratio_is_equivalence_multiplier(down_walk):
    h = ht.killed_walk_harmonic(down_walk, 50)
    ladder_form, tmin = h.ladder_form, h.minimum_form
    mult = ht.equivalence_multiplier(down_walk)
    assert mult == pytest.approx(4 / 7, abs=1e-12)
    assert np.max(np.abs(tmin / ladder_form - mult)) < 1e-10


def test_ratio_constant_for_wider_band():
    w = ht.LatticeWalk.from_dict({1: 0.15, 2: 0.1, -1: 0.3, -2: 0.45})
    h = ht.killed_walk_harmonic(w, 40)
    ratio = h.minimum_form / h.ladder_form
    mult = ht.equivalence_multiplier(w)
    assert np.max(np.abs(ratio / ratio[0] - 1)) < 1e-6
    assert ratio[0] == pytest.approx(mult, rel=1e-6)


def test_ladder_harmonic_is_harmonic_for_killed_walk(down_walk):
    f = ht.killed_walk_harmonic(down_walk, 60).ladder_form
    kernel = ht.walk_killed_at_negative(down_walk).kernel(8)
    res = ht.verify_harmonicity(kernel, lambda i: f[i], range(45))
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
    assert 1 <= lad.meta["iterations"] <= 64
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


@pytest.mark.parametrize("law", [{-40: 0.5, -1: 0.1, 1: 0.4}, {-50: 0.6, 1: 0.4},
                                 {-100: 0.6, 1: 0.4}])
def test_ladder_matches_iteration_wide_walks(law):
    # one up step against a deep down step: levels of L states
    for walk in _raw_and_tilted(ht.LatticeWalk.from_dict(law)):
        _check_against_iteration(walk)


@pytest.mark.parametrize("law, chi", [
    ({1: 0.6, -3: 0.2, 0: 0.2}, [1 / 3, 1 / 3, 1 / 3]),  # float mean -1.1e-16
    ({3: 0.1, -1: 0.3, 0: 0.6}, [1.0]),  # float mean +2.8e-17
    ({1: 0.7, -2: 0.2, -3: 0.1}, [3 / 7, 3 / 7, 1 / 7]),
])
def test_ladder_numerically_zero_mean(law, chi):
    # zero mean, proper law: chi(d) = P(step <= -d) / E step^- when the only
    # up step is +1, and chi = (0, 1) when L = 1
    walk = ht.LatticeWalk.from_dict(law)
    assert abs(walk.mean) < 2e-16
    lad = ht.ladder_height(walk)
    assert np.max(np.abs(lad.chi_pmf[1:] - chi)) <= 1e-15
    assert abs(lad.defect) <= 1e-15


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


def _renewal_by_loop(ladder, J):
    """The order-L recurrence that renewal_mass's banded solve replaced."""
    chi = ladder.chi_pmf
    L = ladder.depth_max
    u = np.zeros(J + 1)
    u[0] = 1.0
    for j in range(1, J + 1):
        top = min(j, L)
        stop = j - top - 1
        u[j] = float(chi[1 : top + 1] @ u[j - 1 : (stop if stop >= 0 else None) : -1])
    return u


def _random_walk(rng):
    """A negative-mean walk with down steps to -L, up steps to +U, L, U <= 4."""
    while True:
        L, U = (int(k) for k in rng.integers(1, 5, size=2))
        walk = ht.LatticeWalk(lo=-L, pmf=rng.dirichlet(np.full(L + U + 1, 0.7)))
        if walk.mean < -1e-3 and walk.pmf[L + 1 :].sum() > 1e-3:
            return walk


@pytest.mark.parametrize("block", [2**20, 64])
@pytest.mark.parametrize("a", [0.05, 0.3, 0.45, 0.49, 0.499])
def test_renewal_mass_bit_identical_for_pm1(a, block, monkeypatch):
    from harmonictails import ladder

    monkeypatch.setattr(ladder, "_RENEWAL_BLOCK_ENTRIES", block)
    for walk in _raw_and_tilted(ht.LatticeWalk.from_dict({1: a, -1: 1 - a})):
        lad = ht.ladder_height(walk)
        assert np.array_equal(ht.renewal_mass(lad, 3000), _renewal_by_loop(lad, 3000))


@pytest.mark.parametrize("block", [2**20, 64, 3])
def test_renewal_mass_matches_loop_wider_band(block, monkeypatch):
    from harmonictails import ladder

    monkeypatch.setattr(ladder, "_RENEWAL_BLOCK_ENTRIES", block)
    rng = np.random.default_rng(11)
    lads = [ht.LadderData(chi_pmf=np.array([0.0, 0.5, 0.5]), defect=0.0),
            ht.LadderData(chi_pmf=np.array([0.0]), defect=1.0)]
    for _ in range(30):
        walk = _random_walk(rng)
        lads += [ht.ladder_height(w) for w in _raw_and_tilted(walk)]
    for lad in lads:
        for J in (0, 1, lad.depth_max, 400):
            ref = _renewal_by_loop(lad, J)
            u = ht.renewal_mass(lad, J)
            assert u.shape == ref.shape
            assert np.max(np.abs(u - ref) / ref.clip(1e-300)) <= 1e-11


def test_brentq_matches_scipy(monkeypatch):
    from scipy.optimize import brentq

    from harmonictails import ladder

    calls = []

    def spy(*args, **kw):  # record cramer_root's brackets, answer with scipy
        calls.append((args, kw))
        return brentq(*args, **kw)

    monkeypatch.setattr(ladder, "_brentq", spy)
    rng = np.random.default_rng(2013)
    for k in range(200):
        a = float(rng.uniform(0.01, 0.499))
        walk = _random_walk(rng) if k % 4 else ht.LatticeWalk.from_dict({1: a, -1: 1 - a})
        ht.ruin_exponent(ht.tilt_walk(walk, ht.cramer_root(walk)))
    assert len(calls) == 400
    monkeypatch.undo()
    for (f, xa, xb), kw in calls:
        assert kw == {"xtol": 1e-15, "rtol": 8.9e-16}
        assert ladder._brentq(f, xa, xb, **kw) == brentq(f, xa, xb, **kw)
        # coarse tolerances lean on the step floor delta
        assert ladder._brentq(f, xa, xb, 1e-5, 1e-5) == brentq(f, xa, xb, xtol=1e-5, rtol=1e-5)


def test_brentq_out_of_iterations_is_no_cramer_root():
    from harmonictails import ladder

    f = lambda t: math.expm1(t) - 0.5  # noqa: E731
    assert ladder._brentq(f, 0.0, 1.0, 1e-15, 8.9e-16) == pytest.approx(math.log(1.5), abs=1e-15)
    with pytest.raises(ht.NoCramerRootError):
        ladder._brentq(f, 0.0, 1.0, 1e-15, 8.9e-16, maxiter=2)
    with pytest.raises(ht.NoCramerRootError):
        ladder._brentq(f, 1.0, 2.0, 1e-15, 8.9e-16)


def test_equivalence_multiplier_catches_a_wrong_tilted_law(monkeypatch):
    from harmonictails import ladder

    walk = ht.LatticeWalk.from_dict({2: 0.15, 1: 0.1, -1: 0.45, -2: 0.3})
    assert ht.killed_walk_harmonic(walk, 30).multiplier == ht.equivalence_multiplier(walk)
    # the two sides still check each other: a wrong tilted law is caught
    wrong = ht.LadderData(chi_pmf=np.array([0.0, 0.5]), defect=0.5)
    height = ladder.ladder_height
    monkeypatch.setattr(ladder, "ladder_height", lambda w: height(w) if w is walk else wrong)
    with pytest.raises(ht.InternalConsistencyError):
        ht.equivalence_multiplier(walk)
    with pytest.raises(ht.InternalConsistencyError):
        ht.killed_walk_harmonic(walk, 30)


def _count_cramer_roots(monkeypatch):
    """Record the walk of every cramer_root call made inside the ladder module."""
    from harmonictails import ladder

    calls = []
    root = ladder.cramer_root

    def counted(walk, *args, **kwargs):
        calls.append(walk)
        return root(walk, *args, **kwargs)

    monkeypatch.setattr(ladder, "cramer_root", counted)
    return calls


def test_ladder_callers_compute_the_root_once(monkeypatch):
    from harmonictails import ladder

    walk = ht.LatticeWalk.from_dict({2: 0.15, 1: 0.1, -1: 0.45, -2: 0.3})
    beta = ht.cramer_root(walk)
    mult = ht.equivalence_multiplier(walk)
    h = ht.killed_walk_harmonic(walk, 30)
    calls = _count_cramer_roots(monkeypatch)
    ruin = []
    monkeypatch.setattr(ladder, "ruin_exponent", lambda w: ruin.append(w))
    # ladder_height needs no root, raw or tilted
    ht.ladder_height(walk)
    ht.ladder_height(ht.tilt_walk(walk, beta))
    assert calls == [] and ruin == []
    heights, renewals = [], []
    height, renewal = ladder.ladder_height, ladder.renewal_mass
    monkeypatch.setattr(ladder, "ladder_height", lambda w: heights.append(w) or height(w))
    monkeypatch.setattr(ladder, "renewal_mass",
                        lambda lad, J: renewals.append(J) or renewal(lad, J))
    # the walk keeps its root: no root again, and one law each, raw and
    # tilted, with the same doubles
    assert ht.equivalence_multiplier(walk) == mult
    assert calls == []
    assert len(heights) == 2 and heights[0] is walk and renewals == []
    heights.clear()
    again = ht.killed_walk_harmonic(walk, 30)
    assert calls == []
    assert len(heights) == 2 and heights[0] is walk and renewals == [30, 30]
    assert again.beta == beta and again.multiplier == mult
    assert np.array_equal(again.ladder_form, h.ladder_form)
    assert np.array_equal(again.minimum_form, h.minimum_form)
    # a fresh walk of the same law finds its root once, for both callers
    fresh = ht.LatticeWalk.from_dict({2: 0.15, 1: 0.1, -1: 0.45, -2: 0.3})
    assert ht.equivalence_multiplier(fresh) == mult
    assert ht.killed_walk_harmonic(fresh, 30).beta == beta
    assert len(calls) == 1 and calls[0] is fresh
    assert ruin == []


# ---------------------------------------------------------------------------
# the first-passage matrix: the cyclic-reduction core of the ladder law


def _reference_ladder_height(walk):
    """The ladder law as computed before its cyclic-reduction core moved into
    ``_first_passage``: (chi, defect, iterations, residual), or the error."""
    support = walk.offsets[walk.pmf > 0]
    L = -walk.lo
    g = int(np.gcd.reduce(support))
    if g > 1:
        coarse = _reference_ladder_height(ht.LatticeWalk(lo=-(L // g), pmf=walk.pmf[L % g :: g]))
        chi = np.bincount(g * np.arange(coarse[0].size), coarse[0], L + 1)
        return (chi, *coarse[1:])
    m = max(L, walk.hi)
    law = np.zeros(4 * m + 1)
    law[2 * m - L : 2 * m + walk.hi + 1] = walk.pmf
    j = np.arange(m)
    at = j - j[:, None] + 2 * m
    down, level, up = (law[at + k] for k in (-m, 0, m))
    J, eye = np.full((m, m), 1.0 / m), np.eye(m)
    norm = lambda a: np.linalg.norm(a, np.inf)  # noqa: E731
    if walk.mean <= 0:
        b_down, b_level, b_up = down - down @ J, level + up @ J, up
    else:
        b_down, b_level, b_up = down, level + J @ down, up - J @ up
    shifted_down, hat = b_down, b_level
    for iterations in range(1, 65):
        x = np.linalg.solve(eye - b_level, np.hstack([b_down, b_up]))
        (dd, du), (ud, uu) = (np.vstack([b_down, b_up]) @ x).reshape(2, m, 2, m).swapaxes(1, 2)
        hat = hat + ud
        b_down, b_level, b_up = dd, b_level + du + ud, uu
        if min(norm(dd), norm(uu)) < 1e-18 or norm(ud) <= 2**-53 * norm(hat):
            break
    G = np.linalg.solve(eye - hat, shifted_down) + (J if walk.mean <= 0 else 0.0)
    residual = float(norm(down + level @ G + up @ G @ G - G))
    chi = np.concatenate([[0.0], G[0, m - L :][::-1]])
    return np.clip(chi, 0.0, None), max(0.0, 1.0 - float(G[0].sum())), iterations, residual


def test_ladder_height_keeps_its_bits_after_the_first_passage_split():
    # Dirichlet walks with reach 1..45 down and 0..20 up, each also pushed to
    # a mean within about 1e-3 of zero, the nearest-neighbour walks whose
    # shifted block is zero at once, and walks on 2Z and 3Z
    rng = np.random.default_rng(23)
    walks = [ht.LatticeWalk.from_dict(d) for d in (
        {-1: 0.3, 1: 0.7}, {-1: 0.7, 1: 0.3}, {-1: 0.5, 1: 0.5}, {-1: 0.2, 0: 0.3, 1: 0.5},
        {-2: 0.175, -1: 0.4, 0: 0.125, 1: 0.3}, {-2: 0.5, 2: 0.5}, {-3: 0.6, 3: 0.4},
        {-40: 0.5, -1: 0.1, 1: 0.4})]
    for L in (1, 2, 3, 5, 8, 13, 30, 45):
        for H in (0, 1, 2, 4, 9, 20):
            off = np.arange(-L, H + 1)
            pmf = rng.dirichlet(np.full(off.size, 0.7))
            walks.append(ht.LatticeWalk(lo=-L, pmf=pmf))
            if H:
                for _ in range(60):
                    pmf = pmf * np.exp(-0.3 * np.sign(pmf @ off) * off / max(L, H))
                    pmf /= pmf.sum()
                walks.append(ht.LatticeWalk(lo=-L, pmf=pmf))
    for walk in walks:
        want = _reference_ladder_height(walk)
        lad = ht.ladder_height(walk)
        assert lad.chi_pmf.tobytes() == want[0].tobytes(), walk
        assert (lad.defect, lad.meta["iterations"], lad.meta["residual"]) == want[1:]
    assert len(walks) == 8 + 8 * 6 + 8 * 5


def test_first_passage_solves_its_equation():
    from harmonictails.ladder import _first_passage

    # G is the minimal solution: substochastic for an upward mean, stochastic
    # otherwise; for the +-1 walk it is the ratio q/p, or 1
    G, iterations, residual = _first_passage(ht.LatticeWalk.from_dict({-1: 0.3, 1: 0.7}))
    assert G.shape == (1, 1) and G[0, 0] == pytest.approx(3 / 7, abs=1e-15)
    assert iterations == 1 and residual <= 1e-16
    G, _, _ = _first_passage(ht.LatticeWalk.from_dict({-1: 0.7, 1: 0.3}))
    assert G[0, 0] == 1.0
    walk = ht.LatticeWalk.from_dict({-2: 0.175, -1: 0.4, 0: 0.125, 1: 0.3})
    G, _, residual = _first_passage(walk)
    assert residual <= 1e-15 and np.allclose(G.sum(axis=1), 1.0, atol=1e-14)
    G, _, residual = _first_passage(walk.negated())
    assert residual <= 1e-15 and np.all(G.sum(axis=1) < 1.0) and np.all(G >= -1e-15)


def test_first_passage_enters_only_the_last_L_states():
    from harmonictails.ladder import _first_passage

    # a walk whose down steps are at most L enters the level below only at
    # its last L states: for a positive mean G = (I - A_hat)^-1 A_-1, whose
    # first m - L columns are those of A_-1, exact zeros, as in its powers
    rng = np.random.default_rng(29)
    walks = [ht.LatticeWalk.from_dict({-1: 0.5, b: 0.5}) for b in (2, 3, 10, 17, 60)]
    walks.append(ht.LatticeWalk.from_dict({-1: 0.3, 1: 0.3, 430: 0.4}))
    while len(walks) < 6 + 96:
        L, H = (int(k) for k in rng.integers(1, 25, size=2))
        walk = ht.LatticeWalk(lo=-L, pmf=rng.dirichlet(np.full(L + H + 1, 0.7)))
        if walk.mean > 1e-3 and H > L:
            walks.append(walk)
    for walk in walks:
        L = -walk.lo
        G, _, _ = _first_passage(walk)
        m = len(G)
        assert m == max(L, walk.hi) and G[:, m - L :].any(axis=0).all(), walk
        power = G
        for _ in range(3):
            assert not power[:, : m - L].any(), walk
            power = power @ G


def test_level_powers_by_doubling():
    from harmonictails.ladder import _level_powers

    rng = np.random.default_rng(3)
    for m, levels, done in [(1, 1, 1), (1, 40001, 1), (3, 100, 4), (4, 7, 2), (2, 3, 2)]:
        G = rng.uniform(0.0, 1.0, (m, m))
        G /= 1.05 * G.sum(axis=1, keepdims=True)
        X = np.zeros((levels, m))
        X[0] = rng.uniform(1.0, 2.0, m)
        for k in range(1, min(done, levels)):
            X[k] = G @ X[k - 1]
        _level_powers(G, X, done)
        x = X[0].copy()
        for k in range(min(levels, 300)):  # level by level, where it has not underflowed
            np.testing.assert_allclose(X[k], x, rtol=1e-12, atol=1e-300)
            x = G @ x
    # a power that underflows to zero zeroes every level above it
    X = np.zeros((5000, 1))
    X[0] = 1.0
    _level_powers(np.array([[0.25]]), X, 1)
    assert X[4999, 0] == 0.0 and X[500, 0] == 0.25**500


def _reference_level_powers(G, X, done):
    """``_level_powers`` with every doubling step a ``np.matmul``."""
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
        if not power.any():
            X[done:] = 0.0
            return
        w = min(done, len(X) - done)
        np.matmul(X[:w], power, out=X[done : done + w])
        done += w


def test_level_powers_one_state_levels_match_matmul():
    # a 1 x 1 G doubles by np.multiply: the same bits as the matmul, also
    # where a power underflows to 0 and the levels above it are zero-filled
    from harmonictails.ladder import _level_powers

    rng = np.random.default_rng(4)
    zero_filled = 0
    for g, levels, done in [(0.999, 40001, 1), (0.25, 5000, 1), (0.5, 3000, 4), (0.7, 7, 2),
                            (0.9, 2, 1), (0.97, 1000, 8), (1e-200, 100, 1)]:
        G = np.array([[g]])
        X = np.zeros((levels, 1))
        X[0] = rng.uniform(1.0, 2.0)
        for k in range(1, min(done, levels)):
            X[k] = G @ X[k - 1]
        X0 = X.copy()
        _level_powers(G, X, done)
        _reference_level_powers(G, X0, done)
        assert X.tobytes() == X0.tobytes(), (g, levels, done)
        zero_filled += X[-1, 0] == 0.0
    assert zero_filled == 3
