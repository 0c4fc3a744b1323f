import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import harmonictails as ht
from harmonictails import cli
from harmonictails.kernels import SHORT_WINDOW, band_solve, band_system, row_sums
from conftest import reference_band_matvec, reference_band_rmatvec, reference_band_system, \
    seeded_drift_kernels

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def test_row_masses_and_delta(ex1_kernel):
    assert ex1_kernel.total_mass(0) == 2.0
    assert ex1_kernel.total_mass(1) == 1.0
    assert ex1_kernel.delta(0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert ex1_kernel.delta(5) == pytest.approx(0.0, abs=1e-12)
    # beyond the truncation the tail rule answers
    assert ex1_kernel.total_mass(1000) == pytest.approx(1.0, abs=1e-15)


def test_embed_normalizes():
    k = ht.kernel_from_rows(
        {0: {0: 0.5, 1: 1.5}, 1: {-1: 0.7, 1: 0.3}},
        truncation=1,
        band_lo=1,
        band_hi=1,
        tail=ht.HomogeneousTail(np.array([0.7, 0.0, 0.3])),
    )
    P = k.embed()
    assert isinstance(P, ht.StochasticKernel)
    assert P.row(0) == pytest.approx([0.0, 0.25, 0.75])
    assert P.total_mass(0) == pytest.approx(1.0)
    assert P.total_mass(500) == pytest.approx(1.0)


def test_kill_restricts(down_walk):
    fam = ht.lindley_chain(down_walk)
    kernel = fam.kernel(8)
    killed = kernel.kill({0})
    assert killed.state_lo == 1
    assert killed.row(1) == pytest.approx([0.0, 0.0, 0.3])
    assert killed.row(2) == pytest.approx([0.7, 0.0, 0.3])
    assert killed.meta["killed"] == [0]
    # the tail rows must not be able to reach the killed set
    with pytest.raises(ht.UnsupportedInputError):
        kernel.kill(range(9))


def test_tilt_masses(down_walk):
    fam = ht.lindley_chain(down_walk)
    kernel = fam.kernel(8)
    beta = math.log(7 / 3)
    tilted = kernel.tilt(beta, level=0)
    # state 0 keeps its upward jump, so the row survives with its lump masked
    assert tilted.state_lo == 0
    assert tilted.total_mass(0) == pytest.approx(0.7, abs=1e-12)
    assert tilted.total_mass(1) == pytest.approx(0.7, abs=1e-12)
    assert tilted.total_mass(2) == pytest.approx(1.0, abs=1e-12)
    assert tilted.total_mass(100) == pytest.approx(1.0, abs=1e-12)
    assert tilted.meta["tilt_beta"] == pytest.approx(beta)

    pure = kernel.tilt(beta)
    # reflected row at 0 keeps its lump: 0.7 + 0.3 e^beta
    assert pure.total_mass(0) == pytest.approx(0.7 + 0.3 * math.exp(beta), abs=1e-12)


@given(
    a=st.floats(-3, 3),
    b=st.floats(-3, 3),
    f=st.lists(st.floats(0, 5), min_size=13, max_size=13),
    g=st.lists(st.floats(0, 5), min_size=13, max_size=13),
)
def test_apply_is_linear(a, b, f, g):
    fam = ht.perturbed_reflected_walk(p=0.7, alpha=2.0)
    kernel = fam.kernel(8)
    f = np.array(f)
    g = np.array(g)
    comb = {i: a * f[i] + b * g[i] for i in range(13)}
    for i in range(10):
        lhs = kernel.apply(comb, i)
        rhs = a * kernel.apply({j: f[j] for j in range(13)}, i) + b * kernel.apply(
            {j: g[j] for j in range(13)}, i
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)


def _band_systems(rng):
    """Seeded random band systems ((l, u), ab, b), pivoting ones included."""
    shapes = [((1, 1), 0), ((2, 1), 0), ((0, 0), 1), ((1, 2), 1), ((3, 0), 1)]
    shapes += [((1, 1), n) for n in (2, 7, 300)]
    shapes += [((L, 0), n) for L in (1, 3, 30) for n in (2, 5, 31, 400)]
    shapes += [(lu, n) for lu in ((0, 1), (2, 1), (1, 4), (5, 3), (7, 12)) for n in (2, 9, 250)]
    for (l, u), n in shapes:
        ab = rng.standard_normal((l + u + 1, n))
        ab[u] += rng.uniform(0.0, 3.0) * (l + u + 1)  # from pivoting to diagonally dominant
        yield (l, u), ab, rng.standard_normal(n)
    for band_lo, W in ((1, 3), (1, 2), (3, 4), (2, 9), (30, 31)):
        block = rng.uniform(size=(200, W))
        block *= rng.uniform(0.9, 0.999) / block.sum(axis=1, keepdims=True)
        lu, ab = band_system(block, band_lo, transpose=True)
        mu = np.zeros(200)
        mu[rng.integers(200)] = 1.0
        yield lu, ab, mu


def _assert_band_solve_matches_scipy(systems):
    from scipy.linalg import solve_banded

    count = 0
    for lu, ab, b in systems:
        ab0, b0 = ab.copy(), b.copy()
        x = band_solve(lu, ab, b)
        assert x.dtype == np.float64 and x.shape == b.shape
        assert x.tobytes() == solve_banded(lu, ab, b).tobytes(), (lu, ab.shape)
        assert ab.tobytes() == ab0.tobytes() and b.tobytes() == b0.tobytes()
        # LAPACK working in place on copies the caller owns gives the same bits
        assert band_solve(lu, ab0, b0, overwrite=True).tobytes() == x.tobytes()
        count += 1
    assert count == 40


def test_band_solve_matches_scipy():
    from harmonictails import kernels

    _assert_band_solve_matches_scipy(_band_systems(np.random.default_rng(2013)))
    # the extension file loads here, so the fallback is not what ran
    assert [repr(f) for f in kernels._lapack_from_file()] == [
        "<fortran function dgtsv>", "<fortran function dgbsv>"]


def test_band_solve_falls_back_to_scipy_lapack(monkeypatch):
    from scipy.linalg import lapack

    from harmonictails import kernels

    def missing():
        raise ImportError("no _flapack extension")

    monkeypatch.setattr(kernels, "_lapack_from_file", missing)
    monkeypatch.setattr(kernels, "_lapack", kernels.functools.cache(kernels._lapack.__wrapped__))
    assert kernels._lapack() == (lapack.dgtsv, lapack.dgbsv)
    _assert_band_solve_matches_scipy(_band_systems(np.random.default_rng(2014)))


@pytest.mark.parametrize("lu", [(1, 1), (2, 1), (3, 0)])
def test_band_solve_errors_match_scipy(lu):
    from scipy.linalg import solve_banded

    l, u = lu
    ab = np.ones((l + u + 1, 6))
    ab[u] = 10.0
    singular = ab.copy()
    singular[:, 2] = 0.0  # column 2 of A is zero: an exact zero pivot
    b = np.ones(6)
    bad_inputs = [(lu, ab, b[:5]), ((l + 1, u), ab, b)]
    for v in (np.nan, np.inf, -np.inf):  # one non-finite entry in ab or in b
        bad_ab, bad_b = ab.copy(), b.copy()
        bad_ab[u, 3] = bad_b[3] = v
        bad_inputs += [(lu, bad_ab, b), (lu, ab, bad_b)]
    for solve in (band_solve, solve_banded):
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            solve(lu, singular, b)
        for bad in bad_inputs:
            with pytest.raises(ValueError):
                solve(*bad)


def test_invalid_kernels_rejected():
    with pytest.raises(ht.UnsupportedInputError):
        ht.TransitionKernel(band_lo=1, band_hi=1, weights=np.array([[0.5, 0.0, 0.5]]))
    with pytest.raises(ht.DegenerateRowError):
        ht.TransitionKernel(
            band_lo=0, band_hi=1, weights=np.array([[1.0, 0.0], [0.0, 0.0]])
        )
    with pytest.raises(ht.UnsupportedInputError):
        ht.TransitionKernel(band_lo=0, band_hi=0, weights=np.array([[-1.0]]))
    with pytest.raises(ht.UnsupportedInputError):
        ht.StochasticKernel(band_lo=0, band_hi=1, weights=np.array([[0.4, 0.7]]))
    for v in (np.nan, np.inf, -np.inf, -1e-300):
        w = np.full((3, 2), 0.5)
        w[1, 0] = v
        with pytest.raises(ht.UnsupportedInputError, match="^weights must be finite and nonnegative$"):
            ht.TransitionKernel(band_lo=0, band_hi=1, weights=w)


def test_tail_rows_below_zero_rejected():
    # the tail's first row, at state 1, steps -2: a homogeneous and a
    # parametric tail are refused as an explicit row is; from state_lo 2 on
    # the same tail stays on the nonnegative states
    row = np.array([0.4, 0.0, 0.3, 0.3])
    message = "^row for state 1 puts weight on negative target states$"
    with pytest.raises(ht.UnsupportedInputError, match=message):
        ht.kernel_from_rows({0: {1: 1.0}}, 0, 2, 1, tail=ht.HomogeneousTail(row), stochastic=True)
    with pytest.raises(ht.UnsupportedInputError, match=message):
        ht.TransitionKernel(band_lo=2, band_hi=1, weights=np.array([[0.0, 0.0, 0.0, 1.0]]),
                            tail=ht.ParametricTail(lambda s: np.tile(row, (len(s), 1)), 0.0))
    with pytest.raises(ht.UnsupportedInputError, match=message):
        ht.TransitionKernel(band_lo=2, band_hi=1, weights=np.array([[0.0, 0.0, 0.0, 1.0], row]))
    kernel = ht.TransitionKernel(band_lo=2, band_hi=1, weights=np.array([[0.0, 0.0, 0.0, 1.0]]),
                                 state_lo=2, tail=ht.HomogeneousTail(row))
    assert kernel.row(3).tolist() == row.tolist()


@pytest.mark.parametrize("row, error, message", [
    ([0.0, 0.0, 0.0], ht.DegenerateRowError, "^the tail row has no mass$"),
    ([0.7, np.nan, 0.3], ht.UnsupportedInputError, "^tail row weights must be finite and nonnegative$"),
    ([0.8, 0.0, -0.1], ht.UnsupportedInputError, "^tail row weights must be finite and nonnegative$"),
    ([0.7, 0.0, np.inf], ht.UnsupportedInputError, "^tail row weights must be finite and nonnegative$"),
])
def test_tail_row_checked_as_explicit_rows_are(row, error, message):
    for cls in (ht.TransitionKernel, ht.StochasticKernel):
        with pytest.raises(error, match=message):
            cls(band_lo=1, band_hi=1, weights=np.array([[0.0, 0.0, 1.0]]),
                tail=ht.HomogeneousTail(np.array(row)))


@pytest.mark.parametrize("row, error, message", [
    ([0.0, 0.0, 0.0], ht.DegenerateRowError, r"^the tail row has no mass$"),
    ([0.7, np.nan, 0.3], ht.UnsupportedInputError,
     r"^tail row weights must be finite and nonnegative$"),
    ([0.7, 0.3], ht.UnsupportedInputError, r"^limit row must have 3 offset columns, got shape \(2,\)$"),
])
def test_family_limit_row_checked_as_a_tail_row_is(row, error, message):
    fam = ht.lindley_chain(ht.LatticeWalk.from_dict({-1: 0.7, 1: 0.3}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            dataclasses.replace(fam, limit_pmf=np.array(row))


def test_stochastic_check_names_the_first_bad_row():
    # row sums 1, 1.2, 1, 0.7: the first bad row is not the one furthest off
    w = np.array([[0.5, 0.5], [0.6, 0.6], [0.3, 0.7], [0.35, 0.35]])
    for state_lo in (0, 5):
        with pytest.raises(ht.UnsupportedInputError,
                           match=f"^row for state {state_lo + 1} sums to 1.2, not 1$"):
            ht.StochasticKernel(band_lo=0, band_hi=1, weights=w, state_lo=state_lo)


def test_dust_is_dropped_and_recorded():
    k = ht.TransitionKernel(
        band_lo=0, band_hi=1, weights=np.array([[1.0, 1e-16]])
    )
    P = k.embed()
    assert P.row(0)[1] == 0.0
    assert P.dropped_mass > 0.0


def test_tail_rules():
    stoch = ht.HomogeneousTail(np.array([0.7, 0.0, 0.3]))
    assert stoch.delta_abs_bound() == 0.0
    off = ht.HomogeneousTail(np.array([0.7, 0.0, 0.4]))
    assert off.delta_abs_bound() == math.inf
    par = ht.ParametricTail(lambda i: np.array([0.7, 0.0, 0.3]))
    assert par.delta_abs_bound() == math.inf

    k = ht.TransitionKernel(
        band_lo=1, band_hi=1, weights=np.array([[0.0, 0.3, 0.7]])
    )
    with pytest.raises(ht.StateRangeError):
        k.row(5)
    assert not k.has_row(5)


def test_state_fn_adapters(ex1_kernel):
    # mapping, callable and estimate-like objects are all accepted
    val = ex1_kernel.apply(lambda i: 1.0, 3)
    assert val == pytest.approx(1.0)
    est = ht.HarmonicEstimate(
        values={i: 1.0 for i in range(10)}, method="closed-form", truncation=9
    )
    assert ex1_kernel.apply(est, 3) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# block row access and the banded helpers


def _stacked(kernel, lo, hi):
    """Rows lo..hi one by one from the weights and the tail rule."""
    out = []
    for i in range(lo, hi + 1):
        if i <= kernel.truncation:
            out.append(kernel.weights[i - kernel.state_lo])
        elif isinstance(kernel.tail, ht.HomogeneousTail):
            out.append(kernel.tail.row)
        else:
            out.append(kernel.tail.rule(np.array([i]))[0])
    return np.array(out)


@pytest.mark.parametrize(
    "tail",
    [
        None,
        ht.HomogeneousTail(np.array([0.7, 0.0, 0.3])),
        ht.ParametricTail(
            lambda s: np.stack([0.7 - 1.0 / (s + 10), 0.0 * s, 0.3 + 1.0 / (s + 10)], axis=1)
        ),
    ],
)
def test_rows_block_matches_stacked_rows(tail):
    w = np.array([[0.0, 0.4, 0.6], [0.5, 0.1, 0.4], [0.2, 0.2, 0.6], [0.7, 0.0, 0.3]])
    k = ht.TransitionKernel(band_lo=1, band_hi=1, weights=w[1:], state_lo=1, tail=tail)
    top = k.truncation if tail is None else k.truncation + 5
    for lo, hi in [(1, 1), (1, k.truncation), (2, top), (k.truncation, top), (1, top)]:
        block = k.rows(lo, hi)
        assert block.shape == (hi - lo + 1, 3)
        np.testing.assert_array_equal(block, _stacked(k, lo, hi))
        np.testing.assert_array_equal(block, [k.row(i) for i in range(lo, hi + 1)])
        assert not block.flags.writeable
    if tail is not None:
        np.testing.assert_array_equal(k.rows(20, 24), _stacked(k, 20, 24))
    # the same error the scalar access raises, at either end of the range
    for lo, hi, bad in [(0, 2, 0), (1, k.truncation + 1, k.truncation + 1)]:
        if tail is not None and bad > k.truncation:
            continue
        with pytest.raises(ht.StateRangeError) as scalar:
            k.row(bad)
        with pytest.raises(ht.StateRangeError) as block:
            k.rows(lo, hi)
        assert str(block.value) == str(scalar.value)



@pytest.mark.parametrize(
    "tail",
    [
        ht.HomogeneousTail(np.array([0.7, 0.0, 0.4])),
        ht.ParametricTail(
            lambda s: np.stack([0.7 + 0.0 * s, 0.1 / (s + 1), 0.3 + 1.0 / (s + 10)], axis=1)
        ),
    ],
)
def test_embed_and_tilt_map_tail_rows(tail):
    w = np.array([[0.0, 0.4, 0.6], [0.5, 0.1, 0.4], [0.2, 0.2, 0.6]])
    k = ht.StochasticKernel(band_lo=1, band_hi=1, weights=w, tail=tail)
    lo, hi = k.truncation + 1, k.truncation + 6
    rows = _stacked(k, lo, hi)
    normalised = np.array([r / r.sum() for r in rows])
    np.testing.assert_array_equal(k.embed().rows(lo, hi), normalised)
    np.testing.assert_array_equal(k.tilt(0.4).rows(lo, hi), rows * np.exp(0.4 * k.offsets))
    if isinstance(tail, ht.ParametricTail):
        assert k.embed().tail.delta_abs_bound() == 0.0
        assert k.tilt(0.4).tail.delta_abs_bound() == math.inf


def test_parametric_rule_called_once_per_block():
    calls = []

    def rule(states):
        calls.append(states.copy())
        return np.tile([0.7, 0.0, 0.3], (len(states), 1))

    k = ht.TransitionKernel(band_lo=1, band_hi=1, weights=np.array([[0.0, 0.3, 0.7]]),
                            tail=ht.ParametricTail(rule))
    for lo, hi in [(1, 1), (1, 40), (0, 40)]:
        calls.clear()
        k.rows(lo, hi)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.arange(max(lo, 1), hi + 1))


def test_no_per_state_row_reads(monkeypatch, tmp_path, down_walk):
    """The solvers, the transforms and every shipped config read rows as blocks."""
    calls = []
    row = ht.TransitionKernel.row
    monkeypatch.setattr(ht.TransitionKernel, "row",
                        lambda self, i: calls.append(i) or row(self, i))

    for cfg in sorted(CONFIGS.glob("*.json")):
        expected = 2 if cfg.stem == "supercritical_solve" else 0
        assert cli.main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == expected

    N = 5
    fam = ht.lindley_chain(down_walk)
    res = ht.stationary_solve(fam, 400)
    kernel = fam.kernel(200)
    killed = kernel.kill(range(N + 1))
    e = ht.entry_measure(kernel, res.log_pi, N)
    ht.renewal_measure(killed, e, K_range=18, tol=1e-14)

    def h(i):
        return (7.0 / 3.0) ** (i - (N + 1)) - 3.0 / 7.0

    hat = ht.doob_transform(killed, h, level=N, residual_tol=1e-8)
    ht.renewal_measure(hat, {i: v * h(i) for i, v in e.items()}, K_range=120, tol=1e-12)

    drift = ht.power_drift_chain(p=0.3, c0=0.05, exponent=-0.6)
    ht.check_conditions(drift.kernel(100), family=drift)
    assert calls == []


FAMILIES = [
    ht.perturbed_reflected_walk(p=0.7, alpha=2.0),
    ht.multi_perturbed_walk((1.2, 1.5, 0.8), p=0.7),
    ht.multi_perturbed_walk((1.3,), p=0.6),
    ht.walk_killed_at_negative(ht.LatticeWalk.from_dict({-3: 0.2, -1: 0.3, 0: 0.1, 2: 0.4})),
    ht.lindley_chain(ht.LatticeWalk.from_dict({-3: 0.2, -1: 0.3, 0: 0.1, 2: 0.4})),
    ht.alternating_drift_chain(p=0.3, c0=0.05, gamma=0.7),
    ht.power_drift_chain(p=0.3, c0=0.05, exponent=-0.6),
]


def per_state_row(fam, i):
    """The row of state i, written out state by state for each family."""
    r = np.zeros(fam.band_lo + fam.band_hi + 1)
    if fam.name == "perturbed-reflected-walk":
        return np.array([0.0, 0.0, fam.params["alpha"]]) if i == 0 else fam.limit_pmf
    if fam.name == "multi-perturbed-walk":
        N, p = fam.band_lo, fam.params["p"]
        if i < N:
            r[N + 1] = fam.params["alphas"][i]
        else:
            r[0 if i == N else N - 1], r[N + 1] = 1.0 - p, p
        return r
    if fam.name in ("killed-walk", "lindley"):
        r[:] = fam.params["pmf"]
        cut = max(fam.band_lo - i, 0)
        lost = r[:cut].sum()
        r[:cut] = 0.0
        if fam.name == "lindley" and cut:
            r[cut] += lost  # steps below zero land on zero
        return r
    u = fam.params["p"] + float(fam.alpha_profile.value(i))
    return np.array([0.0, 1.0 - u, u] if i == 0 else [1.0 - u, 0.0, u])


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f"{f.name}-{f.band_lo}")
def test_family_array_rule_matches_per_state_rows(fam):
    # an unsorted batch with repeats, the boundary rows and far states
    states = np.array([7, 0, 3, 1, 2, 0, 40, 5, 4, 1000, 6, 2])
    block = fam.row_rule(states)
    np.testing.assert_array_equal(block, [per_state_row(fam, int(i)) for i in states])
    np.testing.assert_array_equal(block, [fam.row(int(i)) for i in states])
    np.testing.assert_array_equal(fam.kernel(50).rows(0, 60), fam.row_rule(np.arange(61)))
    if fam.homogeneous_from is not None:
        assert fam.kernel(50).homogeneous_level() == fam.homogeneous_from


def test_general_rows_homogeneous_level_is_the_kernels():
    # explicit rows 0..2 over the tail row; row 2 already is the tail row
    fam = cli.build_chain({"name": "general", "band_lo": 1, "band_hi": 1,
                           "rows": {"0": {"1": 1.0}, "1": {"-1": 0.4, "1": 0.6},
                                    "2": {"-1": 0.3, "1": 0.7}},
                           "tail_row": {"-1": 0.3, "1": 0.7}})
    assert fam.homogeneous_from == fam.kernel(50).homogeneous_level() == 2
    np.testing.assert_array_equal(fam.row_rule(np.array([0, 2, 1, 9])),
                                  [[0, 0, 1], [0.3, 0, 0.7], [0.4, 0, 0.6], [0.3, 0, 0.7]])



# ---------------------------------------------------------------------------
# one assembly from the kernel's row blocks, against the materialised block


def _windows(kernel):
    """Short windows (one block) and long ones (a view of the explicit rows
    and the tail's block), within, across and past the truncation."""
    lo, top, long = kernel.state_lo, kernel.truncation, SHORT_WINDOW + 40
    return [(lo, lo), (lo, lo + 2), (lo, top), (lo + 1, top + 1), (lo, top + 60),
            (top + 1, top + 40), (lo + 3, 2 * top + 7), (lo, lo + long), (top + 1, top + long)]


def test_row_masses_match_block_sums():
    # the row masses of a window, as the truncated solve takes them (row_sums
    # block by block), are the materialised window's; numpy sums a row of 8 or
    # more entries in eight partial sums, so the order of the additions shows
    # in the last bit for W >= 8
    rng = np.random.default_rng(31)
    unnormalised = [
        ht.TransitionKernel(band_lo=bl, band_hi=W - 1 - bl, weights=w, state_lo=state_lo,
                            tail=ht.HomogeneousTail(rng.uniform(size=W)))
        for W in range(2, 12) for bl in (0, W // 2) for state_lo in (0, 3)
        for w in [rng.uniform(size=(13, W)) * (np.arange(13)[:, None] + np.arange(W) >= bl)]
    ]
    for kernel in [*seeded_drift_kernels(rng), *unnormalised]:
        for lo, hi in _windows(kernel):
            blocks = kernel.row_blocks(lo, hi)
            masses = np.concatenate([row_sums(b) for b in blocks])
            assert masses.tobytes() == kernel.rows(lo, hi).sum(axis=1).tobytes(), (lo, hi)
            assert all(not b.flags.writeable for b in blocks)
            assert len(blocks) == (1 if hi - lo < SHORT_WINDOW else 1 + (lo <= kernel.truncation < hi))


def _mixed_block(rng, n, width):
    """Magnitudes 1e-3..1e3 with zeros and subnormals mixed in."""
    block = rng.uniform(size=(n, width)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, width))
    block[rng.uniform(size=(n, width)) < 0.2] = 0.0
    tiny = rng.uniform(size=(n, width)) < 0.1
    block[tiny] = rng.integers(1, 2**40, size=int(tiny.sum())) * 5e-324
    return block


def test_row_sums_match_numpy_bit_for_bit():
    rng = np.random.default_rng(41)
    for width in range(1, 13):
        for n in (1, 2, 9, 1000):
            block = _mixed_block(rng, n, width)
            # C order, Fortran order, a strided view and a broadcast row
            for b in (block, np.asfortranarray(block), block[::3],
                      np.broadcast_to(block[0], (5, width))):
                assert row_sums(b).tobytes() == b.sum(axis=1).tobytes(), (width, n)
    # from 8 columns numpy's order is pairwise, which a column loop misses
    block = _mixed_block(rng, 1000, 8)
    by_columns = block[:, 0].copy()
    for c in range(1, 8):
        by_columns += block[:, c]
    assert by_columns.tobytes() != block.sum(axis=1).tobytes()
    assert row_sums(block).tobytes() == block.sum(axis=1).tobytes()


def stacked_birth_death_rows(fam, states):
    """A birth-death family's rows as three stacked columns with the origin
    swapped in by a boolean mask, and each profile on its own temporaries."""
    x = np.asarray(states)
    u = fam.params["p"] + stacked_profile_value(fam.alpha_profile, x)
    rows = np.stack([1.0 - u, np.zeros_like(u), u], axis=1)
    at0 = x == 0
    rows[at0, :2] = rows[at0, 1::-1]
    return rows


def stacked_profile_value(prof, x):
    """The profile evaluated as one expression on fresh temporaries."""
    if isinstance(prof, ht.PowerAlpha):
        return prof.c0 * (1.0 + np.asarray(x, dtype=float)) ** prof.exponent
    x = np.asarray(x)
    out = prof.c0 * np.where(x % 2 == 0, 1.0, -1.0) * (1.0 + x) ** (-prof.gamma)
    return out if out.ndim else float(out)


@pytest.mark.parametrize("fam", [
    ht.power_drift_chain(0.3, 0.05, -0.6), ht.power_drift_chain(0.2, 0.1, -1.0),
    ht.power_drift_chain(0.4, 0.02, -0.5), ht.power_drift_chain(0.3, 0.05, -2.0),
    ht.alternating_drift_chain(0.3, 0.05, 0.7), ht.alternating_drift_chain(0.25, 0.2, 1.0),
    ht.alternating_drift_chain(0.3, 0.05, 0.5),
], ids=lambda f: f"{f.name}-{f.params}")
def test_birth_death_rows_match_stacked_columns(fam):
    states = np.arange(5001)
    ref = stacked_birth_death_rows(fam, states)
    assert fam.row_rule(states).tobytes() == ref.tobytes()
    assert fam.kernel(5000).weights.tobytes() == ref.tobytes()
    assert fam.kernel(10).tail.rows_at(11, 5000).tobytes() == ref[11:].tobytes()
    batch = np.array([7, 0, 3, 1, 2, 0, 40, 5, 4, 1000, 6, 2])
    assert fam.row_rule(batch).tobytes() == stacked_birth_death_rows(fam, batch).tobytes()
    for i in (0, 1, 2, 4999):
        assert fam.row(i).tobytes() == ref[i].tobytes()
        # one state: a scalar, from the same operations as before
        a, b = fam.alpha_profile.value(i), stacked_profile_value(fam.alpha_profile, i)
        assert type(a) is type(b) and np.float64(a).tobytes() == np.float64(b).tobytes()


def _dense(lu, ab, n):
    """The n x n matrix held in band storage ``ab``."""
    l, u = lu
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - l), min(n, i + u + 1)):
            A[i, j] = ab[u + i - j, j]
    return A


def test_band_system_from_blocks_matches_reference():
    # the reference indexes past the storage in a window narrower than the
    # band (a numpy error): there the dense matrices are compared
    cases = 0
    for kernel in seeded_drift_kernels(np.random.default_rng(32)):
        bl, W = kernel.band_lo, kernel.band_lo + kernel.band_hi + 1
        tilt = np.exp(0.37 * kernel.offsets.astype(float))
        for lo, hi in _windows(kernel):
            blocks, block = kernel.row_blocks(lo, hi), kernel.rows(lo, hi)
            n = len(block)
            for transpose in (False, True):
                for factors in (None, tilt):
                    lu, ab = band_system(blocks, bl, transpose, factors)
                    scaled = block if factors is None else block * factors
                    if n >= W - 1:
                        lu0, ab0 = reference_band_system(scaled, bl, transpose)
                        assert lu == lu0 and ab.tobytes() == ab0.tobytes(), (lo, hi, transpose)
                    elif factors is None:
                        dense = np.eye(n) - sum(
                            np.diag(block[max(0, -o) : n - max(o, 0), o + bl], o)
                            for o in range(-min(bl, n - 1), min(W - bl, n)))
                        expect = dense.T if transpose else dense
                        assert np.array_equal(_dense(lu, ab, n), expect), (lo, hi, transpose)
                    cases += 1
    assert cases == 40 * 9 * 4


def test_window_solve_is_a_column_slice_of_the_wider_system():
    # LAPACK reads no band entry of a row >= n of an n x n matrix, so the
    # first n columns of the wider storage solve the n-state window as its
    # own storage does (which matches the reference assembly above)
    rng = np.random.default_rng(33)
    cases = 0
    for kernel in seeded_drift_kernels(rng):
        bl, lo = kernel.band_lo, kernel.state_lo
        for n in (1, 2, 3, kernel.band_hi + 1, 13, 40, SHORT_WINDOW // 2 + 10):
            wide = kernel.row_blocks(lo, lo + 2 * n)
            b = rng.standard_normal(2 * n + 1)
            for transpose in (False, True):
                lu, ab = band_system(wide, bl, transpose)
                lu0, ab0 = band_system(kernel.row_blocks(lo, lo + n - 1), bl, transpose)
                x = band_solve(lu, ab[:, :n], b[:n])
                assert x.tobytes() == band_solve(lu0, ab0, b[:n]).tobytes(), (n, transpose)
                cases += 1
    assert cases == 40 * 7 * 2


def test_band_matvecs_from_blocks_match_reference():
    from harmonictails.kernels import band_matvec, band_rmatvec, row_slice

    rng = np.random.default_rng(34)
    for kernel in seeded_drift_kernels(rng):
        bl, W = kernel.band_lo, kernel.band_lo + kernel.band_hi + 1
        tilt = np.exp(-0.61 * kernel.offsets.astype(float))
        for lo, hi in _windows(kernel):
            blocks, block = kernel.row_blocks(lo, hi), kernel.rows(lo, hi)
            n = block.shape[0]
            v, mu = rng.standard_normal(n + W - 1), rng.standard_normal(n)
            assert band_matvec(blocks, bl, v).tobytes() == reference_band_matvec(block, v).tobytes()
            assert (band_rmatvec(blocks, bl, mu).tobytes()
                    == reference_band_rmatvec(block, bl, mu).tobytes())
            assert (band_rmatvec(blocks, bl, mu, factors=tilt).tobytes()
                    == reference_band_rmatvec(block * tilt, bl, mu).tobytes())
            for a, b in [(0, n), (1, n - 1), (n // 2, n), (0, 0)]:
                part = row_slice(blocks, a, b)
                assert np.concatenate([np.empty((0, W)), *part]).tobytes() == block[a:b].tobytes()
