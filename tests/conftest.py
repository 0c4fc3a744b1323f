import dataclasses

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

import harmonictails as ht

hypothesis.settings.register_profile("ci", max_examples=50, deadline=None)
hypothesis.settings.load_profile("ci")


@pytest.fixture(scope="session")
def down_walk():
    return ht.LatticeWalk.from_dict({1: 0.3, -1: 0.7})


@pytest.fixture(scope="session")
def ex1_family():
    return ht.perturbed_reflected_walk(p=0.7, alpha=2.0)


@pytest.fixture(scope="session")
def ex1_kernel(ex1_family):
    return ex1_family.kernel(8)


@pytest.fixture(scope="session")
def lindley_result(down_walk):
    fam = ht.lindley_chain(down_walk)
    return fam, ht.stationary_solve(fam, 400)


@pytest.fixture(scope="session")
def example3_family():
    return ht.alternating_drift_chain(p=0.3, c0=0.05, gamma=0.7)


def parametric_twin(kernel):
    """The kernel with its homogeneous tail row given as a parametric rule:
    the same rows, which the solvers take on the truncated route."""
    row = kernel.tail.row
    return dataclasses.replace(
        kernel, tail=ht.ParametricTail(lambda s: np.tile(row, (len(s), 1)), 0.0))


def parametric_family_twin(family):
    """The family without its homogeneous level: the same rows, read through
    the row rule as a parametric tail, so the solvers take the truncated
    route."""
    return dataclasses.replace(family, homogeneous_from=None)


@st.composite
def banded_chains(draw, drift: int, masses: tuple[float, float] = (1.0, 1.0)):
    """An irreducible kernel of band at most (3, 3): explicit rows on
    0..h - 1, band_lo <= h <= 6, with masses drawn from ``masses``, then a
    stochastic tail row whose mean has the sign of ``drift`` and lies at
    least 0.05 from 0.  Every row has a +1 step and every row above 0 a -1
    step, and no row jumps below 0.  The kernel is stochastic when
    ``masses`` is (1, 1)."""
    bl, bh = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    h = draw(st.integers(bl, 6))
    off = np.arange(-bl, bh + 1)
    weight = st.one_of(st.just(0.0), st.floats(0.05, 1.0))

    def row(i):
        w = np.array(draw(st.lists(weight, min_size=off.size, max_size=off.size)))
        w[off < -i] = 0.0  # no jump below state 0
        w[bl + 1] = max(w[bl + 1], 0.05)
        if i:
            w[bl - 1] = max(w[bl - 1], 0.05)
        return w

    rows = {}
    for i in range(h):
        w = row(i)
        w *= draw(st.floats(*masses)) / w.sum()
        rows[i] = dict(zip(off.tolist(), w.tolist()))
    tail = row(bl)
    tail /= tail.sum()
    while drift * (tail @ off) < 0.05:  # tilt the mass the drift's way
        tail *= np.exp(0.5 * drift * off)
        tail /= tail.sum()
    return ht.kernel_from_rows(rows, h - 1, bl, bh, tail=ht.HomogeneousTail(tail),
                               stochastic=masses == (1.0, 1.0))


def lindley_exact_log_pi(n):
    """(4/7)(3/7)^i for the +-1 walk with up probability 0.3."""
    return np.log(4 / 7) + np.arange(n + 1) * np.log(3 / 7)


# ---------------------------------------------------------------------------
# the banded assembly as it was before it read rows block by block, kept as
# the bit-for-bit reference for the solves


def reference_band_system(block, band_lo, transpose=False):
    """I - P of one materialised row block: zeros, -P column by column, then
    one added to the diagonal."""
    n, W = block.shape
    band_hi = W - 1 - band_lo
    ab = np.zeros((W, n))
    for c in range(W):
        off = c - band_lo
        lo, hi = max(0, -off), min(n, n - off)
        if transpose:
            np.negative(block[lo:hi, c], out=ab[c, lo:hi])
        else:
            np.negative(block[lo:hi, c], out=ab[W - 1 - c, lo + off : hi + off])
    ab[band_lo if transpose else band_hi] += 1.0
    return ((band_hi, band_lo) if transpose else (band_lo, band_hi)), ab


def reference_band_matvec(block, v):
    n = block.shape[0]
    out = np.zeros(n)
    for c in range(block.shape[1]):
        out += block[:, c] * v[c : c + n]
    return out


def reference_band_rmatvec(block, band_lo, mu):
    n, W = block.shape
    out = np.zeros(n)
    for c in range(W):
        off = c - band_lo
        k = min(abs(off), n)
        vals = mu * block[:, c]
        if off >= 0:
            out[k:] += vals[: n - k]
        else:
            out[: n - k] += vals[k:]
    return out


BANDS = [(0, 1), (1, 1), (2, 1), (1, 3), (3, 2), (2, 4), (4, 3), (3, 5), (5, 4), (2, 8)]


def seeded_drift_kernels(rng):
    """Kernels with upward drift for band widths 2 to 11: explicit rows on
    state_lo..state_lo + 12 (the first three with masses off one, no weight
    below state_lo), then a homogeneous or a parametric stochastic tail;
    state_lo 0 and 5."""
    for band_lo, band_hi in BANDS:
        off = np.arange(-band_lo, band_hi + 1)
        limit = rng.dirichlet(np.ones(off.size))
        while limit @ off <= 0.05:  # push the mass up until the walk drifts up
            limit = limit * np.exp(0.5 * off)
            limit /= limit.sum()
        for state_lo in (0, 5):
            states = state_lo + np.arange(13)
            w = limit * rng.uniform(0.5, 1.5, (13, off.size))
            w /= w.sum(axis=1, keepdims=True)
            w[:3] *= rng.uniform(0.9, 1.02, (3, 1))
            w[states[:, None] + off < state_lo] = 0.0
            phase = rng.uniform(0, 6)

            def rule(s, limit=limit, phase=phase, off=off):
                p = limit * (1.0 + 0.3 * np.sin(phase + s[:, None] + off) / (s[:, None] + 1.0))
                return p / p.sum(axis=1, keepdims=True)

            for tail in (ht.HomogeneousTail(limit), ht.ParametricTail(rule, 0.0)):
                yield ht.TransitionKernel(band_lo=band_lo, band_hi=band_hi, weights=w,
                                          state_lo=state_lo, tail=tail)


def collapsed_chain(kernel, top, n_paths=10**6, return_tol=1e-8):
    """The path chain of ``n_paths`` paths scoring states up to ``top`` with
    its excursions collapsed, and its rows as a dense matrix on
    state_lo..end plus a last column, the escape."""
    pc = ht.harmonic._path_chain(kernel, top, return_tol, {}, n_paths)
    C = pc.chain
    assert pc.G is not None and C.truncation == pc.end
    # the re-entry fits the embedded chain's own band
    assert (C.band_lo, C.band_hi) == (kernel.band_lo, kernel.band_hi)
    # a row's dropped last column, end + band_hi at most, is scored
    assert pc.scored[-1] == pc.end + C.band_hi
    n = pc.end - C.state_lo + 1
    dense = np.zeros((n, n + 1))
    for x, row in enumerate(C.rows(C.state_lo, pc.end)):
        for c in np.flatnonzero(row):
            dense[x, x + c - C.band_lo] = row[c]
    return pc, dense
