"""The exact and the truncated route agree on random banded chains.

Each chain has a homogeneous tail row, so its solve takes the exact
(``matrix-geometric``) route; its parametric twin has the same rows read
through a rule, so it takes the truncated (``linear-solve``) route.  Each
route either succeeds or raises a ``HarmonicTailsError``; where both succeed
they agree on 0..K/2.
"""

import numpy as np
from hypothesis import given, settings

import harmonictails as ht
from conftest import banded_chains, parametric_twin

K = 400


def _outcome(solve):
    try:
        return solve()
    except ht.HarmonicTailsError:
        return None


@settings(max_examples=100, derandomize=True, deadline=None)
@given(banded_chains(1, (0.8, 1.5)))
def test_harmonic_routes_agree(kernel):
    exact = _outcome(lambda: ht.build_solve(kernel, K))
    truncated = _outcome(lambda: ht.build_solve(parametric_twin(kernel), K))
    if exact is None or truncated is None:
        return
    assert (exact.method, truncated.method) == ("matrix-geometric", "linear-solve")
    np.testing.assert_allclose(truncated.array(0, K // 2), exact.array(0, K // 2), rtol=1e-6)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(banded_chains(-1))
def test_stationary_routes_agree(kernel):
    beta = ht.cramer_root(ht.LatticeWalk(lo=-kernel.band_lo, pmf=kernel.tail.row))
    exact = _outcome(lambda: ht.stationary_solve(kernel, K))
    truncated = _outcome(lambda: ht.stationary_solve(parametric_twin(kernel), K, beta=beta))
    if exact is None or truncated is None:
        return
    assert (exact.method, truncated.method) == ("matrix-geometric", "linear-solve")
    gap = np.max(np.abs(exact.log_pi[: K // 2 + 1] - truncated.log_pi[: K // 2 + 1]))
    assert gap <= 1e-8, gap
