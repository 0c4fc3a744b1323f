"""Benchmark workloads: seeded inputs, independent references and op cycles.

Each workload turns the seed into a fixed cycle of operations.  An operation
is one call, or one fixed chain of calls, into the package.  The seed draws
chain parameters from ranges where existence and negative drift hold, and
the Monte Carlo seed; it never changes the size of an operation (truncation
K, path counts, start states).  Stationary solves are the exception and keep
the shipped example parameters: their sparse LU pivots on the values, and its
cost varied by up to 1.7x between parameter draws, which would make the
seed, not the code, move the figures.  Every result is checked against a reference
the benchmark computes itself from the drawn parameters: closed forms,
detailed balance, a polynomial root, or the first pass of the same run.

Operations reach the package through module attributes looked up at call
time (``H.build_solve``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import harmonictails.chains as C
import harmonictails.cli as CLI
import harmonictails.harmonic as H
import harmonictails.ladder as L
import harmonictails.stationary as S

P_UP = 0.7  # up probability of the example-1/2 walks, as in the paper
MC_PATHS = 20_000
MC_HORIZON = 100_000
MC_Z = 7.0  # standard errors allowed between a Monte Carlo value and its closed form
SOLVE_TOL = 1e-8


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the result is correct


def _draw(rng, lo, hi):
    return round(rng.uniform(lo, hi), 6)


# ---------------------------------------------------------------------------
# references, computed without the package


def example1_exact(alpha, p, i):
    """f of the reflected walk whose origin row jumps to 1 with weight alpha."""
    r = (1.0 - p) / p
    f0 = alpha * (1.0 - r) / (1.0 - alpha * r)
    return 1.0 - r**i + r**i * f0


def example2_exact(alphas, p, n):
    """f on 0..n for the walk whose rows 0..N-1 jump up with weights alphas and
    whose row N falls back to the origin: f = 1 + B r^(i-N) from N upward."""
    N, q = len(alphas), 1.0 - p
    prod = math.prod(alphas)
    B = q * (prod - 1.0) / (p - q * prod)
    f = 1.0 + B * ((q / p) ** np.maximum(np.arange(n + 1) - N, 0))
    for k in range(N - 1, -1, -1):
        f[k] = alphas[k] * f[k + 1]
    return f


def _normalise_log(lp):
    m = lp.max()
    return lp - (m + math.log(np.exp(lp - m).sum()))


def geometric_log_pi(xi, K):
    """log of (1 - xi) xi^i on 0..K."""
    return math.log1p(-xi) + np.arange(K + 1) * math.log(xi)


def skip_free_ratio(pmf: dict[int, float]) -> float:
    """Root xi in (0, 1) of sum_x p_x xi^(-x) = 1 for a walk whose up-steps are
    at most +1; the reflected walk's stationary law is then (1 - xi) xi^i."""
    lo = min(pmf)
    # xi * (sum_x p_x xi^(-x) - 1) = 0 has degree 1 - lo; numpy.roots takes
    # the highest power first, so xi^(1 - x) sits at index x - lo
    coef = np.zeros(2 - lo)
    for x, w in pmf.items():
        coef[x - lo] += w
    coef[-lo] -= 1.0
    roots = np.roots(coef)
    real = [float(z.real) for z in roots if abs(z.imag) < 1e-12 and 1e-12 < z.real < 1 - 1e-9]
    if len(real) != 1:
        raise ValueError(f"expected one root in (0, 1), got {roots}")
    return real[0]


def birth_death_log_pi(up, K):
    """Detailed balance for up-probabilities up[0..K], down = 1 - up above 0."""
    steps = np.log(up[:K]) - np.log1p(-up[1 : K + 1])
    return _normalise_log(np.concatenate([[0.0], np.cumsum(steps)]))


def power_up(p, c0, exponent, K):
    return p + c0 * (1.0 + np.arange(K + 1)) ** exponent


def alternating_up(p, c0, gamma, K):
    i = np.arange(K + 1)
    return p + c0 * np.where(i % 2 == 0, 1.0, -1.0) * (1.0 + i) ** (-gamma)


def mc_moments(alpha, p, s):
    """Mean and variance of the path weight alpha^(visits to 0) from state s of
    the embedded reflected walk: it reaches 0 with probability (q/p)^s, and the
    visits are then geometric with return probability q/p."""
    r = (1.0 - p) / p
    hit = r**s
    m1 = (1.0 - r) * alpha / (1.0 - r * alpha)
    m2 = (1.0 - r) * alpha**2 / (1.0 - r * alpha**2)
    mean = 1.0 - hit + hit * m1
    return mean, (1.0 - hit + hit * m2) - mean**2


# ---------------------------------------------------------------------------
# checks


def _max_err(got, ref, scale=None):
    got = np.asarray(got, dtype=float)
    if got.shape != ref.shape:
        return math.inf
    den = 1.0 if scale is None else np.maximum(1.0, np.abs(ref))
    return float(np.max(np.abs(got - ref) / den))


def _harmonic_check(ref):
    def check(est):
        err = _max_err(est.array(0, ref.size - 1), ref, scale=True)
        return None if err <= SOLVE_TOL else f"max relative error {err:.3e} against the closed form"

    return check


def _log_pi_check(ref, upto):
    """Compare log pi on 0..upto.  The solver reflects jumps above K onto K, so
    near K its law is the truncated chain's; it certifies 0..K/2 by doubling."""

    def check(res):
        err = _max_err(res.log_pi[: upto + 1], ref[: upto + 1])
        if err <= SOLVE_TOL:
            return None
        return f"max |log pi error| {err:.3e} against the reference law"

    return check


def _mc_check(value, se, mean, var):
    bound = MC_Z * max(math.sqrt(var / MC_PATHS), se)
    if abs(value - mean) <= bound:
        return None
    return f"estimate {value:.6g} is {abs(value - mean) / bound * MC_Z:.1f} SE from {mean:.6g}"


# ---------------------------------------------------------------------------
# large_k_solves


def large_k_solves(rng) -> list[Op]:
    K, K_pd, K_tail, window = 40_000, 20_000, 4_000, (2_000, 3_000)

    a1 = _draw(rng, 1.5, 2.1)  # below the existence threshold p/q = 7/3
    k1 = C.perturbed_reflected_walk(p=P_UP, alpha=a1).kernel(8)
    f1 = example1_exact(a1, P_UP, np.arange(K + 1))

    alphas = (_draw(rng, 1.1, 1.3), _draw(rng, 1.3, 1.6))  # product < 7/3
    k2 = C.multi_perturbed_walk(alphas, p=P_UP).kernel(10)
    f2 = example2_exact(alphas, P_UP, K)

    # stationary solves: fixed parameters (see the module docstring)
    lind = C.lindley_chain(L.LatticeWalk.from_dict({1: 0.3, -1: 0.7}))
    lind_ref = geometric_log_pi(3.0 / 7.0, K)

    pmf4 = {-2: 0.175, -1: 0.4, 0: 0.125, 1: 0.3}
    lind4 = C.lindley_chain(L.LatticeWalk.from_dict(pmf4))
    lind4_ref = geometric_log_pi(skip_free_ratio(pmf4), K)

    pd_args = (0.3, 0.05, -0.6)
    pd = C.power_drift_chain(*pd_args)
    pd_ref = birth_death_log_pi(power_up(*pd_args, K_pd), K_pd)

    ex3_args = (0.3, 0.05, 0.7)
    ex3 = C.alternating_drift_chain(*ex3_args)
    ex3_ref = birth_death_log_pi(alternating_up(*ex3_args, K_tail), K_tail)
    beta3 = math.log((1.0 - ex3_args[0]) / ex3_args[0])
    idx = np.arange(window[0], window[1] + 1)
    c3 = math.exp(float(np.median(ex3_ref[idx] + beta3 * idx)))

    def tail_fit():
        res = S.stationary_solve(ex3, K_tail)
        model = S.build_beta_fn(ex3, mode="constant")
        return res, S.tail_extract(res.log_pi, model.predict_log_tail, window)

    def tail_check(out):
        res, fit = out
        err = _log_pi_check(ex3_ref, window[1])(res)
        if err:
            return err
        if not fit.passed:
            return f"tail fit variation {fit.variation:.3e} over the window"
        if abs(fit.constant / c3 - 1.0) > 1e-6:
            return f"tail constant {fit.constant:.12g}, detailed balance gives {c3:.12g}"
        return None

    return [
        Op("build_solve.example1", lambda: H.build_solve(k1, K), _harmonic_check(f1)),
        Op("build_solve.example2", lambda: H.build_solve(k2, K), _harmonic_check(f2)),
        Op("stationary_solve.lindley", lambda: S.stationary_solve(lind, K),
           _log_pi_check(lind_ref, K // 2)),
        Op("stationary_solve.lindley4", lambda: S.stationary_solve(lind4, K),
           _log_pi_check(lind4_ref, K // 2)),
        Op("stationary_solve.power_drift", lambda: S.stationary_solve(pd, K_pd),
           _log_pi_check(pd_ref, K_pd // 2)),
        Op("tail_fit.example3", tail_fit, tail_check),
    ]


# ---------------------------------------------------------------------------
# mc_paths


def mc_paths(rng) -> list[Op]:
    # alpha^2 q/p < 1 keeps the path weights' variance finite, so a z-score is
    # meaningful; the embedded chain, and so the work, does not depend on alpha
    alpha = _draw(rng, 1.15, 1.30)
    gamma = _draw(rng, 0.15, 0.25)
    seed = rng.randrange(2**31)
    kernel = C.perturbed_reflected_walk(p=P_UP, alpha=alpha).kernel(8)
    r = (1.0 - P_UP) / P_UP
    sites = (0, 1, 2)
    # visits to j from 0 are geometric: return probability q/p at 0, 2q above
    returns = {j: (r if j == 0 else 2.0 * (1.0 - P_UP)) for j in sites}

    def mc_op(s):
        mean, var = mc_moments(alpha, P_UP, s)
        first = []

        def check(est):
            v, se = est.value(s), est.std_errors[s]
            first[:] = first or [v]
            if v != first[0]:
                return "estimate changed between passes with the same seed"
            if est.meta["exhausted"][s]:
                return f"{est.meta['exhausted'][s]} paths hit the horizon"
            return _mc_check(v, se, mean, var)

        return Op(f"build_mc.state{s}",
                  lambda: H.build_mc(kernel, [s], MC_PATHS, MC_HORIZON, seed), check)

    lt_mean, lt_var = mc_moments(math.exp(gamma), P_UP, 0)

    def lt_check(out):
        est, se, cut = out
        if cut:
            return f"{cut:.3g} of paths hit the horizon"
        return _mc_check(est, se, lt_mean, lt_var)

    def elt_check(out):
        for j in sites:
            ret = returns[j]
            mean, var = 1.0 / (1.0 - ret), ret / (1.0 - ret) ** 2
            err = _mc_check(out[j][0], out[j][1], mean, var)
            if err:
                return f"site {j}: {err}"
        return None

    return [mc_op(s) for s in range(11)] + [
        Op("local_time_moment_mc.state0",
           lambda: H.local_time_moment_mc(kernel, 0, gamma, MC_PATHS, MC_HORIZON, seed),
           lt_check),
        Op("expected_local_times_mc.state0",
           lambda: H.expected_local_times_mc(kernel, 0, sites, MC_PATHS, MC_HORIZON, seed),
           elt_check),
    ]


# ---------------------------------------------------------------------------
# small_problems


def _rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _column(rows, header, name):
    return np.array([float(r[header.index(name)]) for r in rows])


def _configs(rng):
    """Seeded rewrites of the shipped configs: stem -> (updates to the
    config's chain/params sections, expected exit code, check of the first
    pass's CSV text)."""
    r = (1.0 - P_UP) / P_UP
    out = {}

    # configs that run stationary_solve keep their shipped chains (see the
    # module docstring); their checks read the parameters from the config

    def alt_check(text, doc):
        header, rows = _rows(text)
        i = _column(rows, header, "i").astype(int)
        p, K = doc["chain"]["p"], doc["params"]["K"]
        ref = birth_death_log_pi(alternating_up(p, doc["chain"]["c0"], doc["chain"]["gamma"], K), K)
        if _max_err(_column(rows, header, "log_pi"), ref[i]) > SOLVE_TOL:
            return "log_pi differs from detailed balance"
        beta = math.log((1.0 - p) / p)
        if _max_err(_column(rows, header, "predicted_log_tail"), -beta * i, scale=True) > 1e-12:
            return "predicted tail differs from -beta i"
        return None

    out["alternating_tail"] = ({}, 0, alt_check)

    m1, m2, d11 = _draw(rng, 1.5, 2.5), _draw(rng, 2.5, 3.5), _draw(rng, 0.5, 1.5)

    def cramer_check(text, doc):
        header, rows = _rows(text)
        ref = np.array([-1.0 / m1, d11 / m1**2 - m2 / (2.0 * m1**3)])
        if _max_err(_column(rows, header, "R_k"), ref, scale=True) > 1e-12:
            return "R_k differ from the closed form"
        return None

    out["cramer_series"] = ({"params": {"m": [m1, m2], "D": {"1,1": d11}}}, 0, cramer_check)

    # a recurrent chain: the truncated system is singular to working precision
    # (condition ~ (p/q)^K), so only byte repeatability is checked
    s, u = _draw(rng, 0.5, 0.7), _draw(rng, 0.25, 0.35)
    out["custom_rows_solve"] = (
        {"chain": {"rows": {"0": {"0": s, "1": round(1.0 - s, 6)}},
                   "tail_row": {"-1": round(1.0 - u, 6), "1": u}}}, 0, None)

    a_lad = _draw(rng, 0.27, 0.33)

    def ladder_check(text, doc):
        header, rows = _rows(text)
        mult = (1.0 - 2.0 * a_lad) / (1.0 - a_lad)  # 4/7 at a = 0.3
        if _max_err(_column(rows, header, "ratio"), np.full(len(rows), mult), scale=True) > 1e-9:
            return f"ladder ratio differs from {mult:.12g}"
        return None

    out["down_walk_ladder"] = (
        {"chain": {"pmf": {"1": a_lad, "-1": round(1.0 - a_lad, 6)}}}, 0, ladder_check)

    def lindley_check(text, doc):
        header, rows = _rows(text)
        i = _column(rows, header, "i").astype(int)
        up = doc["chain"]["pmf"]["1"]
        ref = geometric_log_pi(up / (1.0 - up), int(i.max()))
        if _max_err(_column(rows, header, "log_pi"), ref[i]) > 1e-9:
            return "log_pi differs from the geometric law"
        return None

    out["lindley_stationary"] = ({}, 0, lindley_check)

    def power_check(text, doc):
        header, rows = _rows(text)
        i = _column(rows, header, "i").astype(int)
        drift, K = doc["chain"]["drift"], doc["params"]["K"]
        prof = drift["profile"]
        ref = birth_death_log_pi(power_up(drift["p"], prof["c0"], prof["exponent"], K), K)
        if _max_err(_column(rows, header, "log_pi"), ref[i]) > SOLVE_TOL:
            return "log_pi differs from detailed balance"
        return None

    out["power_tail"] = ({}, 0, power_check)

    a_c = _draw(rng, 1.5, 2.1)

    def conditions_check(text, doc):
        header, rows = _rows(text)
        val = {q: float(v) for q, v in rows}
        lo, hi = val["return_prob_lower[0]"], val["return_prob_upper[0]"]
        if not lo - 1e-12 <= r <= hi + 1e-12:
            return f"return-probability bounds [{lo}, {hi}] miss q/p = {r}"
        if abs(val["sum_abs_delta"] - math.log(a_c)) > 1e-12:
            return "sum |delta| differs from log alpha"
        return None

    out["reflected_conditions"] = ({"chain": {"alpha": a_c}}, 0, conditions_check)

    a_s = _draw(rng, 1.5, 2.1)

    def solve_check(text, doc):
        header, rows = _rows(text)
        i = _column(rows, header, "i")
        if _max_err(_column(rows, header, "f_solve"), example1_exact(a_s, P_UP, i),
                    scale=True) > SOLVE_TOL:
            return "f_solve differs from the closed form"
        return None

    out["reflected_solve"] = ({"chain": {"alpha": a_s}}, 0, solve_check)

    # above p/q = 7/3 no positive harmonic function exists: exit 2
    out["supercritical_solve"] = ({"chain": {"alpha": _draw(rng, 2.6, 3.4)}}, 2, None)

    bumps = [_draw(rng, 1.1, 1.3), _draw(rng, 1.3, 1.6)]

    def bump_check(text, doc):
        header, rows = _rows(text)
        f = _column(rows, header, "f_solve")
        if _max_err(f, example2_exact(bumps, P_UP, f.size - 1), scale=True) > SOLVE_TOL:
            return "f_solve differs from the closed form"
        return None

    out["two_bump_solve"] = ({"chain": {"alphas": bumps}}, 0, bump_check)
    return out


def _cli_op(stem, cfg_path, out_dir, expected_rc, csv_check):
    doc = json.loads(cfg_path.read_text())
    csv_path = out_dir / f"{stem}.csv"
    manifest_path = out_dir / f"{stem}.manifest.json"
    first = {}  # outputs of the first pass and the verdict of its reference check

    def call():
        return CLI.main(["run", str(cfg_path), "--out", str(out_dir), "--quiet"])

    def check(rc):
        if rc != expected_rc:
            return f"exit code {rc}, expected {expected_rc}"
        manifest = manifest_path.read_bytes()
        text = csv_path.read_bytes() if expected_rc == 0 else b""
        if not first:
            first["outputs"] = (text, manifest)
            first["verdict"] = None
            if expected_rc != 0 and not json.loads(manifest)["flagged"]:
                first["verdict"] = "manifest not flagged"
            elif csv_check is not None:
                first["verdict"] = csv_check(text.decode(), doc)
        if (text, manifest) != first["outputs"]:
            return "outputs differ from the first pass of this run"
        return first["verdict"]

    return Op(f"cli.{stem}", call, check)


def small_problems(rng, workdir: Path, configs_dir: Path) -> list[Op]:
    ops = []
    out_dir = workdir / "out"
    out_dir.mkdir()
    for stem, (updates, rc, check) in _configs(rng).items():
        doc = json.loads((configs_dir / f"{stem}.json").read_text())
        for section, values in updates.items():
            doc[section].update(values)
        cfg = workdir / f"{stem}.json"
        cfg.write_text(json.dumps(doc, indent=2))
        ops.append(_cli_op(stem, cfg, out_dir, rc, check))

    # acceptance criterion 9 on a Lindley chain: regeneration over {0..N} and
    # the Doob transform by the killed walk's harmonic h(i) = rho^-(i-N) - 1
    a = 0.3  # a stationary solve: fixed (see the module docstring)
    rho = a / (1.0 - a)
    walk = L.LatticeWalk.from_dict({1: a, -1: 1.0 - a})
    lind = C.lindley_chain(walk)
    N, K_low, K_high = 5, 18, 120
    pi_ref = geometric_log_pi(rho, 400)

    def h(i):
        return rho ** (N - i) - 1.0

    def regeneration():
        res = S.stationary_solve(lind, 400)
        kernel = lind.kernel(300)
        killed = kernel.kill(range(N + 1))
        e = S.entry_measure(kernel, res.log_pi, N)
        U, _ = S.renewal_measure(killed, e, K_range=K_low, tol=1e-14)
        hat = S.doob_transform(killed, h, level=N, residual_tol=None)
        Uh, _ = S.renewal_measure(hat, {i: v * h(i) for i, v in e.items()},
                                  K_range=K_high, tol=1e-12)
        return res, U, Uh

    def regeneration_check(out):
        res, U, Uh = out
        err = _log_pi_check(pi_ref, 200)(res)
        if err:
            return err
        pi = np.exp(pi_ref)
        lo = np.arange(N + 1, K_low + 1)
        hi = np.arange(N + 1, K_high + 1)
        worst_lo = float(np.max(np.abs(U[lo - (N + 1)] / pi[lo] - 1.0)))
        worst_hi = float(np.max(np.abs(Uh[hi - (N + 1)] / (pi[hi] * h(hi)) - 1.0)))
        if max(worst_lo, worst_hi) > 1e-6:
            return f"renewal identities off by {worst_lo:.2e} (pi), {worst_hi:.2e} (pi h)"
        return None

    a_m = _draw(rng, 0.27, 0.33)
    mult_walk = L.LatticeWalk.from_dict({1: a_m, -1: 1.0 - a_m})
    mult = (1.0 - 2.0 * a_m) / (1.0 - a_m)  # 4/7 at a = 0.3

    def mult_check(m):
        return None if abs(m / mult - 1.0) <= 1e-9 else f"multiplier {m!r}, expected {mult!r}"

    ops.append(Op("regeneration.lindley", regeneration, regeneration_check))
    ops.append(Op("equivalence_multiplier",
                  lambda: L.equivalence_multiplier(mult_walk), mult_check))
    return ops


# ---------------------------------------------------------------------------
# K sweep of the traced run


SWEEP_K = (400, 4_000, 40_000)


def sweep_ops(K: int) -> list[Op]:
    """chains.kernel, build_solve (with its residual check) and
    stationary_solve at one truncation, on the shipped example parameters."""
    fam = C.perturbed_reflected_walk(p=P_UP, alpha=2.0)
    lind = C.lindley_chain(L.LatticeWalk.from_dict({1: 0.3, -1: 0.7}))
    f_ref = example1_exact(2.0, P_UP, np.arange(K + 1))
    pi_ref = geometric_log_pi(3.0 / 7.0, K)
    return [
        Op(f"sweep.build_solve.K{K}", lambda: H.build_solve(fam.kernel(K), K),
           _harmonic_check(f_ref)),
        Op(f"sweep.stationary_solve.K{K}", lambda: S.stationary_solve(lind, K),
           _log_pi_check(pi_ref, K // 2)),
    ]


def build(name: str, rng, root: Path, workdir: Path) -> list[Op]:
    if name == "large_k_solves":
        return large_k_solves(rng)
    if name == "mc_paths":
        return mc_paths(rng)
    if name == "small_problems":
        return small_problems(rng, workdir, root / "scripts" / "configs")
    raise ValueError(f"unknown workload {name!r}")
