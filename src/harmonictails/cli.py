"""Experiment runner: JSON config in, CSV + manifest out.

The config is a JSON document with keys ``chain``, ``task``, ``params``.
``chain`` names one of the built-in families (or ``general`` with explicit
rows / a drift profile); ``task`` picks the computation.  Every run writes
``<stem>.csv`` (RFC 4180, LF line endings, 17 significant digits) and
``<stem>.manifest.json`` next to it; reruns with the same config and seed
are byte-identical.

Exit codes: 0 success, 1 operational error (bad config, missing file),
2 computed-but-flagged (non-existence detected, a doubling or variation
check failed, a condition verdict is negative).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .chains import (
    ChainFamily,
    alternating_drift_chain,
    lindley_chain,
    multi_perturbed_walk,
    perturbed_reflected_walk,
    power_drift_chain,
    walk_killed_at_negative,
)
from .errors import (
    ConfigError,
    HarmonicTailsError,
    InternalConsistencyError,
    NoPositiveHarmonicError,
    SolverFailure,
)
from .harmonic import (
    build_mc,
    build_solve,
    check_conditions,
    reflected_walk_harmonic_exact,
)
from .kernels import HomogeneousTail, kernel_from_rows
from .ladder import (
    LatticeWalk,
    cramer_root,
    equivalence_multiplier,
    ladder_harmonic,
    ladder_height,
    tilted_minimum_harmonic,
)
from .stationary import (
    build_beta_fn,
    cramer_coefficients,
    cramer_series_residual,
    stationary_solve,
    tail_extract,
)

_FLAGGED = (NoPositiveHarmonicError, SolverFailure, InternalConsistencyError)
_CHAINS = ("example1", "example2", "killed-walk", "lindley", "example3", "general")


@dataclass
class ExperimentConfig:
    task: str
    chain: dict | None = None
    params: dict = field(default_factory=dict)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        p = Path(path)
        try:
            raw = json.loads(p.read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {p}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        if not isinstance(raw, dict) or "task" not in raw:
            raise ConfigError("config must be a JSON object with a 'task' key")
        extra = set(raw) - {"chain", "task", "params"}
        if extra:
            raise ConfigError(f"unknown top-level config keys: {sorted(extra)}")
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("'params' must be an object")
        chain = raw.get("chain")
        if chain is not None and not isinstance(chain, dict):
            raise ConfigError("'chain' must be an object with a 'name' key")
        return cls(task=raw["task"], chain=chain, params=dict(params))


def _pmf_from_config(obj) -> LatticeWalk:
    if not isinstance(obj, dict) or not obj:
        raise ConfigError("'pmf' must be a nonempty object of offset -> probability")
    try:
        probs = {int(k): float(v) for k, v in obj.items()}
    except (TypeError, ValueError):
        raise ConfigError("'pmf' keys must be integers and values numbers")
    return LatticeWalk.from_dict(probs)


def build_chain(chain: dict) -> ChainFamily:
    """Materialise the chain descriptor from a config into a family."""
    if not isinstance(chain, dict) or "name" not in chain:
        raise ConfigError("chain descriptor needs a 'name' key")
    name = chain["name"]
    p = chain.get("p")
    if name == "example1":
        return perturbed_reflected_walk(p=float(p), alpha=float(chain["alpha"]))
    if name == "example2":
        return multi_perturbed_walk(chain["alphas"], p=float(p))
    if name == "killed-walk":
        return walk_killed_at_negative(_pmf_from_config(chain["pmf"]))
    if name == "lindley":
        return lindley_chain(_pmf_from_config(chain["pmf"]))
    if name == "example3":
        return alternating_drift_chain(
            p=float(p), c0=float(chain["c0"]), gamma=float(chain["gamma"])
        )
    if name == "general":
        return _build_general(chain)
    raise ConfigError(f"unknown chain name {name!r} (expected one of {_CHAINS})")


def _build_general(chain: dict) -> ChainFamily:
    if "drift" in chain:
        d = chain["drift"]
        prof = d.get("profile", {})
        kind = prof.get("type")
        if kind == "power":
            return power_drift_chain(
                p=float(d["p"]), c0=float(prof["c0"]), exponent=float(prof["exponent"])
            )
        if kind == "alternating":
            return alternating_drift_chain(
                p=float(d["p"]), c0=float(prof["c0"]), gamma=float(prof["gamma"])
            )
        raise ConfigError("general drift profile type must be 'power' or 'alternating'")
    if "rows" in chain:
        band_lo = int(chain["band_lo"])
        band_hi = int(chain["band_hi"])
        rows = {
            int(i): {int(off): float(wt) for off, wt in r.items()}
            for i, r in chain["rows"].items()
        }
        if not rows:
            raise ConfigError("general chain 'rows' must be nonempty")
        truncation = max(rows)
        if set(rows) != set(range(truncation + 1)):
            raise ConfigError("general chain rows must cover states 0..max contiguously")
        tail = None
        if "tail_row" in chain:
            width = band_lo + band_hi + 1
            trow = np.zeros(width)
            for off, wt in chain["tail_row"].items():
                trow[int(off) + band_lo] = float(wt)
            tail = HomogeneousTail(trow)
        kernel = kernel_from_rows(
            rows, truncation, band_lo, band_hi, tail=tail,
            stochastic=bool(chain.get("stochastic", False)),
        )
        limit = tail.row if tail is not None else None

        def row_rule(states: np.ndarray) -> np.ndarray:
            lo = int(states.min())
            return kernel.rows(lo, int(states.max()))[states - lo]

        return ChainFamily(
            name="general",
            band_lo=band_lo,
            band_hi=band_hi,
            row_rule=row_rule,
            limit_pmf=limit,
            homogeneous_from=(truncation + 1) if tail is not None else None,
            stochastic=bool(chain.get("stochastic", False)),
            params={},
        )
    raise ConfigError("general chain needs either 'drift' or 'rows'")


# ---------------------------------------------------------------------------
# params kinds: (raw value, lower bound, params so far) -> typed value or ConfigError


def _finite(v) -> bool:
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _int(v, lo, typed):
    if type(v) is not int or (lo is not None and v < lo):
        raise ConfigError(f"must be an integer{'' if lo is None else f' >= {lo}'}")
    return v


def _int_upto(cap):
    """An integer kind with an upper bound as well."""
    def kind(v, lo, typed):
        if _int(v, lo, typed) > cap:
            raise ConfigError(f"must be an integer in {lo}..{cap}")
        return v
    return kind


def _index(v, lo, typed):
    if _int(v, lo, typed) > typed.get("K", v):
        raise ConfigError(f"must be an integer in {lo}..K")
    return v


def _float(v, lo, typed):
    if not (_finite(v) and (lo is None or v > lo)):
        raise ConfigError(f"must be a finite number{'' if lo is None else f' > {lo}'}")
    return float(v)


def _states(v, lo, typed):
    if not (isinstance(v, list) and all(type(s) is int and s >= lo for s in v)):
        raise ConfigError("must be a list of nonnegative integers")
    return v


def _window(v, lo, typed):
    if not (isinstance(v, list) and len(v) == 2 and all(type(i) is int for i in v)
            and lo <= v[0] < v[1] <= typed.get("K", v[1])):
        raise ConfigError(f"must be [i0, i1] with i0 < i1, within {lo}..K")
    return tuple(v)


def _mode(v, lo, typed):
    if v not in ("constant", "alpha-over-m", "cramer-series"):
        raise ConfigError("must be constant | alpha-over-m | cramer-series")
    return v


def _moments(v, lo, typed):
    if not (isinstance(v, list) and len(v) >= typed.get("M", 1)
            and all(_finite(x) for x in v) and v[0] != 0):
        raise ConfigError("must list at least M numbers, and the first must be nonzero")
    return [float(x) for x in v]


def _cross_moments(obj, lo, typed) -> dict:
    """D as an object {"k,j": value} or a list of [k, j, value] triples."""
    if isinstance(obj, dict) and all(re.fullmatch(r"\s*\d+\s*,\s*\d+\s*", k) for k in obj):
        items = [(*map(int, k.split(",")), v) for k, v in obj.items()]
    elif isinstance(obj, list) and all(isinstance(t, list) and len(t) == 3 for t in obj):
        items = obj
    else:
        raise ConfigError('must be an object {"k,j": v} or a list of [k, j, v] triples')
    if not all(type(k) is int and type(j) is int and min(k, j) >= lo and _finite(v)
               for k, j, v in items):
        raise ConfigError(f"indices must be integers >= {lo} and values finite numbers")
    return {(k, j): float(v) for k, j, v in items}


def _resolve(task: str, raw: dict) -> tuple[dict, list[str]]:
    """The task's typed params, defaults filled in, and the violations."""
    spec = _TASK_SPECS[task][1]
    out = [f"params.{k} is not a parameter of task {task!r}" for k in raw if k not in spec]
    typed: dict = {}
    for name, (kind, default, lo) in spec.items():
        if name in raw:
            try:
                typed[name] = kind(raw[name], lo, typed)
            except ConfigError as exc:
                out.append(f"params.{name} {exc}")
        elif default is ...:
            out.append(f"task {task!r} needs params.{name}")
        elif "K" in typed or not callable(default):
            typed[name] = default(typed["K"]) if callable(default) else default
    return typed, out


def validate(config: ExperimentConfig) -> list[str]:
    """Pure config check; returns a list of human-readable violations."""
    if config.task not in _TASK_SPECS:
        return [f"unknown task {config.task!r} (expected one of {tuple(_TASK_SPECS)})"]
    typed, out = _resolve(config.task, config.params)
    if config.chain is None:
        if config.task != "cramer-series":
            out.append(f"task {config.task!r} needs a chain descriptor")
        elif "m" not in config.params:
            out.append("cramer-series without a chain needs params.m and params.D")
        return out
    try:
        family = build_chain(config.chain)
    except (HarmonicTailsError, AttributeError, KeyError, TypeError, ValueError) as exc:
        key = f" ({exc.args[0]!r})" if isinstance(exc, KeyError) else ""
        out.append(f"chain descriptor invalid: {exc}{key}")
        return out
    if config.task == "ladder" and "pmf" not in family.params:
        out.append("ladder task needs a walk-based chain (killed-walk or lindley)")
    elif (family.name == "general" and family.limit_pmf is None
          and config.task != "cramer-series"):
        # a kernel built at level n probes row n + 1; harmonic-solve reads up to 2K
        top = max(_kernel_level(family, typed.get("probe")) + 1, 2 * typed.get("K", 0))
        if len(config.chain["rows"]) <= top:
            out.append(f"chain rows without a tail_row stop below state {top}, "
                       f"which task {config.task!r} reads")
    return out


# ---------------------------------------------------------------------------
# output plumbing


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for r in rows:
            w.writerow([_fmt(v) for v in r])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _write_manifest(path: Path, config: ExperimentConfig, diagnostics: dict,
                    outputs: list[str], flagged: bool, flag_reason: str | None) -> None:
    doc = {
        "version": __version__,
        "task": config.task,
        "chain": config.chain,
        "params": config.params,
        "diagnostics": _jsonable(diagnostics),
        "outputs": outputs,
        "flagged": flagged,
        "flag_reason": flag_reason,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# task runners: each returns (header, rows, diagnostics, flagged, reason)


def _kernel_level(family: ChainFamily, probe: int | None = None) -> int:
    """The highest state whose row a kernel task materialises."""
    return max(family.homogeneous_from or 0, family.band_lo + 1, probe or 8)


def _run_harmonic_solve(family: ChainFamily, K: int, tol: float, i_max: int):
    kernel = family.kernel(_kernel_level(family))
    est = build_solve(kernel, K, tol=tol)
    diag = {
        "residual": est.residual,
        "doubling_disagreement": est.meta.get("doubling_disagreement"),
        "K": K,
        "method": est.method,
    }
    if family.name == "perturbed-reflected-walk":
        alpha, p = family.params["alpha"], family.params["p"]
        header = ["i", "f_solve", "f_closed_form", "abs_err"]
        rows = []
        for i in range(i_max + 1):
            fs = est.value(i)
            fc = reflected_walk_harmonic_exact(alpha, p, i)
            rows.append((i, fs, fc, abs(fs - fc)))
        diag["max_abs_err"] = max(r[3] for r in rows)
    else:
        header = ["i", "f_solve"]
        rows = [(i, est.value(i)) for i in range(i_max + 1)]
    return header, rows, diag, False, None


def _run_harmonic_mc(family: ChainFamily, states, n_paths: int, horizon: int, seed: int):
    kernel = family.kernel(_kernel_level(family))
    est = build_mc(kernel, states, n_paths, horizon, seed)
    header = ["i", "f_mc", "std_error", "n_exhausted"]
    rows = [
        (i, est.values[i], est.std_errors[i], est.meta["exhausted"][i]) for i in states
    ]
    diag = {
        "n_paths": n_paths,
        "horizon": horizon,
        "seed": seed,
        "stop_level": est.meta["stop_level"],
        "horizon_warning": est.meta["horizon_warning"],
    }
    return header, rows, diag, False, None


def _run_conditions(family: ChainFamily, probe: int):
    kernel = family.kernel(_kernel_level(family, probe))
    report = check_conditions(kernel, family)
    header = ["quantity", "value"]
    rows = [
        ("sum_abs_delta", report.sum_abs_delta),
        ("delta_plus_sum", report.delta_plus_sum),
        ("minorant_mean", report.minorant_mean),
        ("escape_prob_lower", report.escape_prob_lower),
        ("gamma_available", report.gamma_available),
        ("drift_eps", report.drift_eps),
        ("drift_M", report.drift_M),
        ("zeta_mean", report.zeta_mean),
    ]
    for i in sorted(report.return_prob_bounds):
        lo, hi = report.return_prob_bounds[i]
        rows.append((f"return_prob_lower[{i}]", lo))
        rows.append((f"return_prob_upper[{i}]", hi))
    diag = {
        "thm_2_4_applicable": report.thm_2_4_applicable,
        "prop_2_5_holds": report.prop_2_5_holds,
        "prop_2_7_holds": report.prop_2_7_holds,
        "notes": list(report.notes),
    }
    flagged = not report.thm_2_4_applicable
    reason = "limit-theorem conditions not certified" if flagged else None
    return header, rows, diag, flagged, reason


def _run_ladder(family: ChainFamily, i_max: int, beta):
    walk = LatticeWalk(lo=-family.band_lo, pmf=np.array(family.params["pmf"]))
    beta = cramer_root(walk) if beta is None else beta
    lad = ladder_height(walk).with_renewal(i_max)
    f_ladder = ladder_harmonic(lad, beta, np.arange(i_max + 1))
    f_min = tilted_minimum_harmonic(walk, i_max, beta=beta, original_ladder=lad)
    if not (np.all(np.isfinite(f_ladder)) and np.all(np.isfinite(f_min))):
        raise SolverFailure(
            f"exp(beta i) overflows below i_max = {i_max} (beta = {beta:.6g})",
            reason="non-finite",
        )
    mult = equivalence_multiplier(walk, beta=beta)
    header = ["i", "ladder_form", "tilted_min_form", "ratio"]
    rows = [
        (i, f_ladder[i], f_min[i], f_min[i] / f_ladder[i]) for i in range(i_max + 1)
    ]
    diag = {
        "beta": beta,
        "multiplier": mult,
        "ladder_defect": lad.defect,
        "chi_mean": lad.mean(),
        "max_ratio_deviation": float(np.max(np.abs(f_min / f_ladder - mult))),
    }
    return header, rows, diag, False, None


def _run_stationary(family: ChainFamily, K: int, beta, doubling_tol: float, i_max: int):
    res = stationary_solve(family, K, beta=beta, doubling_tol=doubling_tol)
    header = ["i", "log_pi", "pi"]
    rows = [(i, res.log_pi[i], math.exp(res.log_pi[i])) for i in range(i_max + 1)]
    diag = {
        "K": K,
        "tilt_beta": res.tilt_beta,
        "normalization_error": res.normalization_error,
        "doubling_disagreement": res.doubling_disagreement,
        "reflected_weight": res.reflected_weight,
        "balance_residual": res.meta["balance_residual"],
    }
    return header, rows, diag, False, None


def _run_tail(family: ChainFamily, K: int, window: tuple[int, int], mode: str, order: int,
              variation_tol: float, doubling_tol: float):
    res = stationary_solve(family, K, doubling_tol=doubling_tol)
    model = build_beta_fn(family, mode=mode, order=order)
    fit = tail_extract(res.log_pi, model.predict_log_tail, window, variation_tol)
    header = ["i", "log_pi", "predicted_log_tail", "log_c"]
    rows = []
    for k, i in enumerate(range(window[0], window[1] + 1)):
        rows.append((i, res.log_pi[i], model.predict_log_tail(i), fit.log_constants[k]))
    diag = {
        "K": K,
        "mode": mode,
        "beta_limit": model.beta_limit,
        "coefficients": list(model.coefficients),
        "constant": fit.constant,
        "variation": fit.variation,
        "variation_tol": variation_tol,
        "window": list(window),
        "passed": fit.passed,
        "model_meta": model.meta,
    }
    flagged = not fit.passed
    reason = (
        f"tail constant varies by {fit.variation:.3g} > {variation_tol:.3g} over the window"
        if flagged
        else None
    )
    return header, rows, diag, flagged, reason


def _run_cramer_series(family: ChainFamily | None, M: int, m: list | None, D: dict):
    if m is None:
        data = family.moment_data(cramer_root(family.limit_walk), M)
        if data is None:
            raise ConfigError(f"chain {family.name!r} has no closed-form expansion data; "
                              "pass params.m and params.D explicitly")
        m, D, _scale = data
    R = cramer_coefficients(m, D, M)
    resid = cramer_series_residual(m, D, R)
    header = ["k", "R_k"]
    rows = [(k + 1, float(R[k])) for k in range(M)]
    diag = {"M": M, "m": m, "D": {f"{k},{j}": v for (k, j), v in D.items()},
            "back_substitution_residual": resid}
    return header, rows, diag, False, None


# Size caps from a peak-RSS budget of about 1 GB: a run holds about 70 bytes
# per Monte Carlo path and at most about 400 bytes per state it materialises
# (K, ladder i_max, conditions probe), on top of ~80 MB.
_MAX_PATHS = 10**7
_MAX_STATES = 10**6

# task -> (runner, {param: (kind, default, lower bound)}); a default of ... is
# required, a callable one a function of the task's truncation K (listed first)
_TASK_SPECS = {
    "harmonic-solve": (_run_harmonic_solve, {
        "K": (_int_upto(_MAX_STATES), 400, 10), "tol": (_float, 1e-10, 0),
        "i_max": (_index, lambda K: min(K, 50), 0)}),
    "harmonic-mc": (_run_harmonic_mc, {
        "states": (_states, tuple(range(11)), 0),
        "n_paths": (_int_upto(_MAX_PATHS), 100_000, 1),
        "horizon": (_int, 100_000, 1), "seed": (_int, ..., None)}),
    "conditions": (_run_conditions, {"probe": (_int_upto(_MAX_STATES), 64, 1)}),
    "ladder": (_run_ladder, {
        "i_max": (_int_upto(_MAX_STATES), 50, 0), "beta": (_float, None, None)}),
    "stationary": (_run_stationary, {
        "K": (_int_upto(_MAX_STATES), 400, 10), "beta": (_float, None, None),
        "doubling_tol": (_float, 1e-8, 0), "i_max": (_index, lambda K: K, 0)}),
    "tail": (_run_tail, {
        "K": (_int_upto(_MAX_STATES), 4000, 10),
        "window": (_window, lambda K: (K // 2, 3 * K // 4), 0),
        "mode": (_mode, "constant", None), "order": (_int, 2, 1),
        "variation_tol": (_float, 0.01, 0), "doubling_tol": (_float, 1e-8, 0)}),
    "cramer-series": (_run_cramer_series, {
        "M": (_int, 2, 1), "m": (_moments, None, None), "D": (_cross_moments, {}, 1)}),
}


def run(config: ExperimentConfig, out_dir: Path, stem: str, quiet: bool = False) -> int:
    problems = validate(config)
    if problems:
        for msg in problems:
            print(f"config error: {msg}", file=sys.stderr)
        return 1

    params, _ = _resolve(config.task, config.params)
    family = build_chain(config.chain) if config.chain is not None else None

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{stem}.csv"
    manifest_path = out_dir / f"{stem}.manifest.json"

    try:
        header, rows, diag, flagged, reason = _TASK_SPECS[config.task][0](family, **params)
    except _FLAGGED as exc:
        diag = {"error_type": type(exc).__name__, "error": str(exc)}
        if isinstance(exc, SolverFailure):
            diag["reason"] = exc.reason
            diag["solver_diagnostics"] = _jsonable(exc.diagnostics)
        _write_manifest(manifest_path, config, diag, [], True, str(exc))
        if not quiet:
            print(f"flagged: {exc}", file=sys.stderr)
            print(f"wrote {manifest_path}")
        return 2

    _write_csv(csv_path, header, rows)
    _write_manifest(manifest_path, config, diag, [csv_path.name], flagged, reason)
    if not quiet:
        if flagged:
            print(f"flagged: {reason}", file=sys.stderr)
        print(f"wrote {csv_path}")
        print(f"wrote {manifest_path}")
    return 2 if flagged else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="harmonictails",
        description="Harmonic functions of banded kernels and stationary tail decay.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override params.seed")
    p_run.add_argument("--quiet", action="store_true")

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config", type=Path)

    args = parser.parse_args(argv)
    try:
        config = ExperimentConfig.from_file(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        problems = validate(config)
        for msg in problems:
            print(msg)
        return 1 if problems else 0

    if args.seed is not None:
        config.params["seed"] = args.seed
    try:
        return run(config, args.out, args.config.stem, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except HarmonicTailsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
