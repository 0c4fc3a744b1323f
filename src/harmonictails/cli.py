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
    UnsupportedInputError,
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

_TASKS = (
    "harmonic-mc",
    "harmonic-solve",
    "conditions",
    "ladder",
    "stationary",
    "tail",
    "cramer-series",
)
_CHAINS = ("example1", "example2", "killed-walk", "lindley", "example3", "general")
_MC_TASKS = ("harmonic-mc",)
_STATIONARY_K = 400


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


def validate(config: ExperimentConfig) -> list[str]:
    """Pure config check; returns a list of human-readable violations."""
    out: list[str] = []
    if config.task not in _TASKS:
        out.append(f"unknown task {config.task!r} (expected one of {_TASKS})")
        return out
    if config.chain is None and config.task != "cramer-series":
        out.append(f"task {config.task!r} needs a chain descriptor")
    if config.chain is not None:
        try:
            build_chain(config.chain)
        except (ConfigError, UnsupportedInputError, KeyError, TypeError, ValueError) as exc:
            key = f" ({exc.args[0]!r})" if isinstance(exc, KeyError) else ""
            out.append(f"chain descriptor invalid: {exc}{key}")
    elif config.task == "cramer-series" and "m" not in config.params:
        out.append("cramer-series without a chain needs params.m and params.D")

    p = config.params
    if "K" in p and (not isinstance(p["K"], int) or p["K"] < 10):
        out.append("params.K must be an integer >= 10")
    if config.task in _MC_TASKS and "seed" not in p:
        out.append(f"task {config.task!r} needs params.seed for reproducibility")
    if "states" in p and not (isinstance(p["states"], list) and all(
            type(s) is int and s >= 0 for s in p["states"])):
        out.append("params.states must be a list of nonnegative integers")
    if config.task == "stationary" and "i_max" in p:
        K = p.get("K", _STATIONARY_K)
        if not (type(p["i_max"]) is int and isinstance(K, int) and 0 <= p["i_max"] <= K):
            out.append("params.i_max must be an integer in 0..K")
    if "window" in p:
        w = p["window"]
        if not (isinstance(w, list) and len(w) == 2 and all(isinstance(v, int) for v in w)
                and 0 <= w[0] < w[1]):
            out.append("params.window must be [i0, i1] with 0 <= i0 < i1")
        elif "K" in p and isinstance(p["K"], int) and w[1] > p["K"]:
            out.append("params.window must lie within 0..K")
    if "M" in p and (not isinstance(p["M"], int) or p["M"] < 1):
        out.append("params.M must be an integer >= 1")
    if config.task == "cramer-series" and "m" in p:
        m = p["m"]
        if not (isinstance(m, list) and m and all(isinstance(v, (int, float)) for v in m)):
            out.append("params.m must be a nonempty list of numbers")
        elif float(m[0]) == 0.0:
            out.append("params.m[0] (the first tilted moment) must be nonzero")
    if "mode" in p and p["mode"] not in ("constant", "alpha-over-m", "cramer-series"):
        out.append("params.mode must be constant | alpha-over-m | cramer-series")
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


def _kernel_for(family: ChainFamily, extra: int = 8):
    level = max(family.homogeneous_from or 0, family.band_lo + 1, extra)
    return family.kernel(level)


def _run_harmonic_solve(family: ChainFamily, params: dict):
    K = int(params.get("K", 400))
    tol = float(params.get("tol", 1e-10))
    i_max = int(params.get("i_max", min(K, 50)))
    kernel = _kernel_for(family)
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


def _run_harmonic_mc(family: ChainFamily, params: dict):
    states = [int(s) for s in params.get("states", list(range(11)))]
    n_paths = int(params.get("n_paths", 100_000))
    horizon = int(params.get("horizon", 100_000))
    seed = int(params["seed"])
    kernel = _kernel_for(family)
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


def _run_conditions(family: ChainFamily, params: dict):
    kernel = _kernel_for(family, extra=int(params.get("probe", 64)))
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


def _run_ladder(family: ChainFamily, params: dict):
    if "pmf" not in family.params:
        raise ConfigError("ladder task needs a walk-based chain (killed-walk or lindley)")
    walk = LatticeWalk(lo=-family.band_lo, pmf=np.array(family.params["pmf"]))
    i_max = int(params.get("i_max", 50))
    beta = float(params["beta"]) if "beta" in params else cramer_root(walk)
    lad = ladder_height(walk).with_renewal(i_max)
    f_ladder = np.array([ladder_harmonic(lad, beta, i) for i in range(i_max + 1)])
    f_min = tilted_minimum_harmonic(walk, i_max, beta=beta, original_ladder=lad)
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


def _run_stationary(family: ChainFamily, params: dict):
    K = int(params.get("K", _STATIONARY_K))
    res = stationary_solve(
        family,
        K,
        beta=params.get("beta"),
        doubling_tol=float(params.get("doubling_tol", 1e-8)),
    )
    i_max = int(params.get("i_max", K))
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


def _run_tail(family: ChainFamily, params: dict):
    K = int(params.get("K", 4000))
    window = params.get("window", [K // 2, 3 * K // 4])
    window = (int(window[0]), int(window[1]))
    mode = params.get("mode", "constant")
    order = int(params.get("order", 2))
    vtol = float(params.get("variation_tol", 0.01))
    res = stationary_solve(family, K, doubling_tol=float(params.get("doubling_tol", 1e-8)))
    model = build_beta_fn(family, mode=mode, order=order)
    fit = tail_extract(res.log_pi, model.predict_log_tail, window, variation_tol=vtol)
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
        "variation_tol": vtol,
        "window": list(window),
        "passed": fit.passed,
        "model_meta": model.meta,
    }
    flagged = not fit.passed
    reason = (
        f"tail constant varies by {fit.variation:.3g} > {vtol:.3g} over the window"
        if flagged
        else None
    )
    return header, rows, diag, flagged, reason


def _run_cramer_series(family: ChainFamily | None, params: dict):
    M = int(params.get("M", 2))
    if "m" in params:
        m = [float(v) for v in params["m"]]
        D = _parse_D(params.get("D", []))
    elif family is not None:
        walk = family.limit_walk
        beta = cramer_root(walk)
        data = family.moment_data(beta, M)
        if data is None:
            raise ConfigError(
                f"chain {family.name!r} has no closed-form expansion data; "
                "pass params.m and params.D explicitly"
            )
        m, D, _scale = data
    else:
        raise ConfigError("cramer-series needs params.m/params.D or a parametric chain")
    R = cramer_coefficients(m, D, M)
    resid = cramer_series_residual(m, D, R)
    header = ["k", "R_k"]
    rows = [(k + 1, float(R[k])) for k in range(M)]
    diag = {"M": M, "m": m, "D": {f"{k},{j}": v for (k, j), v in D.items()},
            "back_substitution_residual": resid}
    return header, rows, diag, False, None


def _parse_D(obj) -> dict:
    D = {}
    if isinstance(obj, dict):
        items = []
        for key, v in obj.items():
            try:
                k, j = (int(s) for s in str(key).split(","))
            except ValueError:
                raise ConfigError(f"params.D key {key!r} must look like 'k,j'")
            items.append((k, j, v))
    elif isinstance(obj, list):
        items = []
        for triple in obj:
            if not (isinstance(triple, list) and len(triple) == 3):
                raise ConfigError("params.D entries must be [k, j, value] triples")
            items.append((int(triple[0]), int(triple[1]), triple[2]))
    else:
        raise ConfigError("params.D must be an object or a list of triples")
    for k, j, v in items:
        if k < 1 or j < 1:
            raise ConfigError("params.D indices must be >= 1")
        D[(k, j)] = float(v)
    return D


def run(config: ExperimentConfig, out_dir: Path, stem: str, quiet: bool = False) -> int:
    problems = validate(config)
    if problems:
        for msg in problems:
            print(f"config error: {msg}", file=sys.stderr)
        return 1

    family = build_chain(config.chain) if config.chain is not None else None
    runners = {
        "harmonic-solve": lambda: _run_harmonic_solve(family, config.params),
        "harmonic-mc": lambda: _run_harmonic_mc(family, config.params),
        "conditions": lambda: _run_conditions(family, config.params),
        "ladder": lambda: _run_ladder(family, config.params),
        "stationary": lambda: _run_stationary(family, config.params),
        "tail": lambda: _run_tail(family, config.params),
        "cramer-series": lambda: _run_cramer_series(family, config.params),
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{stem}.csv"
    manifest_path = out_dir / f"{stem}.manifest.json"

    try:
        header, rows, diag, flagged, reason = runners[config.task]()
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
