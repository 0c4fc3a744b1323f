"""One benchmark process: set up a workload, then run it in a closed loop.

Started by ``run.py`` in a fresh interpreter; not meant to be run by hand.
It talks to its parent through stdout lines that start with ``@@perfbench``:
a ``ready`` message once set-up is done (import, inputs and references), and
a ``result`` message at the end.  With ``--mode setup`` it stops after
``ready``; the parent times those starts for ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import tracing

ROOT = Path(__file__).resolve().parent.parent
PREFIX = "@@perfbench "
# Fixed per workload so the figure means the same thing on every commit;
# each leaves at least ten samples beyond it at this repository's speed.
TAIL_PERCENTILE = {"large_k_solves": 75, "mc_paths": 90, "small_problems": 95}
SWEEP_REPEATS = 3
SWEPT = ("chains.kernel", "harmonic.build_solve", "harmonic.verify_harmonicity",
         "kernels.apply", "stationary.stationary_solve")


def send(kind, **payload):
    print(PREFIX + json.dumps({"kind": kind, **payload}), flush=True)


class Tally:
    """Latencies of ops, by kind, and failures of all attempted ones.

    Each op is timed right after a host-speed calibration; ``by_kind`` keeps
    the latency scaled to reference speed, ``raw_by_kind`` the measured one.
    """

    def __init__(self):
        self.by_kind: dict[str, list[float]] = {}
        self.raw_by_kind: dict[str, list[float]] = {}
        self.calibrations: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, op, tracer=None, op_id=None) -> float:
        """Run and check one op; returns its latency at reference speed."""
        if tracer is not None:
            tracer.op_id = op_id
        self.attempted += 1
        cal = hostspeed.calibrate()
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a raising op is a failed op; keep measuring
            dt = time.perf_counter() - t0
            err = f"{type(exc).__name__}: {exc}"
        else:
            dt = time.perf_counter() - t0
            try:
                err = op.check(out)
            except Exception as exc:  # a result the check cannot read is wrong
                err = f"check raised {type(exc).__name__}: {exc}"
        scaled = hostspeed.scale(dt, cal)
        self.by_kind.setdefault(op.name, []).append(scaled)
        self.raw_by_kind.setdefault(op.name, []).append(dt)
        self.calibrations.append(cal)
        if err is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{op.name}: {err}")
                print(f"perfbench: {op.name} failed: {err}", file=sys.stderr)
        return scaled


def closed_loop(ops, seconds, tally, tracer=None, first_id=0):
    """Whole cycles until ``seconds`` have passed.  Returns each cycle's op
    time at reference speed (calibrations and checks left out) and the op ids."""
    ids, cycle_s = [], []
    t0 = time.perf_counter()
    while True:
        busy = 0.0
        for op in ops:
            ids.append(first_id + len(ids))
            busy += tally.run(op, tracer, ids[-1])
        cycle_s.append(busy)
        if time.perf_counter() - t0 >= seconds:
            return cycle_s, ids


def throughput(n_ops, cycle_s):
    """Ops per second over the median cycle: a slow spell of the host that
    covers less than half the cycles does not move it."""
    return n_ops / statistics.median(cycle_s)


def raw_figures(tally):
    """Unscaled op_p50_ms and the calibration's median, for the meta line."""
    raw = {k: statistics.median(v) for k, v in tally.raw_by_kind.items()}
    return {"raw_op_p50_ms": statistics.median(raw.values()) * 1e3,
            "calibration_ms": statistics.median(tally.calibrations) * 1e3,
            "raw_kind_p50_ms": {k: v * 1e3 for k, v in raw.items()}}


def end_to_end(workload, ops, tally, cycle_s):
    lat = sorted(v for kind in tally.by_kind.values() for v in kind)
    pct = TAIL_PERCENTILE[workload]
    tail = float(statistics.quantiles(lat, n=100, method="inclusive")[pct - 1])
    beyond = sum(1 for v in lat if v > tail)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    # Every kind runs once per cycle, so kinds weigh equally either way; the
    # median of per-kind medians does not hinge on the extreme samples of the
    # two kinds that straddle the middle when their latencies are far apart.
    kind_medians = {k: statistics.median(v) for k, v in tally.by_kind.items()}
    metrics = {
        "op_p50_ms": statistics.median(kind_medians.values()) * 1e3,
        "op_tail_ms": tail * 1e3,
        "ops_per_s": throughput(len(ops), cycle_s),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    info = {"samples": len(lat), "cycles": len(cycle_s), "tail_percentile": pct,
            "tail_samples_beyond": beyond,
            "kind_p50_ms": {k: v * 1e3 for k, v in kind_medians.items()},
            **raw_figures(tally)}
    return metrics, info


def per_layer(tracer, ops, cycles, sweep_ids):
    selfs = tracer.self_seconds(ops)
    counts = tracer.counts(ops)
    out = {}
    for name in tracing.TIMED:
        calls, sec = selfs.get(name, (0, 0.0))
        out[f"{name}.ms"] = sec * 1e3 / cycles
        out[f"{name}.calls"] = calls / cycles
    for key in (*tracing.COUNTERS, "trace.counter_errors"):
        out[key] = counts.get(key, 0) / cycles
    for layer in tracing.LAYERS:
        out[f"{layer}.self_ms"] = sum(out[f"{n}.ms"] for n in tracing.TIMED
                                      if n.startswith(layer + "."))
    paths = counts.get("harmonic.build_mc.paths", 0)
    mc_s = tracer.inclusive_seconds(ops, "harmonic.build_mc")
    out["harmonic.build_mc.paths_per_s"] = paths / mc_s if mc_s else 0.0
    out["harmonic.build_mc.exhausted_frac"] = (
        counts.get("harmonic.build_mc.exhausted", 0) / paths if paths else 0.0)
    for K, ids_by_rep in sweep_ids.items():
        reps = [tracer.self_seconds(set(ids)) for ids in ids_by_rep]
        for name in SWEPT:
            out[f"{name}.K{K}.ms"] = statistics.median(r[name][1] for r in reps) * 1e3
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import harmonictails

    if not Path(harmonictails.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported {harmonictails.__file__}, not this checkout's src/",
              file=sys.stderr)
        return 1
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        ops = workloads.build(args.workload, random.Random(args.seed), ROOT, workdir)
        send("ready")
        if args.mode == "setup":
            return 0
        return run(args, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, ops) -> int:
    warm = Tally()  # warm-up pass: first calls and first-pass references; not timed
    for op in ops:
        warm.run(op)
    if not args.trace:
        timed = Tally()
        cycle_s, _ = closed_loop(ops, args.seconds, timed)
        metrics, info = end_to_end(args.workload, ops, timed, cycle_s)
        tallies = [warm, timed]
    else:
        metrics, info, tallies = traced_run(args, ops)
        tallies.insert(0, warm)
    send("result", metrics=metrics, info=info,
         attempted=sum(t.attempted for t in tallies),
         failed=sum(t.failed for t in tallies),
         errors=[e for t in tallies for e in t.errors])
    return 0


def traced_run(args, ops):
    """Half the time untraced, half traced, then the K sweep, traced."""
    import workloads

    plain, traced, sweep = Tally(), Tally(), Tally()
    plain_s, ids = closed_loop(ops, args.seconds / 2.0, plain)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_s, traced_ids = closed_loop(ops, args.seconds / 2.0, traced, tracer, len(ids))
        sweep_ids = {}
        next_id = traced_ids[-1] + 1
        for K in workloads.SWEEP_K:
            sweep_ids[K] = []
            for _ in range(SWEEP_REPEATS):
                rep = []
                for op in workloads.sweep_ops(K):
                    sweep.run(op, tracer, next_id)
                    rep.append(next_id)
                    next_id += 1
                sweep_ids[K].append(rep)
    finally:
        tracer.uninstall()
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"{args.workload}-seed{args.seed}.spans.json")

    cycles = len(traced_s)
    metrics = per_layer(tracer, set(traced_ids), cycles, sweep_ids)
    untraced_ops_s = throughput(len(ops), plain_s)
    traced_ops_s = throughput(len(ops), traced_s)
    metrics["trace.untraced_ops_per_s"] = untraced_ops_s
    metrics["trace.traced_ops_per_s"] = traced_ops_s
    metrics["trace.ops_per_s_ratio"] = traced_ops_s / untraced_ops_s
    metrics["trace.cycles"] = cycles
    return metrics, {"traced_cycles": cycles}, [plain, traced, sweep]


if __name__ == "__main__":
    sys.exit(main())
