"""harmonictails benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``BENCHMARK.json`` against the package in this
checkout's ``src/``, checks every result, prints each metric by name with
its unit, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones.

Each workload runs in a fresh child interpreter (``worker.py``) with one
caller in a closed loop and BLAS/OpenMP pinned to one thread.  ``setup_s``
is the median, over several further fresh interpreters, of the time from
process start until inputs and references are ready.  Every time is scaled
to reference host speed (``hostspeed.py``); the raw figures go to ``meta``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy
import scipy

import hostspeed
from worker import PREFIX

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("large_k_solves", "mc_paths", "small_problems")
SETUP_SAMPLES = 5
CALIBRATIONS = 5  # around each set-up start
CHILD_TIMEOUT_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ChildError(RuntimeError):
    pass


def spawn(args, mode):
    """Run worker.py; returns (seconds from start to its ready message, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = {**os.environ, **THREAD_ENV}
    ready = result = None
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            if not line.startswith(PREFIX):
                sys.stderr.write(line)  # keep stdout for the result
                continue
            msg = json.loads(line[len(PREFIX):])
            if msg["kind"] == "ready":
                ready = time.perf_counter() - t0
            elif msg["kind"] == "result":
                result = msg
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or ready is None or (mode == "run" and result is None):
        raise ChildError(f"worker ({mode}) exited with code {rc} before finishing")
    return ready, result


def timed_setup(args):
    """One fresh interpreter's set-up time, raw and at reference speed; the
    host speed is calibrated just before and just after it."""
    cals = [hostspeed.calibrate() for _ in range(CALIBRATIONS)]
    ready, _ = spawn(args, "setup")
    cals += [hostspeed.calibrate() for _ in range(CALIBRATIONS)]
    return ready, hostspeed.scale(ready, statistics.median(cals))


def source_identity():
    """Commit (when the checkout is a git work tree) and a hash of src/."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            ).stdout.strip() or None
        except OSError:
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        **source_identity(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if not (ROOT / "src" / "harmonictails").is_dir():
            raise ChildError(f"no package source at {ROOT / 'src' / 'harmonictails'}")
        # set-up time is an end-to-end metric; the traced run skips it
        setups = [] if args.trace else [timed_setup(args) for _ in range(SETUP_SAMPLES)]
        _, result = spawn(args, "run")
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics = dict(result["metrics"])
    if setups:
        metrics["setup_s"] = statistics.median(scaled for _, scaled in setups)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    meta = metadata(args)
    meta.update(result["info"], setup_raw_s=[raw for raw, _ in setups],
                setup_scaled_s=[scaled for _, scaled in setups], fail_frac=failed / attempted,
                errors=result["errors"])
    print("meta " + json.dumps(meta))
    for m in wanted:
        print(f"{m['name']:45s} {metrics[m['name']]!r:>24} {m['unit']}")
    print(f"{'fail_frac':45s} {failed / attempted!r:>24} ({failed}/{attempted} ops failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
