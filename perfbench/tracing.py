"""In-memory span tracer for the benchmark's traced run.

``Tracer.install`` replaces the package's public layer functions with
wrappers at every place a caller looks them up: the defining module, the
package namespace and any sibling module that imported the name (``cli``
imports ``build_solve`` by name, so ``harmonictails.cli.build_solve`` gets
its own wrapper).  A call made from inside the package is therefore recorded
the same way as one made by the benchmark.  Nothing under ``src/`` is edited,
and ``Tracer.uninstall`` puts the originals back.

Each wrapped call becomes a span ``[name, start, end, parent, op id, child
seconds]``.  ``kernels.apply`` runs once per state inside the residual loop
and ``kernels.row`` once per materialised row, up to 10^5 times per op, so
they get no span record: ``apply`` is timed as a leaf whose time is charged
to the enclosing span's children, and ``row`` is only counted.  A span's
self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("chains", "kernels", "harmonic", "ladder", "stationary", "cli")


def _solve_work(a, out):
    kernel, K = a["kernel"], a["K"]
    sizes = [K - kernel.state_lo + 1]
    if a["check_doubling"] and kernel.has_row(2 * K):
        sizes.append(2 * K - kernel.state_lo + 1)
    width = kernel.band_lo + kernel.band_hi + 1
    # computed bytes of the banded LAPACK matrices, not measured traffic
    return {"unknowns": sum(sizes), "band_bytes": sum(width * n * 8 for n in sizes)}


def _stationary_work(a, out):
    K = a["K"]
    return {"unknowns": (K + 1) + ((2 * K + 1) if a["check_doubling"] else 0)}


def _mc_work(a, out):
    paths = a["n_paths"] * len(a["states"])
    return {"paths": paths, "exhausted": sum(out.meta["exhausted"].values())}


# Module-level functions, by "<module>.<name>", with an optional counter that
# maps (bound arguments, result) to deterministic work counts.  Counters run
# only when the call returns.
FUNCTIONS = {
    "harmonic.build_solve": _solve_work,
    "harmonic.verify_harmonicity": lambda a, out: {"states": len(a["states"])},
    "harmonic.build_mc": _mc_work,
    "harmonic.local_time_moment_mc": None,
    "harmonic.expected_local_times_mc": None,
    "harmonic.check_conditions": None,
    "harmonic.return_probability_bounds": None,
    "ladder.ladder_height": lambda a, out: {"iterations": out.meta["iterations"]},
    "ladder.renewal_mass": None,
    "ladder.cramer_root": None,
    "ladder.equivalence_multiplier": None,
    "stationary.stationary_solve": _stationary_work,
    "stationary.build_beta_fn": None,
    "stationary.tail_extract": None,
    "stationary.renewal_measure": lambda a, out: {"iterations": out[1]["iterations"]},
    "stationary.entry_measure": None,
    "stationary.doob_transform": None,
    "cli.main": None,
    "cli.validate": None,
    "cli.build_chain": None,
}
TIMED = ("chains.kernel", *FUNCTIONS, "kernels.apply")
COUNTERS = (
    "chains.kernel.rows",
    "kernels.row.calls",
    "harmonic.build_solve.unknowns",
    "harmonic.build_solve.band_bytes",
    "harmonic.verify_harmonicity.states",
    "stationary.stationary_solve.unknowns",
    "harmonic.build_mc.paths",
    "ladder.ladder_height.iterations",
    "stationary.renewal_measure.iterations",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = None
        self._stack: list[int] = []
        self._leaf = defaultdict(lambda: [0, 0.0])  # (op, name) -> [calls, seconds]
        self._counts = defaultdict(int)  # (op, key) -> count
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, counter):
        sig = inspect.signature(fn) if counter is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            rec = [name, 0.0, 0.0, parent, self.op_id, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent][5] += rec[2] - rec[1]
            if counter is not None:
                self._count(name, counter, sig, args, kwargs, out)
            return out

        return wrapper

    def _count(self, name, counter, sig, args, kwargs, out):
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            counts = counter(bound.arguments, out)
        except (TypeError, KeyError, AttributeError):
            # the layer's signature or result changed shape; keep the op
            # running and make the gap visible as its own count
            self._counts[(self.op_id, "trace.counter_errors")] += 1
            return
        for key, v in counts.items():
            self._counts[(self.op_id, f"{name}.{key}")] += int(v)

    def _leaf_timer(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                agg = self._leaf[(self.op_id, name)]
                agg[0] += 1
                agg[1] += dt
                if self._stack:
                    self.spans[self._stack[-1]][5] += dt

        return wrapper

    def _call_counter(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._counts[(self.op_id, key)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall -----------------------------------------------

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        from harmonictails.chains import ChainFamily
        from harmonictails.kernels import TransitionKernel

        modules = [m for n, m in list(sys.modules.items())
                   if n == "harmonictails" or n.startswith("harmonictails.")]
        for qual, counter in FUNCTIONS.items():
            mod_name, fname = qual.split(".")
            orig = sys.modules[f"harmonictails.{mod_name}"].__dict__.get(fname)
            if orig is None:  # the layer no longer offers this function
                continue
            wrapped = self._span(qual, orig, counter)
            for m in modules:
                if m.__dict__.get(fname) is orig:
                    self._patch(m, fname, wrapped)
        rows = lambda a, out: {"rows": a["truncation"] + 1}  # noqa: E731
        self._patch(ChainFamily, "kernel",
                    self._span("chains.kernel", ChainFamily.kernel, rows))
        self._patch(TransitionKernel, "apply",
                    self._leaf_timer("kernels.apply", TransitionKernel.apply))
        self._patch(TransitionKernel, "row",
                    self._call_counter("kernels.row.calls", TransitionKernel.row))

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- aggregation -------------------------------------------------------

    def self_seconds(self, ops) -> dict[str, list]:
        """name -> [calls, self seconds] over the given op ids."""
        out = defaultdict(lambda: [0, 0.0])
        for name, t0, t1, _parent, op, child in self.spans:
            if op in ops:
                agg = out[name]
                agg[0] += 1
                agg[1] += (t1 - t0) - child
        for (op, name), (calls, sec) in self._leaf.items():
            if op in ops:
                agg = out[name]
                agg[0] += calls
                agg[1] += sec
        return out

    def counts(self, ops) -> dict[str, int]:
        out = defaultdict(int)
        for (op, key), v in self._counts.items():
            if op in ops:
                out[key] += v
        return out

    def inclusive_seconds(self, ops, name) -> float:
        return sum(t1 - t0 for n, t0, t1, _p, op, _c in self.spans if op in ops and n == name)

    def dump(self, path):
        """Write every span, leaf timing and count as JSON."""
        doc = {
            "spans": [
                {"name": n, "start": t0, "end": t1, "parent": parent, "op": op,
                 "self_s": (t1 - t0) - child}
                for n, t0, t1, parent, op, child in self.spans
            ],
            "leaf": [{"op": op, "name": n, "calls": c, "seconds": s}
                     for (op, n), (c, s) in self._leaf.items()],
            "counts": [{"op": op, "key": k, "value": v}
                       for (op, k), v in self._counts.items()],
        }
        path.write_text(json.dumps(doc))
