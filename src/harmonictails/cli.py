"""Experiment runner: JSON config in, CSV + manifest out.

The config is a JSON document with keys ``chain``, ``task``, ``params``.
``chain`` names one of the built-in families (or ``general`` with explicit
rows / a drift profile); ``task`` picks the computation.  Every run writes
``<stem>.csv`` (RFC 4180, LF line endings, 17 significant digits) and
``<stem>.manifest.json`` next to it; reruns with the same config and seed
are byte-identical.  A rerun overwrites both files in place: they are opened
without truncation, written, and cut at the written length, so an existing
longer file leaves no stale tail.

Exit codes: 0 success, 1 operational error (bad config, missing file),
2 computed-but-flagged (non-existence detected, a doubling or variation
check failed, a condition verdict is negative).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import os
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
    _BOUNDARY_MASS_TOL,
    build_mc,
    build_solve,
    check_conditions,
    _check_product,
    reflected_walk_harmonic_exact,
)
from .kernels import _ROW_SUM_TOL, HomogeneousTail, StochasticKernel, TransitionKernel
from .ladder import LatticeWalk, cramer_root, killed_walk_harmonic
from .stationary import (
    build_beta_fn,
    cramer_coefficients,
    cramer_series_residual,
    stationary_solve,
    tail_extract,
)

_FLAGGED = (NoPositiveHarmonicError, SolverFailure, InternalConsistencyError)


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
        if not isinstance(raw, dict) or not isinstance(raw.get("task"), str):
            raise ConfigError("config must be a JSON object whose 'task' key is a string")
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


# ---------------------------------------------------------------------------
# kinds: (raw value, lower bound, values so far) -> typed value or ConfigError


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


def _one_of(*values):
    """A kind that takes the given values only."""
    def kind(v, lo, typed):
        if v not in values:
            raise ConfigError(f"must be {' | '.join(values)}")
        return v
    return kind


def _bool(v, lo, typed):
    if type(v) is not bool:
        raise ConfigError("must be true or false")
    return v


def _numbers(v, lo, typed):
    if not (isinstance(v, list) and all(_finite(x) for x in v)):
        raise ConfigError("must be a list of finite numbers")
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


_INTEGER = re.compile(r"\s*[+-]?\d+\s*")


def _steps(v, lo, typed) -> dict:
    """A step law {offset: weight}: integer offsets, spanning at most
    _MAX_SPAN and inside the chain's band if it has one, and finite weights
    >= 0; as an int -> weight dict."""
    if not (isinstance(v, dict) and v and all(_INTEGER.fullmatch(str(k)) for k in v)
            and all(_finite(w) and w >= 0 for w in v.values())):
        raise ConfigError("must be a nonempty object {offset: weight} of integer offsets "
                          "and finite weights >= 0")
    steps = {int(k): w for k, w in v.items()}
    if max(steps) - min(steps) > _MAX_SPAN:  # before any array of that length
        raise ConfigError(f"offsets span {max(steps) - min(steps)} > {_MAX_SPAN}")
    band = -typed.get("band_lo", math.inf), typed.get("band_hi", math.inf)
    if not band[0] <= min(steps) <= max(steps) <= band[1]:
        raise ConfigError(f"has an offset outside the band {band[0]}..{band[1]}")
    return steps


def _rows(v, lo, typed) -> dict:
    """Explicit rows {state: step law} on the states 0..max."""
    if not (isinstance(v, dict) and v and all(_INTEGER.fullmatch(str(i)) for i in v)):
        raise ConfigError("must be a nonempty object {state: step law}")
    rows = {}
    for i, row in v.items():
        try:
            rows[int(i)] = _steps(row, lo, typed)
        except ConfigError as exc:
            raise ConfigError(f"at state {i} {exc}")
    if sorted(rows) != list(range(len(rows))):  # no range(max + 1): max may be 10**9
        raise ConfigError("must cover states 0..max contiguously")
    return rows


def _resolve(spec: dict, raw, path: str, owner: str) -> tuple[dict, list[str]]:
    """The typed values of the JSON object ``raw`` read by ``spec``, defaults
    filled in, and the violations, each named by its path; a dict in place of
    a kind is the spec of a nested object, read the same way."""
    if not isinstance(raw, dict):
        return {}, [f"{path} must be an object"]
    out = [f"{path}.{k} is not a parameter of {owner}" for k in raw if k not in spec]
    typed: dict = {}
    for name, (kind, default, lo) in spec.items():
        key = f"{path}.{name}"
        if name not in raw:
            if default is ...:
                out.append(f"{owner} needs a {name!r} ({key})")
            elif "K" in typed or not callable(default):
                typed[name] = default(typed["K"]) if callable(default) else default
        elif isinstance(kind, dict):
            typed[name], inner = _resolve(kind, raw[name], key, owner)
            out += inner
        else:
            try:
                typed[name] = kind(raw[name], lo, typed)
            except ConfigError as exc:
                out.append(f"{key} {exc}")
    return typed, out


def build_chain(chain: dict) -> ChainFamily:
    """Materialise the chain descriptor from a config into a family: its keys
    read by the _CHAIN_SPECS entry of its form, then that entry's builder
    called on them."""
    form = name = chain.get("name") if isinstance(chain, dict) else None
    if name == "general":  # explicit rows, or a drift profile by its type
        drift = chain.get("drift")
        profile = drift.get("profile") if isinstance(drift, dict) else None
        form = ("general rows" if drift is None
                else f"general {profile.get('type') if isinstance(profile, dict) else None}")
    if not isinstance(form, str) or form not in _CHAIN_SPECS:
        names = tuple(dict.fromkeys(f.split()[0] for f in _CHAIN_SPECS))
        raise ConfigError("chain.drift.profile.type must be power | alternating"
                          if name == "general" else
                          f"unknown chain name {name!r} (expected one of {names})")
    builder, spec = _CHAIN_SPECS[form]
    typed, out = _resolve(spec, {k: v for k, v in chain.items() if k != "name"}, "chain",
                          f"chain {name!r}")
    if out:
        raise ConfigError("; ".join(out))
    return builder(**typed)


def _rows_chain(band_lo: int, band_hi: int, rows: dict, tail_row: dict,
                stochastic: bool) -> ChainFamily:
    """A general chain of explicit rows 0..max, then ``tail_row`` above."""
    top = max(rows) + 1  # the first state of the tail row
    w = np.zeros((top + 1, band_lo + band_hi + 1))
    for i, row in [*rows.items(), (top, tail_row)]:
        for off, wt in row.items():
            w[i, off + band_lo] = wt
    total = sum(w[top].tolist())  # inf, with no numpy overflow warning, past the float range
    if not 0 < total < math.inf:
        raise ConfigError("chain.tail_row needs a positive, finite total weight")
    if stochastic and abs(total - 1.0) > _ROW_SUM_TOL:
        raise ConfigError(f"chain.tail_row sums to {total:.17g}, not 1, in a stochastic chain")
    # the kernel's own checks of the rows: masses, row sums, no jump below 0
    (StochasticKernel if stochastic else TransitionKernel)(
        band_lo, band_hi, w[:top], tail=HomogeneousTail(w[top]))
    return ChainFamily(name="general", band_lo=band_lo, band_hi=band_hi,
                       row_rule=lambda states: w[np.minimum(states, top)], limit_pmf=w[top],
                       homogeneous_from=top, stochastic=stochastic)


def _check(config: ExperimentConfig) -> tuple[dict, ChainFamily | None, list[str]]:
    """The typed params, the built family (None without a chain) and the
    violations; the family is built once, here, for both validate and run.
    For ``harmonic-mc`` the params also carry the task kernel, certified
    here, so that the run reuses its certification (``_check_product``)."""
    if config.task not in _TASK_SPECS:
        return {}, None, [f"unknown task {config.task!r} (expected one of {tuple(_TASK_SPECS)})"]
    typed, out = _resolve(_TASK_SPECS[config.task][1], config.params, "params",
                          f"task {config.task!r}")
    if config.chain is None:
        if config.task != "cramer-series":
            out.append(f"task {config.task!r} needs a chain descriptor")
        elif "m" not in config.params:
            out.append("cramer-series without a chain needs params.m and params.D")
        return typed, None, out
    try:
        family = build_chain(config.chain)
    except HarmonicTailsError as exc:
        out.append(f"chain descriptor invalid: {exc}")
        return typed, None, out
    if config.task == "ladder" and "pmf" not in family.params:
        out.append("ladder task needs a walk-based chain (killed-walk or lindley)")
    out += _limit_law_problems(config.task, typed, family)
    if config.task == "harmonic-mc" and not out:
        typed["kernel"] = _task_kernel(family)
        try:  # build_mc's own checks: stopping level, scored range
            _check_product(typed["kernel"], typed["states"])
        except HarmonicTailsError as exc:
            out.append(f"task 'harmonic-mc' cannot run: {exc}")
    name = "K" if "K" in typed else "probe"
    width = family.band_lo + family.band_hi + 1
    if typed.get(name, 0) * width > _MAX_BAND_ENTRIES:
        out.append(f"params.{name} {typed[name]} times the band width {width} exceeds "
                   f"{_MAX_BAND_ENTRIES} band entries")
    return typed, family, out


def _limit_law_problems(task: str, typed: dict, family: ChainFamily) -> list[str]:
    """What ``task`` needs of the chain's limit law and does not get, each by
    the test that the task's solver applies at run time (README, "Tasks")."""
    unmet, mass = [], float(np.sum(family.limit_pmf))
    if (task == "harmonic-solve" and abs(math.log(mass)) > _BOUNDARY_MASS_TOL
            or task == "harmonic-mc" and HomogeneousTail(family.limit_pmf).delta_abs_bound() != 0):
        unmet.append(f"a limit row of mass 1, not {mass:.17g}")
    series = task == "cramer-series" and typed.get("m") is None
    root = series or task in ("ladder", "tail", "stationary") and typed.get("beta") is None
    if root or task == "harmonic-mc":
        walk = family.limit_walk
        if root and not (walk.mean < 0 and walk.pmf[walk.offsets > 0].any()):
            unmet.append(f"Cramér's condition: limit mean < 0 (not {walk.mean:.6g}), a step up")
        if task == "harmonic-mc" and walk.mean <= 0:
            unmet.append(f"a limit law of mean > 0, not {walk.mean:.6g}")
    if (series or typed.get("mode", "constant") != "constant") and family.alpha_profile is None:
        unmet.append(f"a drift perturbation profile, which chain {family.name!r} lacks")
    return [f"task {task!r} needs {need}" for need in unmet]


def validate(config: ExperimentConfig) -> list[str]:
    """Pure config check; returns a list of human-readable violations."""
    return _check(config)[2]


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


@contextlib.contextmanager
def _overwritten(path: Path):
    """A text handle (LF line endings) that writes ``path`` in place: the file
    is cut at the written length when the block ends.

    The file is opened without ``O_TRUNC``: truncating a non-empty file to
    zero makes ext4 flush it to disk on close (``auto_da_alloc``), which costs
    about as much as a small run's computation.  A new file gets the mode
    ``open(path, "w")`` gives it.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", newline="") as fh:
        yield fh
        fh.truncate()


# the %-format of an int or float array column, by dtype kind, as _fmt renders it
_SPECS = {"i": "%d", "f": "%.17g"}

# A table whose float columns hold at least this many values of the fast set
# (below) that are not whole numbers is laid out by _numeric_rows, any other
# by one %-format.  The vector layout costs about 0.2 ms of numpy calls and
# 0.1-0.15 us a value, whatever the values; Python's dtoa takes 0.4-1 us for
# 17 digits of a fraction but much less for a whole number, and a value
# outside the fast set goes through '%' on either path.  On a 2-core host
# (three interleaved runs, best of 9 each) the vector layout takes 0.87-0.98
# of the %-format's time on the tail task's table at 450 such values (150
# rows), 0.76-0.85 at 600 (200 rows), and 0.94-1.09 on a stationary table at
# 611 (600 rows, whose probabilities below 1e-4 stay on '%').
_VECTOR_CELLS = 600
# ... in blocks of at most this many cells: the layout holds about 115 bytes a
# cell at once, so a block takes about 0.45 MB whatever the table's size
_BLOCK_CELLS = 4096

# Numbers of the fast set, 1e-4 <= |x| < 1e15, print in '%.17g' without an
# exponent: k = floor(log10 |x|) in -4..14, and 17 significant digits
# D = round(|x| 10^s), s = 16 - k.  Tables are indexed by g = k + 4.
_FAST_LO, _FAST_HI = 1e-4, 1e15
# By the biased binary exponent e - 1009 of a fast |x| (x in [2^(e-1023),
# 2^(e-1022)), e = 1009..1072): g of the binade's foot, and 10^(k + 1) for
# that g, as the double, which |x| reaches exactly when it reaches 10^(k + 1)
# (10^j is a double for j >= 0; for j < 0 the double lies above it, with no
# double between).
_G_FOOT = np.array([len(str(2**e)) + 3 if e >= 0 else 4 - len(str(2**-e))
                    for e in range(-14, 50)], np.int8)
_POW_NEXT = np.array([float(f"1e{g - 3}") for g in _G_FOOT.tolist()])
_TEN_S = np.array([float(10 ** (20 - g)) for g in range(19)])  # 10^s, exact
_FIVE_S = np.array([5 ** (20 - g) for g in range(19)], np.uint64)
# a cell is at most 23 characters and its separator: seven '0' and the 17
# digits make the 24 bytes, in three words, that the layout shifts
_CELL = 24
_U = np.uint64
# by the byte j (1..16) before which the point goes: the bytes below j of the
# words 0 and 1
_BELOW = np.array([[(1 << 8 * min(max(j - 8 * w, 0), 8)) - 1 for j in range(17)]
                   for w in range(2)], _U)
_KEEP = np.arange(_CELL) <= np.arange(_CELL)[:, None]  # row n: bytes 0..n of a cell


def _sig_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exactly '%.17g''s 17 significant digits of each x of the fast set,
    D = round(x 10^s) with ties to even (10^16 <= D < 10^17, int64), and the
    table index g of each decimal exponent.

    x = M 2^E with M < 2^53, and x 10^s = M 5^s / 2^r with r = -(s + E) in
    1..47.  The double x 10^s lies within 12 of floor(M 5^s / 2^r), so that
    quotient and its remainder follow from the product M 5^s modulo 2^64.
    """
    bits = x.view(_U)
    r = (bits >> _U(52)).view(np.int64)
    r -= 1009
    g = _G_FOOT[r] + (x >= _POW_NEXT[r])
    np.subtract(46 + g, r, out=r)  # 1075 - s - biased exponent
    d = (x * _TEN_S[g]).astype(_U)  # within 12 of the quotient
    diff = ((bits & _U(2**52 - 1)) | _U(2**52)) * _FIVE_S[g]  # M 5^s modulo 2^64
    diff -= d << r.view(_U)
    d, diff = d.view(np.int64), diff.view(np.int64)  # |diff| < 13 * 2^r
    d += diff >> r
    below = (1 << r) - 1
    diff &= below  # the remainder
    diff += below >> 1
    diff += d & 1
    diff >>= r
    d += diff  # half up, ties to even
    return d, g


def _digit_bytes(n: np.ndarray) -> None:
    """Replace each 0 <= n < 10^8 (int64) by its 8 decimal digits, one digit
    value a byte, the most significant in the lowest byte: 4-digit halves in
    32-bit lanes, split into 2-digit quarters in 16-bit lanes, then into
    bytes, each division by a multiply and a shift that is exact below the
    lane's bound."""
    hi = n // 10_000
    n -= hi * 10_000
    n <<= 32
    n |= hi
    for mul, shift, mask, base, lane in ((5243, 19, 0x0000007F0000007F, 100, 16),  # x < 43699
                                         (103, 10, 0x000F000F000F000F, 10, 8)):  # x < 179
        hi = n * mul
        hi >>= shift
        hi &= mask  # each lane // base
        n -= hi * base
        n <<= lane
        n |= hi


def _fast_cells(v: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The '%.17g' text of each value ``v`` but its point, in a cell of three
    words (24 bytes, the text from byte 0), as (len(v), 3) uint64; the byte of
    each point, left 0; and the text lengths.  ``x`` is ``|v|``, and must lie
    in the fast set."""
    d, g = _sig_digits(x)
    z0 = d // 10**16
    d -= z0 * 10**16
    z = np.empty((2, len(v)), np.int64)  # D's digits 1-8 and 9-16
    np.floor_divide(d, 10**8, out=z[0])
    np.subtract(d, z[0] * 10**8, out=z[1])
    del d
    _digit_bytes(z)
    # the top bit of each nonzero digit byte, as a double: the exponent of the
    # highest gives the bytes up to the last nonzero digit (-128: none)
    sig = ((z.view(_U) + _U(0x7F7F7F7F7F7F7F7F)) & _U(0x8080808080808080)).astype(np.float64)
    sig = sig.view(np.int64)
    sig >>= 52
    sig -= 1022
    sig >>= 3
    frac = np.maximum(sig[0], sig[1] + 8).clip(0) - (g - 4)  # digits after the point
    del sig
    # Z: seven '0' and D's 17 digits in three words.  The text is Z from byte
    # 7 + min(k, 0) (keeping one '0' before the point when k < 0), with a '-'
    # on the byte before when negative, and a point inserted at byte j, after
    # 1 + max(k, 0) digits and the sign.
    z0 += 0x30
    z0 <<= 56
    z0, z = z0.view(_U), z.view(_U)
    z0 |= _U(0x0030303030303030)
    z |= _U(0x3030303030303030)
    neg = np.signbit(v).view(np.uint8)
    start = (np.minimum(g, 4) + 3).view(np.uint8)
    start -= neg
    j = g + 4 - start
    sh = 8 * start
    z0 ^= (neg.astype(_U) * _U(0x1D)) << sh  # '0' -> '-'
    up = 64 - sh
    z0 >>= sh
    z0 |= z[0] << up
    z[0] >>= sh
    z[0] |= z[1] << up
    z[1] >>= sh
    del up, sh
    words = np.empty((len(v), 3), _U)
    low = z0 & _BELOW[0][j]
    z0 ^= low
    np.left_shift(z0, _U(8), out=words[:, 0])
    words[:, 0] |= low
    np.bitwise_and(z[0], _BELOW[1][j], out=low)
    z[0] ^= low
    np.left_shift(z[0], _U(8), out=words[:, 1])
    words[:, 1] |= low
    words[:, 1] |= z0 >> _U(56)
    np.left_shift(z[1], _U(8), out=words[:, 2])
    words[:, 2] |= z[0] >> _U(56)
    return words, j, j + np.where(frac > 0, 1 + frac, 0)


def _numeric_rows(columns: list) -> str:
    """The rows of equal-length int and float array ``columns``, exactly as
    one %-format with ``_SPECS`` writes them.

    Values of the fast set are laid out by :func:`_fast_cells`; every other
    cell (zeros, non-finite and subnormal values, magnitudes out of range)
    holds its column's format and is filled by one %-format at the end.  An
    int takes the float path: below 1e15 it is an exact double, whose text
    '%.17g' writes as '%d' does.
    """
    n, q = len(columns[0]), len(columns)
    v = np.empty((n, q))
    for i, c in enumerate(columns):
        v[:, i] = c
    v = v.reshape(-1)
    x = np.abs(v)
    slow = np.flatnonzero(~((x >= _FAST_LO) & (x < _FAST_HI)))
    x[slow] = 1.0  # any value of the fast set: these cells are overwritten
    words, point, length = _fast_cells(v, x)
    del x
    cells = words.view(np.uint8)
    base = np.arange(0, cells.size, _CELL)
    cells.reshape(-1)[base + point] = ord(".")
    if len(slow):
        col = slow % q
        specs = [_SPECS[c.dtype.kind] for c in columns]
        words[slow] = 0
        words[slow, 0] = np.array([int.from_bytes(f.encode(), "little") for f in specs], _U)[col]
        length[slow] = np.array([len(f) for f in specs])[col]
        values = v[slow].tolist()
        del v
        for i, c in enumerate(columns):
            if c.dtype.kind == "i":  # the ints themselves, not their doubles
                at = np.flatnonzero(col == i)
                for p, value in zip(at.tolist(), c[slow[at] // q].tolist()):
                    values[p] = value
    seps = np.full(q, ord(","), np.uint8)
    seps[-1] = ord("\n")
    cells.reshape(-1)[base + length] = np.tile(seps, n)
    text = str(cells[np.take(_KEEP, length, axis=0)], "ascii")
    if len(slow):
        text %= tuple(values)
    return text


def _fast_fractions(columns: list) -> int:
    """How many values of the float ``columns`` lie in the fast set and are
    not whole numbers (0 when they hold fewer than ``_VECTOR_CELLS`` values
    in all)."""
    floats = [c for c in columns if c.dtype.kind == "f"]
    if sum(map(len, floats)) < _VECTOR_CELLS:
        return 0
    return sum(int(np.count_nonzero((a >= _FAST_LO) & (a < _FAST_HI) & (a != np.trunc(a))))
               for a in map(np.abs, floats))


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    """Write equal-length ``columns`` under ``header``.

    When every column is an int or float array, numbers never need quoting:
    a table with ``_VECTOR_CELLS`` or more fast-set floats that are not whole
    numbers is laid out by :func:`_numeric_rows`, any other is one %-format
    of a row format built from the dtypes.  Both write the same bytes.  Any other table goes value
    by value through :func:`_fmt` and ``csv.writer``.
    """
    specs = [isinstance(c, np.ndarray) and _SPECS.get(c.dtype.kind) for c in columns]
    with _overwritten(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        if all(specs):
            n = len(columns[0]) if columns else 0
            if _fast_fractions(columns) >= _VECTOR_CELLS:
                step = max(1, _BLOCK_CELLS // len(columns))
                for lo in range(0, n, step):
                    fh.write(_numeric_rows([c[lo:lo + step] for c in columns]))
            else:
                flat = itertools.chain.from_iterable(zip(*(c.tolist() for c in columns)))
                fh.write((",".join(specs) + "\n") * n % tuple(flat))
        else:
            w.writerows(zip(*([_fmt(v) for v in c] for c in columns)))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)  # then the rule for Python floats below
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
    with _overwritten(path) as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# task runners: each returns (header, columns, diagnostics, flagged, reason), a
# numeric column as an int or float array


def _task_kernel(family: ChainFamily, probe: int | None = None) -> TransitionKernel:
    """The kernel a task runs on: explicit rows up to the homogeneous level,
    past the band and up to ``probe`` (at least state 8)."""
    return family.kernel(max(family.homogeneous_from or 0, family.band_lo + 1, probe or 8))


def _run_harmonic_solve(family: ChainFamily, K: int, tol: float, i_max: int):
    est = build_solve(_task_kernel(family), K, tol=tol)
    diag = {"residual": est.residual, "doubling_disagreement": None, "K": K,
            "method": est.method, **est.meta}
    f_solve = est.array(0, i_max)
    if family.name == "perturbed-reflected-walk":
        alpha, p = family.params["alpha"], family.params["p"]
        header = ["i", "f_solve", "f_closed_form", "abs_err"]
        fc = reflected_walk_harmonic_exact(alpha, p, np.arange(i_max + 1))
        err = np.abs(f_solve - fc)
        diag["max_abs_err"] = max(err.tolist())
        columns = [np.arange(i_max + 1), f_solve, fc, err]
    else:
        header = ["i", "f_solve"]
        columns = [np.arange(i_max + 1), f_solve]
    return header, columns, diag, False, None


def _run_harmonic_mc(family: ChainFamily, states, n_paths: int, horizon: int, seed: int,
                     kernel: TransitionKernel):
    est = build_mc(kernel, states, n_paths, horizon, seed)
    header = ["i", "f_mc", "std_error", "n_exhausted"]
    columns = [np.array(states), np.array([est.values[i] for i in states]),
               np.array([est.std_errors[i] for i in states]),
               np.array([est.meta["exhausted"][i] for i in states])]
    diag = {k: v for k, v in est.meta.items() if k != "exhausted"}  # counts are in the CSV
    return header, columns, diag, False, None


def _run_conditions(family: ChainFamily, probe: int):
    report = check_conditions(_task_kernel(family, probe), family)
    header = ["quantity", "value"]
    names = ["sum_abs_delta", "delta_plus_sum", "minorant_mean", "escape_prob_lower",
             "gamma_available", "drift_eps", "drift_M", "zeta_mean"]
    values = [getattr(report, name) for name in names]
    for i in sorted(report.return_prob_bounds):
        names += [f"return_prob_lower[{i}]", f"return_prob_upper[{i}]"]
        values += report.return_prob_bounds[i]
    diag = {"thm_2_4_applicable": report.thm_2_4_applicable,
            "prop_2_5_holds": report.prop_2_5_holds, "prop_2_7_holds": report.prop_2_7_holds,
            "notes": list(report.notes)}
    flagged = not report.thm_2_4_applicable
    reason = "limit-theorem conditions not certified" if flagged else None
    return header, [names, values], diag, flagged, reason


def _run_ladder(family: ChainFamily, i_max: int):
    h = killed_walk_harmonic(family.limit_walk, i_max)
    header = ["i", "ladder_form", "tilted_min_form", "ratio"]
    ratio = h.minimum_form / h.ladder_form
    diag = {"beta": h.beta, "multiplier": h.multiplier, "ladder_defect": h.ladder.defect,
            "chi_mean": h.ladder.mean(),
            "max_ratio_deviation": float(np.max(np.abs(ratio - h.multiplier)))}
    return header, [np.arange(i_max + 1), h.ladder_form, h.minimum_form, ratio], diag, False, None


def _run_stationary(family: ChainFamily, K: int, beta, doubling_tol: float, i_max: int):
    res = stationary_solve(family, K, beta=beta, doubling_tol=doubling_tol)
    header = ["i", "log_pi", "pi"]
    log_pi = res.log_pi[: i_max + 1]
    # math.exp per value: numpy's vectorised exp may differ in the last ulp
    columns = [np.arange(i_max + 1), log_pi, np.array([math.exp(v) for v in log_pi.tolist()])]
    diag = {"K": K, "tilt_beta": res.tilt_beta, "normalization_error": res.normalization_error,
            "doubling_disagreement": res.doubling_disagreement,
            "reflected_weight": res.reflected_weight, "method": res.method, **res.meta}
    return header, columns, diag, False, None


def _run_tail(family: ChainFamily, K: int, window: tuple[int, int], mode: str, order: int,
              variation_tol: float, doubling_tol: float):
    res = stationary_solve(family, K, doubling_tol=doubling_tol)
    model = build_beta_fn(family, mode=mode, order=order)
    fit = tail_extract(res.log_pi, model.predict_log_tail, window, variation_tol)
    header = ["i", "log_pi", "predicted_log_tail", "log_c"]
    i0, i1 = window
    columns = [np.arange(i0, i1 + 1), res.log_pi[i0 : i1 + 1], fit.predicted,
               fit.log_constants]
    diag = {"K": K, "mode": mode, "beta_limit": model.beta_limit,
            "coefficients": list(model.coefficients), "constant": fit.constant,
            "variation": fit.variation, "variation_tol": variation_tol, "window": list(window),
            "passed": fit.passed, "model_meta": model.meta}
    flagged = not fit.passed
    reason = (f"tail constant varies by {fit.variation:.3g} > {variation_tol:.3g} over the window"
              if flagged else None)
    return header, columns, diag, flagged, reason


def _run_cramer_series(family: ChainFamily | None, M: int, m: list | None, D: dict):
    if m is None:
        m, D, _scale = family.moment_data(cramer_root(family.limit_walk), M)
    R = cramer_coefficients(m, D, M)
    resid = cramer_series_residual(m, D, R)
    header = ["k", "R_k"]
    diag = {"M": M, "m": m, "D": {f"{k},{j}": v for (k, j), v in D.items()},
            "back_substitution_residual": resid}
    return header, [np.arange(1, M + 1), R], diag, False, None


# Size caps from a peak-RSS budget of about 1 GB: a run holds about 70 bytes
# per Monte Carlo path and at most about 400 bytes per state it materialises
# (K, ladder i_max, conditions probe), on top of ~80 MB.  A banded solve holds
# up to ~70 bytes per state and band diagonal: at the cap on K (or probe)
# times the width, harmonic-solve peaks at 711 MB (killed walk, width 2001).
# The ladder law of a walk of span s holds ~20 s x s matrices: the ladder
# task on {-2000: 0.6, 1: 0.4} peaks at 623 MB (7.5 s on a 2-core host).
# The exact solves take levels of m states only while m^3 <= 8 K x width,
# so m <= 430 under the cap on band entries: harmonic-solve with tail row
# {-1: 0.3, 1: 0.3, 430: 0.4} at K = 23012 peaks at 85 MB (0.6 s), and
# stationary on {-1: 0.9, 0: 0.0999, 430: 0.0001} at 70 MB (0.7 s); wider
# tails get the truncated solves above.  harmonic-mc collapses excursions
# only for m <= 512 (about 40 MB of cyclic reduction); on that 430-wide tail
# row it collapses them (tests/fixtures/wide_tail_mc.json, 100000 paths:
# 0.8-1.1 s and 61 MB, against 0.9-1.5 s and 44 MB at the stopping level;
# G's cyclic reduction holds the extra memory).
_MAX_PATHS = 10**7
_MAX_STATES = 10**6
_MAX_SPAN = 2000
_MAX_BAND_ENTRIES = 10**7

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
    "ladder": (_run_ladder, {"i_max": (_int_upto(_MAX_STATES), 50, 0)}),
    "stationary": (_run_stationary, {
        "K": (_int_upto(_MAX_STATES), 400, 10), "beta": (_float, None, None),
        "doubling_tol": (_float, 1e-8, 0), "i_max": (_index, lambda K: K, 0)}),
    "tail": (_run_tail, {
        "K": (_int_upto(_MAX_STATES), 4000, 10),
        "window": (_window, lambda K: (K // 2, 3 * K // 4), 0),
        "mode": (_one_of("constant", "alpha-over-m", "cramer-series"), "constant", None),
        "order": (_int, 2, 1),
        "variation_tol": (_float, 0.01, 0), "doubling_tol": (_float, 1e-8, 0)}),
    "cramer-series": (_run_cramer_series, {
        "M": (_int, 2, 1), "m": (_moments, None, None), "D": (_cross_moments, {}, 1)}),
}

_NUMBER = (_float, ..., None)
_STEPS = (_steps, ..., None)


def _drift_form(builder, kind: str, shape: str):
    """A general chain of a drift profile: its builder and its spec, nested
    objects {"drift": {"p", "profile": {"type": kind, "c0", shape}}}."""
    profile = {"type": (_one_of(kind), ..., None), "c0": _NUMBER, shape: _NUMBER}
    return (lambda drift: builder(drift["p"], drift["profile"]["c0"], drift["profile"][shape]),
            {"drift": ({"p": _NUMBER, "profile": (profile, ..., None)}, ..., None)})


# chain form -> (builder, {key: (kind, default, lower bound)}), read as the
# params are; the form is the chain's name, for a general chain "general rows"
# or "general" and its drift profile's type
_CHAIN_SPECS = {
    "example1": (perturbed_reflected_walk, {"p": _NUMBER, "alpha": _NUMBER}),
    "example2": (multi_perturbed_walk, {"p": _NUMBER, "alphas": (_numbers, ..., None)}),
    "killed-walk": (lambda pmf: walk_killed_at_negative(LatticeWalk.from_dict(pmf)),
                    {"pmf": _STEPS}),
    "lindley": (lambda pmf: lindley_chain(LatticeWalk.from_dict(pmf)), {"pmf": _STEPS}),
    "example3": (alternating_drift_chain, {"p": _NUMBER, "c0": _NUMBER, "gamma": _NUMBER}),
    "general rows": (_rows_chain, {
        "band_lo": (_int_upto(_MAX_SPAN), ..., 0), "band_hi": (_int_upto(_MAX_SPAN), ..., 0),
        "rows": (_rows, ..., None), "tail_row": _STEPS, "stochastic": (_bool, False, None)}),
    "general power": _drift_form(power_drift_chain, "power", "exponent"),
    "general alternating": _drift_form(alternating_drift_chain, "alternating", "gamma"),
}


def run(config: ExperimentConfig, out_dir: Path, stem: str, quiet: bool = False) -> int:
    params, family, problems = _check(config)
    if problems:
        for msg in problems:
            print(f"config error: {msg}", file=sys.stderr)
        return 1

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{stem}.csv"
    manifest_path = out_dir / f"{stem}.manifest.json"

    try:
        header, columns, diag, flagged, reason = _TASK_SPECS[config.task][0](family, **params)
    except _FLAGGED as exc:
        diag = {"error_type": type(exc).__name__, "error": str(exc)}
        if isinstance(exc, SolverFailure):
            diag["reason"] = exc.reason
            diag["solver_diagnostics"] = _jsonable(exc.diagnostics)
        csv_path.unlink(missing_ok=True)  # no earlier run's CSV beside this manifest
        _write_manifest(manifest_path, config, diag, [], True, str(exc))
        if not quiet:
            print(f"flagged: {exc}", file=sys.stderr)
            print(f"wrote {manifest_path}")
        return 2

    _write_csv(csv_path, header, columns)
    _write_manifest(manifest_path, config, diag, [csv_path.name], flagged, reason)
    if not quiet:
        if flagged:
            print(f"flagged: {reason}", file=sys.stderr)
        print(f"wrote {csv_path}")
        print(f"wrote {manifest_path}")
    return 2 if flagged else 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; parsing leaves it
    unchanged, so every ``main`` call can reuse it."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
    except HarmonicTailsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
