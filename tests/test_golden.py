"""The shipped configs' outputs against the reference committed in tests/golden/.

Headers, integer and string cells, and every manifest field that is not a
float (``flagged`` and ``flag_reason`` among them) must match exactly.  Float
cells and fields must agree within their config's relative tolerance in
``RTOL``.  A change that moves an output on purpose rewrites its golden file in
the same commit.

Run as a script, ``python tests/test_golden.py DIR`` compares every output
in DIR (``scripts/run_experiments.py --out DIR``).
"""

import csv
import json
import math
import re
import runpy
import sys
from pathlib import Path

import pytest

from harmonictails.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = sorted((ROOT / "scripts" / "configs").glob("*.json"))
# the stems whose runs exit 2 (flagged), as scripts/run_experiments.py has them
EXPECTED_FLAGGED = runpy.run_path(str(ROOT / "scripts" / "run_experiments.py"))[
    "EXPECTED_FLAGGED"]

# relative tolerance of float cells and fields, by config stem
DEFAULT_RTOL = 4 * 2.0**-52
RTOL: dict[str, float] = {}

_INT = re.compile(r"-?\d+")


def _same_float(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _cell_mismatch(got: str, want: str, rtol: float) -> bool:
    if _INT.fullmatch(want):
        return got != want
    try:
        want_f = float(want)
    except ValueError:
        return got != want
    try:
        return not _same_float(float(got), want_f, rtol)
    except ValueError:
        return True


def _json_mismatches(got, want, rtol: float, path: str) -> list[str]:
    if isinstance(want, float) and type(got) in (int, float):
        return [] if _same_float(float(got), want, rtol) else [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in _json_mismatches(got[k], want[k], rtol, f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _json_mismatches(g, w, rtol, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def mismatches(out_dir: Path, stem: str) -> list[str]:
    """How the outputs of config ``stem`` in ``out_dir`` differ from the golden ones."""
    rtol = RTOL.get(stem, DEFAULT_RTOL)
    want_names = sorted(p.name for p in GOLDEN.glob(f"{stem}.*"))
    got_names = sorted(p.name for p in out_dir.glob(f"{stem}.*"))
    if got_names != want_names:
        return [f"{stem}: files {got_names} != {want_names}"]
    out = []
    for name in want_names:
        got_path, want_path = out_dir / name, GOLDEN / name
        if name.endswith(".json"):
            got, want = (json.loads(p.read_text()) for p in (got_path, want_path))
            out += _json_mismatches(got, want, rtol, name)
            continue
        with open(got_path, newline="") as g, open(want_path, newline="") as w:
            got, want = list(csv.reader(g)), list(csv.reader(w))
        if len(got) != len(want) or got[:1] != want[:1]:
            out.append(f"{name}: header or row count differs")
            continue
        for r, (grow, wrow) in enumerate(zip(got[1:], want[1:]), start=2):
            if len(grow) != len(wrow):
                out.append(f"{name} line {r}: {len(grow)} cells != {len(wrow)}")
            out += [f"{name} line {r}, {col}: {g} != {w}"
                    for col, g, w in zip(want[0], grow, wrow) if _cell_mismatch(g, w, rtol)]
    return out


def test_golden_covers_the_shipped_configs():
    assert {p.name.split(".")[0] for p in GOLDEN.iterdir()} == {c.stem for c in CONFIGS}
    assert set(RTOL) <= {c.stem for c in CONFIGS}


def run_configs(out: Path) -> dict[str, int]:
    """Run every shipped config into ``out``; the exit codes by stem."""
    return {cfg.stem: main(["run", str(cfg), "--out", str(out), "--quiet"]) for cfg in CONFIGS}


def file_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """A directory with the outputs of every shipped config."""
    out = tmp_path_factory.mktemp("shipped")
    codes = run_configs(out)
    assert set(codes.values()) <= {0, 2}, codes
    return out


def test_shipped_outputs_match_golden(shipped):
    assert [m for cfg in CONFIGS for m in mismatches(shipped, cfg.stem)] == []


def test_reruns_are_byte_identical(shipped, tmp_path):
    # a second run of every config, into a fresh directory and then in place
    # over the first run's files, writes the same bytes, with the same codes
    first = file_bytes(shipped)
    codes = {cfg.stem: 2 if cfg.stem in EXPECTED_FLAGGED else 0 for cfg in CONFIGS}
    for out in (tmp_path, shipped):
        assert run_configs(out) == codes
        assert file_bytes(out) == first


def _percent_text(field: str) -> bool | None:
    """Whether a CSV field is the '%d' or '%.17g' text of its number; None
    for a text field."""
    try:
        value = float(field)
    except ValueError:
        return None
    return field == "%.17g" % value or (_INT.fullmatch(field) is not None
                                        and field == str(int(field)))


def test_shipped_csv_numbers_are_percent_text(shipped):
    # the golden comparison reads values within 4 ulp, so it cannot see a
    # string such as 1.5000000000000000 that parses to the right double
    paths = sorted(shipped.glob("*.csv"))
    assert [p.name for p in paths] == sorted(p.name for p in GOLDEN.glob("*.csv"))
    fields = 0
    for path in paths:
        with open(path, newline="") as fh:
            for row in list(csv.reader(fh))[1:]:
                for f in row:
                    ok = _percent_text(f)
                    assert ok is not False, (path.name, f)
                    fields += ok is True
    assert fields > 5000


def test_comparison_catches_moved_cells(tmp_path):
    cfg = ROOT / "scripts" / "configs" / "reflected_solve.json"
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    assert mismatches(tmp_path, "reflected_solve") == []
    csv_path = tmp_path / "reflected_solve.csv"
    lines = csv_path.read_text().split("\n")
    i, f, *rest = lines[1].split(",")
    lines[1] = ",".join([i, repr(float(f) * (1 + 2**-49)), *rest])
    csv_path.write_text("\n".join(lines))
    assert mismatches(tmp_path, "reflected_solve") == [
        f"reflected_solve.csv line 2, f_solve: {float(f) * (1 + 2**-49)!r} != {f}"]
    manifest = tmp_path / "reflected_solve.manifest.json"
    doc = json.loads(manifest.read_text())
    doc["flagged"] = 0
    manifest.write_text(json.dumps(doc))
    assert "reflected_solve.manifest.json.flagged: 0 != False" in mismatches(
        tmp_path, "reflected_solve")


if __name__ == "__main__":
    out_dir = Path(sys.argv[1])
    found = [m for cfg in CONFIGS for m in mismatches(out_dir, cfg.stem)]
    print("\n".join(found) or f"all {len(CONFIGS)} configs match {GOLDEN}")
    sys.exit(1 if found else 0)
