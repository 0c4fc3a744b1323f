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
import sys
from pathlib import Path

from harmonictails.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = sorted((ROOT / "scripts" / "configs").glob("*.json"))

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


def test_shipped_outputs_match_golden(tmp_path):
    problems = []
    for cfg in CONFIGS:
        assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) in (0, 2), cfg
        problems += mismatches(tmp_path, cfg.stem)
    assert problems == []


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
