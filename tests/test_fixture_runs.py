"""The fixture runs of tests/fixture_runs.json.

Each entry gives a CLI command (``validate`` or ``run`` on a config, paths
from the repository root), its exit code, a time limit in seconds, and what
its outputs must hold:

- ``stdout``: a text the command prints;
- ``manifest``: exact values of manifest fields, read from its
  ``diagnostics`` or its top level;
- ``manifest_has``: whether a field is in the manifest at all;
- ``manifest_prefix``: the start of a string field;
- ``csv_line``: a whole line of the CSV.

No run may print a traceback, and every number in the CSV a ``run`` leaves
must be its '%d' or '%.17g' text (``test_golden._percent_text``).  Under
pytest each entry runs in-process through ``cli.main``.  Run as a script,
``python tests/test_fixture_runs.py DIR`` runs each entry through the
``harmonictails`` console script, killed at its time limit, and leaves the
outputs in DIR.
"""

import csv
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from harmonictails.cli import main
from test_golden import _percent_text

ROOT = Path(__file__).resolve().parents[1]
TABLE = json.loads((ROOT / "tests" / "fixture_runs.json").read_text())


def _argv(entry, out_dir: Path) -> list[str]:
    task, path = entry["command"]
    argv = [task, str(ROOT / path)]
    return argv + ["--out", str(out_dir)] if task == "run" else argv


def problems(entry, code: int, stdout: str, stderr: str, out_dir: Path) -> list[str]:
    """How one run of ``entry``, its outputs in ``out_dir``, departs from it."""
    found = []
    if code != entry["exit"]:
        found.append(f"exit {code}, not {entry['exit']}")
    if "Traceback" in stderr:
        found.append("a traceback on stderr")
    if entry.get("stdout", "") not in stdout:
        found.append(f"no {entry['stdout']!r} in stdout")
    stem = Path(entry["command"][1]).stem
    if {"manifest", "manifest_has", "manifest_prefix"} & set(entry):
        doc = json.loads((out_dir / f"{stem}.manifest.json").read_text())
        fields = {**doc, **doc["diagnostics"]}
        for key, want in entry.get("manifest", {}).items():
            if fields.get(key, "<missing>") != want:
                found.append(f"manifest {key} = {fields.get(key, '<missing>')!r}, not {want!r}")
        for key, want in entry.get("manifest_has", {}).items():
            if (key in fields) != want:
                found.append(f"manifest {'lacks' if want else 'has'} {key}")
        for key, want in entry.get("manifest_prefix", {}).items():
            if not str(fields.get(key, "")).startswith(want):
                found.append(f"manifest {key} = {fields.get(key)!r} does not start {want!r}")
    if "csv_line" in entry:
        if entry["csv_line"] not in (out_dir / f"{stem}.csv").read_text().splitlines():
            found.append(f"no line {entry['csv_line']!r} in {stem}.csv")
    if entry["command"][0] == "run" and (out_dir / f"{stem}.csv").exists():
        with open(out_dir / f"{stem}.csv", newline="") as fh:
            for row in list(csv.reader(fh))[1:]:
                found += [f"{stem}.csv field {f!r} is not '%d' or '%.17g' text"
                          for f in row if _percent_text(f) is False]
    return found


def test_table_covers_every_fixture():
    named = {Path(e["command"][1]).name for e in TABLE if e["command"][1].startswith("tests/")}
    assert named == {p.name for p in (ROOT / "tests" / "fixtures").glob("*.json")}


@pytest.mark.parametrize("entry", TABLE, ids=[f"{e['command'][0]}-{Path(e['command'][1]).stem}"
                                              for e in TABLE])
def test_fixture_run(entry, tmp_path, capsys):
    t0 = time.perf_counter()
    code = main(_argv(entry, tmp_path))
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert problems(entry, code, out, err, tmp_path) == []
    assert elapsed < entry["timeout"]


if __name__ == "__main__":
    out_dir = Path(sys.argv[1]).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    failed = 0
    for entry in TABLE:
        argv = ["harmonictails", *_argv(entry, out_dir)]
        print("$", " ".join(argv), flush=True)
        try:
            run = subprocess.run(argv, capture_output=True, text=True, timeout=entry["timeout"])
        except subprocess.TimeoutExpired:
            found = [f"still running after {entry['timeout']} s"]
        else:
            sys.stdout.write(run.stdout + run.stderr)
            found = problems(entry, run.returncode, run.stdout, run.stderr, out_dir)
        for problem in found:
            print(f"FAIL {entry['command'][1]}: {problem}")
        failed += bool(found)
    print(f"{len(TABLE) - failed} of {len(TABLE)} fixture runs as tests/fixture_runs.json says")
    sys.exit(1 if failed else 0)
