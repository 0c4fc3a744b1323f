"""Command line interface: config validation, runs, outputs, exit codes."""

import json
import math
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import harmonictails as ht
from harmonictails.cli import ExperimentConfig, build_chain, main, validate

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
EX1 = {"name": "example1", "p": 0.7, "alpha": 2.0}
WALK = {"1": 0.3, "-1": 0.7}
EX3 = {"name": "example3", "p": 0.3, "c0": 0.05, "gamma": 0.7}
TWO_ROWS = {"name": "general", "band_lo": 1, "band_hi": 1,
            "rows": {"0": {"1": 1.0}, "1": {"-1": 0.3, "1": 0.7}}}
MC = {"seed": 1, "n_paths": 10, "horizon": 10}
# a stochastic chain whose tail row sums to 1.1; CI validates this file too
NON_STOCHASTIC_TAIL = json.loads(
    (Path(__file__).resolve().parent / "fixtures" / "non_stochastic_tail_row.json").read_text())
# rows that reach every state harmonic-mc reads, but no tail_row; CI validates it
ROWS_WITHOUT_TAIL = json.loads(
    (Path(__file__).resolve().parent / "fixtures" / "rows_without_tail_row.json").read_text())
UP_WALK = {"-1": 0.3, "1": 0.7}
HOLD_WALK = {"-1": 0.5, "0": 0.5}
# a stochastic chain whose tail_row sums to 1 + 5e-13, within the row-sum check
NEAR_ONE = {**TWO_ROWS, "stochastic": True, "tail_row": {"-1": 0.3, "1": 0.7 + 5e-13}}

# (message fragment, config) pairs that used to pass `validate`
HOLES = [
    ("params.seed", {"task": "harmonic-mc", "chain": EX1, "params": {**MC, "seed": "x"}}),
    ("params.n_paths", {"task": "harmonic-mc", "chain": EX1, "params": {**MC, "n_paths": 0}}),
    ("params.horizon", {"task": "harmonic-mc", "chain": EX1, "params": {**MC, "horizon": -5}}),
    ("params.tol", {"task": "harmonic-solve", "chain": EX1,
                    "params": {"K": 60, "tol": "abc"}}),
    ("params.i_max", {"task": "harmonic-solve", "chain": EX1,
                      "params": {"K": 60, "i_max": -1}}),
    ("params.i_max", {"task": "harmonic-solve", "chain": EX1,
                      "params": {"K": 60, "i_max": 500}}),
    ("params.beta", {"task": "stationary", "chain": {"name": "lindley", "pmf": WALK},
                     "params": {"K": 60, "beta": "abc"}}),
    ("params.probe", {"task": "conditions", "chain": EX1, "params": {"probe": "x"}}),
    ("params.order", {"task": "tail", "chain": EX3, "params": {"K": 60, "order": "x"}}),
    ("params.variation_tol", {"task": "tail", "chain": EX3,
                              "params": {"K": 60, "variation_tol": "x"}}),
    ("params.window", {"task": "tail", "chain": EX3, "params": {"window": [100, 5000]}}),
    ("params.i_max", {"task": "ladder", "chain": {"name": "killed-walk", "pmf": WALK},
                      "params": {"i_max": -1}}),
    ("params.m", {"task": "cramer-series", "params": {"m": [2.0], "M": 3}}),
    ("params.D", {"task": "cramer-series", "params": {"m": [2.0, 3.0], "D": "zz"}}),
    ("params.imax", {"task": "harmonic-solve", "chain": EX1,
                     "params": {"K": 60, "imax": 5}}),
    ("tail_row", {"task": "harmonic-solve", "chain": TWO_ROWS, "params": {"K": 60}}),
    ("walk-based chain", {"task": "ladder", "chain": EX1}),
    # sizes that used to end in a numpy memory error
    ("params.n_paths", {"task": "harmonic-mc", "chain": EX1,
                        "params": {**MC, "n_paths": 10**12}}),
    ("params.K", {"task": "harmonic-solve", "chain": EX1, "params": {"K": 10**12}}),
    ("params.probe", {"task": "conditions", "chain": EX1, "params": {"probe": 10**12}}),
    ("params.i_max", {"task": "ladder", "chain": {"name": "killed-walk", "pmf": WALK},
                      "params": {"i_max": 10**12}}),
    # offsets outside the band, negative weights and no mass in the tail row
    ("tail_row", {"task": "harmonic-solve", "chain": {**TWO_ROWS, "tail_row": {"5": 0.3}},
                  "params": {"K": 60}}),
    ("tail_row", {"task": "harmonic-solve", "params": {"K": 60},
                  "chain": {**TWO_ROWS, "tail_row": {"-3": 0.7, "1": 0.3}}}),
    ("tail_row", {"task": "harmonic-solve", "params": {"K": 60},
                  "chain": {**TWO_ROWS, "tail_row": {"-1": 1.3, "1": -0.3}}}),
    ("tail_row", {"task": "harmonic-solve", "params": {"K": 60},
                  "chain": {**TWO_ROWS, "tail_row": {"-1": 0.0, "1": 0.0}}}),
    ("tail_row", NON_STOCHASTIC_TAIL),
    # a step law of span 10**9 used to allocate gigabytes before any check
    ("offsets span", {"task": "ladder",
                      "chain": {"name": "killed-walk", "pmf": {"-1000000000": 0.6, "1": 0.4}}}),
    ("offsets span", {"task": "stationary", "params": {"K": 60},
                      "chain": {"name": "lindley", "pmf": {"-1": 0.6, "1000000000": 0.4}}}),
    # a wide band at a K that is fine for a narrow one: about 70 GB of bands
    ("band entries", {"task": "stationary", "params": {"K": 10**6},
                      "chain": {"name": "lindley", "pmf": {"-2000": 0.6, "0": 0.4}}}),
    # the ladder task works beta out from the walk; it takes no beta
    ("params.beta", {"task": "ladder", "chain": {"name": "killed-walk", "pmf": WALK},
                     "params": {"beta": 0.8472978603872037}}),
    ("tail_row", ROWS_WITHOUT_TAIL),
    # limit laws that lack what the task needs: run ended in "error:" after starting
    ("Cramér's condition", {"task": "stationary", "chain": EX1}),
    ("Cramér's condition", {"task": "ladder", "chain": {"name": "lindley", "pmf": UP_WALK}}),
    ("Cramér's condition", {"task": "stationary", "chain": {"name": "lindley", "pmf": HOLD_WALK}}),
    ("Cramér's condition", {"task": "ladder", "chain": {"name": "lindley", "pmf": HOLD_WALK}}),
    ("Cramér's condition", {"task": "cramer-series", "chain": EX1}),
    ("mean > 0", {"task": "harmonic-mc", "chain": {"name": "lindley", "pmf": WALK},
                  "params": MC}),
    ("mean > 0", {"task": "harmonic-mc", "chain": EX3, "params": MC}),
    ("perturbation profile", {"task": "tail", "chain": {"name": "lindley", "pmf": WALK},
                              "params": {"K": 60, "mode": "alpha-over-m"}}),
    ("perturbation profile", {"task": "cramer-series",
                              "chain": {"name": "lindley", "pmf": WALK}}),
    ("limit row of mass 1", {"task": "harmonic-solve", "params": {"K": 60},
                             "chain": {**TWO_ROWS, "tail_row": {"-1": 0.3, "1": 0.6}}}),
    ("limit row of mass 1", {"task": "harmonic-mc", "params": MC,
                             "chain": {**TWO_ROWS, "tail_row": {"-1": 0.3, "1": 0.6}}}),
    ("limit row of mass 1", {"task": "harmonic-mc", "chain": NEAR_ONE, "params": MC}),
    # a limit row whose total overflows normalises to zeros
    ("finite total weight", {"task": "stationary", "params": {"K": 60},
                             "chain": {**TWO_ROWS, "tail_row": {"-1": 1e308, "1": 1e308}}}),
    # what build_mc's own set-up refuses: explicit rows that hold, under a
    # limit row that drifts up, and a start state above the scored range
    ("positive-drift minorant", {"task": "harmonic-mc", "params": MC,
                                 "chain": {"name": "general", "band_lo": 1, "band_hi": 1,
                                           "stochastic": True, "rows": {"0": {"0": 1.0}},
                                           "tail_row": UP_WALK}}),
    ("outside the scored range", {"task": "harmonic-mc", "chain": EX1,
                                  "params": {**MC, "states": [1000]}}),
]


def write_cfg(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def read_rows(path):
    lines = path.read_text().split("\n")
    assert lines[-1] == ""
    return [ln.split(",") for ln in lines[:-1]]


def test_version():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_validate_ok(tmp_path, capsys):
    p = write_cfg(tmp_path, "ok.json", {"task": "harmonic-solve", "chain": EX1,
                                        "params": {"K": 60}})
    assert main(["validate", str(p)]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ({"task": "harmonic-solve", "chain": {"name": "example1", "p": 1.2, "alpha": 2.0}},
         "chain descriptor invalid"),
        ({"task": "stationary", "chain": {"name": "example3", "p": 0.3, "c0": 0.4,
                                          "gamma": 0.7}},
         "chain descriptor invalid"),
        ({"task": "harmonic-solve", "chain": EX1, "params": {"K": 5}},
         "params.K"),
        ({"task": "harmonic-mc", "chain": EX1, "params": {"n_paths": 100}},
         "params.seed"),
        ({"task": "tail", "chain": {"name": "example3", "p": 0.3, "c0": 0.05,
                                    "gamma": 0.7},
          "params": {"K": 400, "window": [300, 200]}},
         "params.window"),
        ({"task": "tail", "chain": {"name": "example3", "p": 0.3, "c0": 0.05,
                                    "gamma": 0.7},
          "params": {"K": 400, "window": [200, 500]}},
         "within 0..K"),
        ({"task": "spectral-gap", "chain": EX1}, "unknown task"),
        ({"task": "harmonic-solve", "chain": {"name": "mystery"}}, "unknown chain name"),
        ({"task": "cramer-series", "params": {"m": [0.0, 1.0], "M": 2}},
         "must be nonzero"),
        ({"task": "cramer-series", "params": {"m": [1.0], "M": 0}}, "params.M"),
        ({"task": "stationary"}, "needs a chain descriptor"),
        ({"task": "tail", "chain": {"name": "example3", "p": 0.3, "c0": 0.05,
                                    "gamma": 0.7},
          "params": {"mode": "quadratic"}},
         "params.mode"),
        *[(doc, fragment) for fragment, doc in HOLES],
    ],
)
def test_validate_violations(tmp_path, capsys, doc, fragment):
    p = write_cfg(tmp_path, "bad.json", doc)
    assert main(["validate", str(p)]) == 1
    assert fragment in capsys.readouterr().out


def test_config_parse_errors(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 1
    assert "not found" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["run", str(broken)]) == 1
    assert "not valid JSON" in capsys.readouterr().err

    arr = write_cfg(tmp_path, "arr.json", [1, 2])
    assert main(["run", str(arr)]) == 1
    assert "'task' key" in capsys.readouterr().err

    extra = write_cfg(tmp_path, "extra.json",
                      {"task": "stationary", "chain": EX1, "outputs": "x"})
    assert main(["run", str(extra)]) == 1
    assert "unknown top-level" in capsys.readouterr().err

    invalid = write_cfg(tmp_path, "inv.json",
                        {"task": "harmonic-solve", "chain": EX1, "params": {"K": 5}})
    assert main(["run", str(invalid)]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_solve_outputs(tmp_path):
    cfg = write_cfg(tmp_path, "solve.json",
                    {"task": "harmonic-solve", "chain": EX1,
                     "params": {"K": 60, "i_max": 10}})
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0

    rows = read_rows(tmp_path / "solve.csv")
    assert rows[0] == ["i", "f_solve", "f_closed_form", "abs_err"]
    assert len(rows) == 12
    assert float(rows[1][2]) == pytest.approx(8.0, abs=1e-13)
    assert float(rows[1][1]) == pytest.approx(8.0, abs=1e-8)

    doc = json.loads((tmp_path / "solve.manifest.json").read_text())
    assert set(doc) == {"version", "task", "chain", "params", "diagnostics",
                        "outputs", "flagged", "flag_reason"}
    assert doc["version"] == ht.__version__
    assert doc["outputs"] == ["solve.csv"]
    assert doc["flagged"] is False
    assert doc["flag_reason"] is None
    assert doc["diagnostics"]["max_abs_err"] <= 1e-8


def test_run_reruns_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, "mc.json",
                    {"task": "harmonic-mc", "chain": EX1,
                     "params": {"seed": 7, "n_paths": 2000, "horizon": 20000,
                                "states": [0, 1]}})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(a), "--quiet"]) == 0
    assert main(["run", str(cfg), "--out", str(b), "--quiet"]) == 0
    assert (a / "mc.csv").read_bytes() == (b / "mc.csv").read_bytes()
    assert (a / "mc.manifest.json").read_bytes() == (b / "mc.manifest.json").read_bytes()

    data = (a / "mc.csv").read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")


def test_seed_override(tmp_path):
    cfg = write_cfg(tmp_path, "mc.json",
                    {"task": "harmonic-mc", "chain": EX1,
                     "params": {"seed": 7, "n_paths": 2000, "horizon": 20000,
                                "states": [0]}})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(cfg), "--out", str(a), "--quiet"]) == 0
    assert main(["run", str(cfg), "--out", str(b), "--seed", "99", "--quiet"]) == 0
    doc = json.loads((b / "mc.manifest.json").read_text())
    assert doc["params"]["seed"] == 99
    assert doc["diagnostics"]["seed"] == 99
    assert (a / "mc.csv").read_bytes() != (b / "mc.csv").read_bytes()


def _outputs(out_dir, stem):
    return [(out_dir / f"{stem}{ext}").read_bytes() for ext in (".csv", ".manifest.json")]


def test_rerun_overwrites_longer_outputs(tmp_path):
    doc = {"task": "harmonic-solve", "chain": EX1, "params": {"K": 60, "i_max": 20}}
    cfg = write_cfg(tmp_path, "solve.json", doc)
    same, fresh = tmp_path / "same", tmp_path / "fresh"
    assert main(["run", str(cfg), "--out", str(same), "--quiet"]) == 0
    longer = _outputs(same, "solve")
    doc["params"]["i_max"] = 5
    cfg = write_cfg(tmp_path, "solve.json", doc)
    assert main(["run", str(cfg), "--out", str(same), "--quiet"]) == 0
    assert main(["run", str(cfg), "--out", str(fresh), "--quiet"]) == 0
    assert _outputs(same, "solve") == _outputs(fresh, "solve")
    assert all(len(new) < len(old) for new, old in zip(_outputs(fresh, "solve"), longer))


def test_flagged_rerun_replaces_a_longer_manifest(tmp_path):
    rows = {"0": {"1": 1.0}, **{str(i): {"-1": 0.3, "1": 0.7} for i in range(1, 30)}}
    good = {"task": "harmonic-solve", "params": {"K": 60},
            "chain": {**TWO_ROWS, "rows": rows, "tail_row": {"-1": 0.3, "1": 0.7}}}
    bad = {"task": "harmonic-solve", "chain": {**EX1, "alpha": 3.0}, "params": {"K": 200}}
    same, fresh = tmp_path / "same", tmp_path / "fresh"
    assert main(["run", str(write_cfg(tmp_path, "run.json", good)),
                 "--out", str(same), "--quiet"]) == 0
    longer = (same / "run.manifest.json").read_bytes()
    cfg = write_cfg(tmp_path, "run.json", bad)
    assert main(["run", str(cfg), "--out", str(same), "--quiet"]) == 2
    assert main(["run", str(cfg), "--out", str(fresh), "--quiet"]) == 2
    manifest = (same / "run.manifest.json").read_bytes()
    assert manifest == (fresh / "run.manifest.json").read_bytes()
    assert len(manifest) < len(longer)
    assert json.loads(manifest)["flagged"] is True


def test_flagged_rerun_removes_the_earlier_csv(tmp_path):
    out = tmp_path / "out"
    doc = {"task": "harmonic-solve", "chain": EX1, "params": {"K": 200}}
    assert main(["run", str(write_cfg(tmp_path, "run.json", doc)),
                 "--out", str(out), "--quiet"]) == 0
    assert (out / "run.csv").exists()
    doc["chain"] = {**EX1, "alpha": 3.0}
    assert main(["run", str(write_cfg(tmp_path, "run.json", doc)),
                 "--out", str(out), "--quiet"]) == 2
    assert not (out / "run.csv").exists()
    assert json.loads((out / "run.manifest.json").read_text())["outputs"] == []


def test_new_outputs_get_the_mode_of_open_for_writing(tmp_path):
    import os
    import stat

    cfg = write_cfg(tmp_path, "solve.json", {"task": "harmonic-solve", "chain": EX1,
                                             "params": {"K": 60}})
    old_umask = os.umask(0o027)
    try:
        with open(tmp_path / "reference", "w"):
            pass
        assert main(["run", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    finally:
        os.umask(old_umask)
    mode = stat.S_IMODE((tmp_path / "reference").stat().st_mode)
    assert mode == 0o640
    for name in ("solve.csv", "solve.manifest.json"):
        assert stat.S_IMODE((tmp_path / "out" / name).stat().st_mode) == mode


def test_cached_parser_keeps_no_state_between_calls(tmp_path):
    from harmonictails.cli import _parser

    cfg = write_cfg(tmp_path, "mc.json",
                    {"task": "harmonic-mc", "chain": EX1,
                     "params": {"seed": 7, "n_paths": 200, "horizon": 2000, "states": [0]}})
    same, fresh = tmp_path / "same", tmp_path / "fresh"
    assert main(["run", str(cfg), "--out", str(same), "--seed", "99", "--quiet"]) == 0
    parser = _parser()
    assert main(["run", str(cfg), "--out", str(same), "--quiet"]) == 0
    assert _parser() is parser
    _parser.cache_clear()
    try:
        assert main(["run", str(cfg), "--out", str(fresh), "--quiet"]) == 0
    finally:
        _parser.cache_clear()
    assert _outputs(same, "mc") == _outputs(fresh, "mc")
    assert json.loads((same / "mc.manifest.json").read_text())["params"]["seed"] == 7


def test_flagged_solver_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "super.json",
                    {"task": "harmonic-solve",
                     "chain": {"name": "example1", "p": 0.7, "alpha": 3.0},
                     "params": {"K": 200}})
    assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    assert "flagged" in capsys.readouterr().err
    assert not (tmp_path / "super.csv").exists()
    doc = json.loads((tmp_path / "super.manifest.json").read_text())
    assert doc["flagged"] is True
    assert doc["diagnostics"]["error_type"] == "SolverFailure"
    assert doc["outputs"] == []


OVERFLOWS = [
    {"task": "stationary", "chain": {"name": "lindley", "pmf": WALK},
     "params": {"K": 40, "beta": 800}},
    {"task": "stationary", "chain": {"name": "lindley", "pmf": WALK},
     "params": {"K": 40, "beta": -800}},
    {"task": "stationary", "chain": {"name": "lindley", "pmf": WALK},
     "params": {"K": 40, "beta": 1e300}},
    {"task": "cramer-series", "params": {"M": 2, "m": [1e-300, 1.0], "D": {"1,1": 1e300}}},
    {"task": "stationary", "chain": {"name": "lindley", "pmf": WALK},
     "params": {"K": 40, "beta": -20}},
    {"task": "ladder", "chain": {"name": "killed-walk", "pmf": WALK}, "params": {"i_max": 1000}},
]


@pytest.mark.parametrize("doc", OVERFLOWS)
def test_overflow_is_flagged(tmp_path, capsys, doc):
    cfg = write_cfg(tmp_path, "big.json", doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("flagged:") and "Traceback" not in err
    assert not (tmp_path / "big.csv").exists()
    manifest = json.loads((tmp_path / "big.manifest.json").read_text())
    assert manifest["flagged"] is True
    assert manifest["diagnostics"]["reason"] == "non-finite"


# explicit rows that reach 200 states up over the tail row {-1: .99, 1: .01},
# whose Cramér root log 99 makes exp(root x 200) overflow: the exact solve
# cannot tilt the rows, and the chain goes to the truncated solve
WIDE_ROWS = {"name": "general", "band_lo": 1, "band_hi": 200, "stochastic": True,
             "rows": {"0": {"0": 0.5, "200": 0.5}}, "tail_row": {"-1": 0.99, "1": 0.01}}


@pytest.mark.parametrize("beta", [None, 0.5])
def test_stationary_tilt_overflow_takes_the_truncated_solve(tmp_path, capsys, beta):
    params = {"K": 2000, "i_max": 10, **({} if beta is None else {"beta": beta})}
    cfg = write_cfg(tmp_path, "wide.json", {"task": "stationary", "chain": WIDE_ROWS,
                                           "params": params})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", str(cfg), "--out", str(tmp_path), "--quiet"])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    doc = json.loads((tmp_path / "wide.manifest.json").read_text())
    if beta is None:  # the root log 99 tilts the truncated solve's jump of 200 past exp's range
        assert code == 2 and doc["diagnostics"]["reason"] == "non-finite"
    else:
        assert code == 0
        assert doc["diagnostics"]["method"] == "linear-solve"


def test_flagged_conditions(tmp_path):
    cfg = write_cfg(tmp_path, "cond.json",
                    {"task": "conditions",
                     "chain": {"name": "example1", "p": 0.7, "alpha": 3.0}})
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 2
    doc = json.loads((tmp_path / "cond.manifest.json").read_text())
    assert doc["flagged"] is True
    assert doc["flag_reason"] == "limit-theorem conditions not certified"
    assert doc["diagnostics"]["thm_2_4_applicable"] is False
    # the computation itself succeeded, so the CSV is still written
    rows = read_rows(tmp_path / "cond.csv")
    assert rows[0] == ["quantity", "value"]


def test_conditions_good_case(tmp_path):
    cfg = write_cfg(tmp_path, "cond.json", {"task": "conditions", "chain": EX1})
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    rows = {r[0]: r[1] for r in read_rows(tmp_path / "cond.csv")[1:]}
    assert float(rows["minorant_mean"]) == pytest.approx(0.4, abs=1e-12)
    assert float(rows["escape_prob_lower"]) == pytest.approx(0.4, abs=1e-10)
    assert float(rows["return_prob_upper[0]"]) == pytest.approx(3 / 7, abs=1e-7)


def test_ladder_task(tmp_path):
    cfg = write_cfg(tmp_path, "lad.json",
                    {"task": "ladder",
                     "chain": {"name": "killed-walk", "pmf": WALK},
                     "params": {"i_max": 12}})
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    rows = read_rows(tmp_path / "lad.csv")
    assert rows[0] == ["i", "ladder_form", "tilted_min_form", "ratio"]
    assert len(rows) == 14
    doc = json.loads((tmp_path / "lad.manifest.json").read_text())
    assert doc["diagnostics"]["multiplier"] == pytest.approx(4 / 7, abs=1e-10)
    assert doc["diagnostics"]["beta"] == pytest.approx(math.log(7 / 3), abs=1e-12)
    assert doc["diagnostics"]["max_ratio_deviation"] <= 1e-8


def test_ladder_task_computes_each_root_once(tmp_path, monkeypatch):
    from harmonictails import ladder

    calls = []
    root = ladder.cramer_root

    def counted(walk, *args, **kwargs):
        calls.append(walk)
        return root(walk, *args, **kwargs)

    monkeypatch.setattr(ladder, "cramer_root", counted)
    cfg = write_cfg(tmp_path, "lad.json", {"task": "ladder",
                                           "chain": {"name": "killed-walk", "pmf": WALK}})
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    # beta; neither ladder law needs a root
    assert len(calls) == 1


def test_tail_task_computes_one_root(tmp_path, monkeypatch):
    from harmonictails import ladder

    calls = []
    root = ladder.cramer_root
    monkeypatch.setattr(ladder, "cramer_root", lambda w, *a, **kw: calls.append(w) or root(w))
    cfg = CONFIGS / "alternating_tail.json"
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    # the config check finds it on the limit walk; the stationary solve and
    # the tail model read it there
    assert len(calls) == 1


# finite but huge weights: each used to pass validate and end the run in a
# traceback or an error; CI runs these fixtures with the console script
@pytest.mark.parametrize("stem,rc,reason", [
    ("escape_certain_conditions", 2, None),
    ("overflowing_tilt_stationary", 2, "non-finite"),
    ("thin_root_stationary", 1, None),
    ("huge_weight_mc", 2, "non-finite"),
])
def test_huge_weights_end_flagged_or_refused(tmp_path, capsys, stem, rc, reason):
    path = FIXTURES / f"{stem}.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", str(path)]) == (1 if rc == 1 else 0)
        assert main(["run", str(path), "--out", str(tmp_path), "--quiet"]) == rc
    err = capsys.readouterr().err
    if rc == 1:
        assert "config error: task 'stationary' needs a Cramér root" in err
        return
    manifest = json.loads((tmp_path / f"{stem}.manifest.json").read_text())
    assert manifest["flagged"] is True
    assert manifest["diagnostics"].get("reason") == reason
    if stem == "escape_certain_conditions":
        assert "gamma_available,inf\n" in (tmp_path / f"{stem}.csv").read_text()


def test_ladder_overflow_fails_fast(tmp_path, capsys):
    # exp(beta i) overflows from i ~ 775 on: flagged before any ladder law is
    # computed; CI runs the same fixture with the console script
    cfg = Path(__file__).resolve().parent / "fixtures" / "ladder_overflow.json"
    t0 = time.perf_counter()
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 2
    assert time.perf_counter() - t0 < 2.0
    assert "Traceback" not in capsys.readouterr().err
    doc = json.loads((tmp_path / "ladder_overflow.manifest.json").read_text())
    assert doc["flagged"] is True
    assert doc["diagnostics"]["reason"] == "non-finite"
    assert doc["flag_reason"] == ("exp(beta i) overflows below i_max = 1000000 "
                                  "(beta = 0.916291)")


def test_ladder_task_near_critical(tmp_path):
    # drift 0.02: the ladder law must cost no more here than far from criticality
    a = 0.49
    cfg = write_cfg(tmp_path, "lad.json",
                    {"task": "ladder",
                     "chain": {"name": "killed-walk", "pmf": {"1": a, "-1": 1 - a}},
                     "params": {"i_max": 1000}})
    t0 = time.perf_counter()
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    assert time.perf_counter() - t0 < 5.0
    rows = read_rows(tmp_path / "lad.csv")
    assert len(rows) == 1002
    ratio = [float(r[3]) for r in rows[1:]]
    assert max(abs(r / ((1 - 2 * a) / (1 - a)) - 1.0) for r in ratio) <= 1e-12


@pytest.mark.parametrize("span,ok", [(2000, True), (2001, False)])
def test_pmf_span_cap(span, ok):
    doc = {"task": "ladder", "chain": {"name": "killed-walk", "pmf": {str(1 - span): 0.6, "1": 0.4}}}
    problems = validate(ExperimentConfig.from_dict(doc))
    assert (problems == []) == ok
    assert ok or "offsets span 2001 > 2000" in problems[0]


@pytest.mark.parametrize("task,name,states,ok", [
    ("harmonic-solve", "K", 454545, True), ("harmonic-solve", "K", 454546, False),
    ("conditions", "probe", 454546, False), ("ladder", "i_max", 10**6, True)])
def test_band_entries_cap(task, name, states, ok):
    # band width 22: K times the width may reach 10**7
    doc = {"task": task, "params": {name: states},
           "chain": {"name": "killed-walk", "pmf": {"-20": 0.6, "1": 0.4}}}
    problems = validate(ExperimentConfig.from_dict(doc))
    assert problems == ([] if ok else [f"params.{name} {states} times the band width 22 "
                                       "exceeds 10000000 band entries"])


def test_ladder_task_wide_walk(tmp_path):
    # levels of 50 states; CI runs the same fixture with the console script
    cfg = Path(__file__).resolve().parent / "fixtures" / "wide_walk_ladder.json"
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    doc = json.loads((tmp_path / "wide_walk_ladder.manifest.json").read_text())
    assert doc["flagged"] is False
    assert doc["diagnostics"]["max_ratio_deviation"] <= 1e-12


def test_stationary_task_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path, "st.json",
                    {"task": "stationary",
                     "chain": {"name": "lindley", "pmf": WALK},
                     "params": {"K": 50, "i_max": 10}})
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    rows = read_rows(tmp_path / "st.csv")
    assert rows[0] == ["i", "log_pi", "pi"]
    # 17 significant digits survive the round trip exactly
    res = ht.stationary_solve(ht.lindley_chain(ht.LatticeWalk.from_dict({1: 0.3, -1: 0.7})), 50)
    for r in rows[1:4]:
        assert float(r[1]) == res.log_pi[int(r[0])]


def test_tail_task_passes(tmp_path):
    cfg = write_cfg(tmp_path, "tail.json",
                    {"task": "tail",
                     "chain": {"name": "example3", "p": 0.3, "c0": 0.05, "gamma": 0.7},
                     "params": {"K": 400, "window": [200, 300], "mode": "constant"}})
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    rows = read_rows(tmp_path / "tail.csv")
    assert rows[0] == ["i", "log_pi", "predicted_log_tail", "log_c"]
    doc = json.loads((tmp_path / "tail.manifest.json").read_text())
    assert doc["diagnostics"]["passed"] is True
    assert doc["diagnostics"]["constant"] > 0
    assert doc["diagnostics"]["variation"] <= 0.01


def test_tail_task_predicts_each_state_once(tmp_path, monkeypatch):
    calls = []
    predict = ht.TailModel.predict_log_tail
    monkeypatch.setattr(ht.TailModel, "predict_log_tail",
                        lambda self, i: calls.append(np.copy(i)) or predict(self, i))
    cfg = write_cfg(tmp_path, "tail.json",
                    {"task": "tail", "chain": EX3,
                     "params": {"K": 400, "window": [200, 300], "mode": "constant"}})
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    # one call, with the window's states as one integer array
    assert len(calls) == 1
    assert calls[0].dtype.kind == "i"
    assert calls[0].tolist() == list(range(200, 301))


def test_tail_task_general_drift(tmp_path):
    cfg = write_cfg(tmp_path, "power.json",
                    {"task": "tail",
                     "chain": {"name": "general",
                               "drift": {"p": 0.3,
                                         "profile": {"type": "power", "c0": 0.05,
                                                     "exponent": -0.6}}},
                     "params": {"K": 1000, "window": [500, 750],
                                "mode": "alpha-over-m"}})
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    doc = json.loads((tmp_path / "power.manifest.json").read_text())
    assert doc["diagnostics"]["passed"] is True
    assert doc["diagnostics"]["mode"] == "alpha-over-m"
    assert len(doc["diagnostics"]["coefficients"]) == 1


def test_cramer_series_explicit(tmp_path):
    cfg = write_cfg(tmp_path, "cs.json",
                    {"task": "cramer-series",
                     "params": {"m": [2.0, 3.0], "D": {"1,1": 1.0}, "M": 2}})
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    rows = read_rows(tmp_path / "cs.csv")
    assert rows[0] == ["k", "R_k"]
    assert rows[1] == ["1", "-0.5"]
    assert rows[2] == ["2", "0.0625"]
    doc = json.loads((tmp_path / "cs.manifest.json").read_text())
    assert doc["diagnostics"]["back_substitution_residual"] <= 1e-14


def test_cramer_series_from_chain(tmp_path):
    cfg = write_cfg(tmp_path, "cs3.json",
                    {"task": "cramer-series",
                     "chain": {"name": "example3", "p": 0.3, "c0": 0.05, "gamma": 0.7},
                     "params": {"M": 2}})
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    doc = json.loads((tmp_path / "cs3.manifest.json").read_text())
    m = doc["diagnostics"]["m"]
    assert m[0] == pytest.approx(0.4, abs=1e-12)
    assert m[1] == pytest.approx(1.0, abs=1e-12)


def test_general_rows_chain(tmp_path):
    cfg = write_cfg(tmp_path, "gen.json",
                    {"task": "harmonic-solve",
                     "chain": {"name": "general", "band_lo": 1, "band_hi": 1,
                               "rows": {"0": {"1": 1.0},
                                        "1": {"-1": 0.3, "1": 0.7}},
                               "tail_row": {"-1": 0.3, "1": 0.7}},
                     "params": {"K": 60, "i_max": 5}})
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    rows = read_rows(tmp_path / "gen.csv")
    assert rows[0] == ["i", "f_solve"]
    for r in rows[1:]:
        assert float(r[1]) == pytest.approx(1.0, abs=1e-10)


def test_build_chain_programmatic():
    fam = build_chain(EX1)
    assert fam.name == "perturbed-reflected-walk"
    with pytest.raises(ht.ConfigError):
        build_chain({"p": 0.7})
    with pytest.raises(ht.ConfigError):
        build_chain({"name": "general"})
    with pytest.raises(ht.ConfigError):
        build_chain({"name": "general", "drift": {"p": 0.3, "profile": {"type": "cubic"}}})


@pytest.mark.parametrize("task", [[1], {"a": 1}, 3, None])
def test_task_that_is_not_a_string_refused(tmp_path, capsys, task):
    # a list or object used to end in "unhashable type" from the task lookup
    cfg = write_cfg(tmp_path, "task.json", {"task": task, "chain": EX1})
    assert main(["validate", str(cfg)]) == 1
    assert "'task' key is a string" in capsys.readouterr().err


def test_experiment_config_rejects_bad_shapes():
    with pytest.raises(ht.ConfigError):
        ExperimentConfig.from_dict({"task": "stationary", "params": []})
    with pytest.raises(ht.ConfigError):
        ExperimentConfig.from_dict({"task": "stationary", "chain": "lindley"})
    cfg = ExperimentConfig.from_dict({"task": "stationary", "chain": {"name": "lindley"}})
    assert validate(cfg)  # pmf is missing, so the descriptor cannot build


def test_custom_rows_solve_is_constant(tmp_path):
    # a recurrent chain: its only bounded harmonic function is the constant
    doc = json.loads((CONFIGS / "custom_rows_solve.json").read_text())
    doc["params"] = {"K": 200, "i_max": 200}
    cfg = write_cfg(tmp_path, "custom.json", doc)
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
    rows = read_rows(tmp_path / "custom.csv")
    assert len(rows) == 202
    assert max(abs(float(r[1]) - 1.0) for r in rows[1:]) <= 1e-12


@pytest.mark.parametrize("states", [[-1], [0, -3], [1.5], ["2"], [True], 3])
def test_mc_states_validated(tmp_path, capsys, states):
    cfg = write_cfg(tmp_path, "mc.json",
                    {"task": "harmonic-mc", "chain": EX1,
                     "params": {"seed": 1, "n_paths": 10, "horizon": 10, "states": states}})
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 1
    assert "config error: params.states" in capsys.readouterr().err
    assert not (tmp_path / "mc.csv").exists()


def test_mc_state_above_scored_range(tmp_path, capsys):
    # validate runs build_mc's own set-up, so the run stops at the config check
    cfg = write_cfg(tmp_path, "mc.json",
                    {"task": "harmonic-mc", "chain": EX1,
                     "params": {"seed": 1, "n_paths": 10, "horizon": 10, "states": [1000]}})
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "outside the scored range" in err


@pytest.mark.parametrize("path", [CONFIGS / "reflected_mc.json", FIXTURES / "stop_level_mc.json"],
                         ids=lambda p: p.stem)
def test_mc_validate_builds_no_path_chain(path, monkeypatch):
    # validate certifies the stopping level and the scored range; the path
    # chain, whose build cannot fail, is left to the run
    calls = []
    collapse = ht.harmonic._collapse
    monkeypatch.setattr(ht.harmonic, "_collapse", lambda *a: calls.append(a) or collapse(*a))
    config = ExperimentConfig.from_file(path)
    assert validate(config) == []
    assert calls == []
    kernel = ht.cli._task_kernel(build_chain(config.chain))
    ht.build_mc(kernel, config.params["states"], 10, 10, seed=0)
    assert len(calls) == 1


def test_mc_run_certifies_once(tmp_path, monkeypatch):
    # the run gets the kernel that the config check certified: one embedded
    # chain and one Lundberg exponent per run
    embeds, ruins = [], []
    embed = ht.TransitionKernel.embed
    monkeypatch.setattr(ht.TransitionKernel, "embed", lambda k: embeds.append(1) or embed(k))
    ruin = ht.harmonic.ruin_exponent
    monkeypatch.setattr(ht.harmonic, "ruin_exponent", lambda w: ruins.append(1) or ruin(w))
    path = FIXTURES / "stop_level_mc.json"
    assert main(["run", str(path), "--out", str(tmp_path), "--quiet"]) == 0
    assert (len(embeds), len(ruins)) == (1, 1)


@pytest.mark.parametrize("chain,states,message", [
    ({"name": "general", "band_lo": 1, "band_hi": 1, "stochastic": True,
      "rows": {"0": {"0": 1.0}}, "tail_row": UP_WALK}, [0],
     "no positive-drift minorant: cannot certify Monte Carlo termination"),
    (EX1, [1000], "start state 1000 outside the scored range [0, 24]"),
    (EX1, [0, 24, 25], "start state 25 outside the scored range [0, 24]"),
])
def test_mc_validate_messages(tmp_path, capsys, chain, states, message):
    cfg = write_cfg(tmp_path, "mc.json", {"task": "harmonic-mc", "chain": chain,
                                          "params": {**MC, "states": states}})
    assert main(["validate", str(cfg)]) == 1
    assert capsys.readouterr().out == f"task 'harmonic-mc' cannot run: {message}\n"


@pytest.mark.parametrize("params", [{"K": 50, "i_max": 51}, {"i_max": 401},
                                    {"K": 50, "i_max": -1}, {"K": 50, "i_max": 2.5}])
def test_stationary_i_max_validated(tmp_path, capsys, params):
    cfg = write_cfg(tmp_path, "st.json",
                    {"task": "stationary", "chain": {"name": "lindley", "pmf": WALK},
                     "params": params})
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 1
    assert "config error: params.i_max" in capsys.readouterr().err


@pytest.mark.parametrize("fragment,doc", HOLES)
def test_run_rejects_holes(tmp_path, capsys, fragment, doc):
    cfg = write_cfg(tmp_path, "hole.json", doc)
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and fragment in err
    assert not (tmp_path / "hole.csv").exists()


def test_near_stochastic_tail_row_solves(tmp_path):
    # harmonic-solve allows a boundary row mass within 1e-9 of 1, harmonic-mc none
    doc = {"task": "harmonic-solve", "chain": NEAR_ONE, "params": {"K": 60}}
    assert validate(ExperimentConfig.from_dict(doc)) == []
    cfg = write_cfg(tmp_path, "near.json", doc)
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0


def test_seed_override_needs_a_seed_param(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "st.json", {"task": "stationary", "chain": EX3,
                                          "params": {"K": 20}})
    assert main(["run", str(cfg), "--out", str(tmp_path), "--seed", "3"]) == 1
    assert "config error: params.seed" in capsys.readouterr().err


# ids: the task, the last row, and the exit code the case had while rows
# without a tail_row were allowed as far as the task's solver read
@pytest.mark.parametrize("task,params,up,top", [
    pytest.param("harmonic-solve", {"K": 60}, 0.4, 119, id="119-1"),
    pytest.param("harmonic-solve", {"K": 60}, 0.4, 120, id="120-0"),
    pytest.param("conditions", {}, 0.4, 70, id="conditions-70-1"),
    pytest.param("conditions", {}, 0.4, 128, id="conditions-128-2"),
    pytest.param("harmonic-mc", MC, 0.7, 19, id="harmonic-mc-19-1"),
    pytest.param("harmonic-mc", MC, 0.7, 72, id="harmonic-mc-72-0"),
])
def test_general_rows_without_tail(tmp_path, capsys, task, params, up, top):
    # every rows chain needs a tail_row, however far its rows reach
    rows = {"0": {"1": 1.0}, **{str(i): {"-1": 1 - up, "1": up} for i in range(1, top + 1)}}
    doc = {"task": task, "params": params,
           "chain": {"name": "general", "band_lo": 1, "band_hi": 1, "rows": rows,
                     "stochastic": task == "harmonic-mc"}}
    problems = validate(ExperimentConfig.from_dict(doc))
    assert len(problems) == 1 and "needs a 'tail_row'" in problems[0]
    cfg = write_cfg(tmp_path, "rows.json", doc)
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_configs_validate(path):
    assert validate(ExperimentConfig.from_file(path)) == []


# task -> (chain, params always set so the run stays small, optional params)
FUZZ_TASKS = {
    "harmonic-solve": (EX1, ["K"], ["tol", "i_max"]),
    "harmonic-mc": (EX1, ["n_paths", "horizon"], ["states", "seed"]),
    "conditions": (EX1, [], ["probe"]),
    "ladder": ({"name": "killed-walk", "pmf": WALK}, [], ["i_max"]),
    "stationary": ({"name": "lindley", "pmf": WALK}, ["K"], ["beta", "doubling_tol", "i_max"]),
    "tail": (EX3, ["K"], ["window", "mode", "order", "variation_tol", "doubling_tol"]),
    "cramer-series": (EX3, [], ["M", "m", "D"]),
}
FUZZ_MAX = {"n_paths": 20, "horizon": 50}
FUZZ_VALID = {"states": [0, 3], "window": [5, 9], "mode": "alpha-over-m", "m": [2.0, 3.0],
              "D": {"1,1": 1.0}}
ROW_0 = {"name": "general", "band_lo": 1, "band_hi": 1, "rows": {"0": {"1": 1.0}}}
# chains whose limit laws meet or break each task's needs, drawn beside its own
FUZZ_CHAINS = [
    {"name": "lindley", "pmf": {"-1": 0.3, "1": 0.7}},
    {"name": "lindley", "pmf": WALK},
    {"name": "lindley", "pmf": {"-1": 0.5, "0": 0.5}},
    {"name": "killed-walk", "pmf": {"-1": 0.3, "1": 0.7}},
    {"name": "killed-walk", "pmf": {"-2": 0.6, "1": 0.4}},
    {**ROW_0, "stochastic": True, "tail_row": {"-1": 0.3, "1": 0.7}},
    {**ROW_0, "tail_row": {"-1": 0.7, "1": 0.3}},
    {**ROW_0, "tail_row": {"-1": 0.3, "1": 0.6}},
    {"name": "general",
     "drift": {"p": 0.3, "profile": {"type": "power", "c0": 0.05, "exponent": -0.6}}},
]
JUNK = st.sampled_from(["x", True, False, None, math.nan, -1, 0, 0.5, [], [1, 2], {}])


def fuzz_value(key):
    valid = [st.just(FUZZ_VALID[key])] if key in FUZZ_VALID else []
    return st.one_of(JUNK, st.integers(1, FUZZ_MAX.get(key, 60)), *valid)


@settings(max_examples=300)
@given(data=st.data())
def test_fuzzed_params_never_crash(data):
    # the contract: a config that validate passes runs to exit 0 or 2, never to
    # "error:"; one that it refuses exits 1 before any output
    task = data.draw(st.sampled_from(sorted(FUZZ_TASKS)))
    chain, always, optional = FUZZ_TASKS[task]
    keys = always + data.draw(st.lists(st.sampled_from(optional + ["imax"]), unique=True))
    doc = {"task": task, "params": {k: data.draw(fuzz_value(k), label=k) for k in keys}}
    if task != "cramer-series" or data.draw(st.booleans()):
        doc["chain"] = data.draw(st.sampled_from([chain, *FUZZ_CHAINS]), label="chain")
    with tempfile.TemporaryDirectory() as out:
        cfg = Path(out) / "fuzz.json"
        cfg.write_text(json.dumps(doc))
        problems = validate(ExperimentConfig.from_file(cfg))
        rc = main(["run", str(cfg), "--out", out, "--quiet"])
        if problems:
            assert rc == 1
            assert not (Path(out) / "fuzz.csv").exists()
        else:
            assert rc in (0, 2), doc


EX2 = {"name": "example2", "p": 0.7, "alphas": [1.2, 1.5]}
# small params for each task, so that a run of any chain stays short
FUZZ_PARAMS = {"harmonic-solve": {"K": 60}, "harmonic-mc": MC, "conditions": {}, "ladder": {},
               "stationary": {"K": 60}, "tail": {"K": 60}, "cramer-series": {}}


def _chain_paths(obj, path=()):
    """The path of each field of a descriptor, nested ones too, and of one
    new key in each object."""
    yield path + ("extra",)
    for key, value in obj.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from _chain_paths(value, path + (key,))


FUZZ_FIELDS = [(chain, path) for chain in [*FUZZ_CHAINS, EX1, EX2, EX3]
               for path in _chain_paths(chain)]


@settings(max_examples=300)
@given(case=st.sampled_from(FUZZ_FIELDS), value=JUNK, task=st.sampled_from(sorted(FUZZ_PARAMS)))
@example(case=(EX1, ("alpha",)), value=math.nan, task="harmonic-solve")
def test_fuzzed_chains_never_crash(case, value, task):
    # test_fuzzed_params_never_crash's contract, for a descriptor with one
    # field replaced by a junk value or one key added
    chain, path = case
    chain = json.loads(json.dumps(chain))
    obj = chain
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    doc = {"task": task, "chain": chain, "params": FUZZ_PARAMS[task]}
    with tempfile.TemporaryDirectory() as out:
        cfg = Path(out) / "fuzz.json"
        cfg.write_text(json.dumps(doc))
        problems = validate(ExperimentConfig.from_file(cfg))
        rc = main(["run", str(cfg), "--out", out, "--quiet"])
        if problems:
            assert rc == 1
            assert not (Path(out) / "fuzz.csv").exists()
        else:
            assert rc in (0, 2), doc


def _write_csv_per_value(path, header, rows):
    """The writer that the column-wise one replaced: _fmt on every value."""
    import csv

    from harmonictails.cli import _fmt

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for r in rows:
            w.writerow([_fmt(v) for v in r])


def test_write_csv_bytes_match_per_value_writer(tmp_path):
    from harmonictails.cli import _VECTOR_CELLS, _fast_fractions, _write_csv

    specials = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e308, 0.1]
    n = 40
    cols = {
        "int": [i - 3 for i in range(n)],
        "np_int": [np.int64(7 * i - 100) for i in range(n)],
        "int_mixed": [np.int64(i) if i % 2 else i for i in range(n)],
        "float": [specials[i % 8] / 3 if i % 3 else specials[i % 8] for i in range(n)],
        "np_float": [np.float64(specials[i % 8]) * 1.5 for i in range(n)],
        "float_mixed": [np.float64(i / 7) if i % 2 else -i / 7 for i in range(n)],
        "np_float32": [np.float32(i / 3) for i in range(n)],
        "bool": [i % 3 == 0 for i in range(n)],
        "np_bool": [np.bool_(i % 2) for i in range(n)],
        "str": [f"x[{i}]" if i % 5 else 'a,"b"' for i in range(n)],
        "int_and_float": [i if i % 2 else i / 2 for i in range(n)],
        "anything": [[None, True, 3, np.int64(4), -0.0, "s, t", math.nan][i % 7] for i in range(n)],
        # array columns: int and float dtypes take the one-format path
        "a_int64": np.arange(n, dtype=np.int64) * 7 - 100,
        "a_float64": np.array([specials[i % 8] / 3 if i % 3 else specials[i % 8]
                               for i in range(n)]),
        "a_float32": (np.arange(n, dtype=np.float32) - 20) / np.float32(3),
        "a_bool": np.arange(n) % 3 == 0,
    }
    tables = [("int", "float"), ("int", "np_int", "float", "np_float", "float_mixed"),
              ("int_mixed",), tuple(cols), ("bool", "int"), ("str", "np_float"),
              ("int_and_float", "float"), ("np_float32", "np_bool"), ("anything",),
              ("a_int64", "a_float64", "a_float32"), ("a_float64",), ("a_int64",),
              ("a_bool", "a_int64"), ("a_bool",), ("str", "a_float64"),
              ("a_int64", "float"), ("a_float32", "np_bool")]
    for names in tables:
        columns = [cols[k] for k in names]
        for body in (columns, [c[:1] for c in columns], [c[:0] for c in columns]):
            _write_csv(tmp_path / "new.csv", list(names), body)
            _write_csv_per_value(tmp_path / "old.csv", list(names), list(zip(*body)))
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    # long tables: one fast-set fraction below the vector layout's threshold,
    # at it, and the tail task's 1001 rows of every kind of value, so that
    # both paths meet the per-value writer
    rng = np.random.default_rng(25)
    for n, few_kinds in ((_VECTOR_CELLS - 1, True), (_VECTOR_CELLS, True), (1001, False)):
        wide = 10.0 ** rng.uniform(-4, 11, n) * rng.choice([-1.0, 1.0], n)  # fractions
        body = [np.arange(n, dtype=np.int64) * 7919 - 10**6 * (np.arange(n) % 3),
                wide, np.round(wide, 0), np.zeros(n, np.float32),
                rng.integers(-2**62, 2**62, n)]
        if not few_kinds:
            wide[::7] = np.resize(np.array(specials), len(wide[::7]))
            body += [np.round(np.clip(wide, -1e15, 1e15), 3),
                     np.clip(10.0 ** rng.uniform(-6, 17, n), 0, 1e38).astype(np.float32),
                     rng.choice(_FORMAT_CASES, n)]
        assert (_fast_fractions(body) >= _VECTOR_CELLS) == (n >= _VECTOR_CELLS)
        names = [f"c{i}" for i in range(len(body))]
        _write_csv(tmp_path / "new.csv", names, body)
        _write_csv_per_value(tmp_path / "old.csv", names, list(zip(*body)))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes(), n


def _ties():
    """Doubles whose 17-digit rounding is an exact tie, 2000 for each decimal
    exponent of the fast set: x 10^(16-k) = n + 1/2, so x = odd / 2^(17-k)."""
    rng = np.random.default_rng(17)
    out = []
    for k in range(-4, 15):
        scale = 2 ** (17 - k)
        lo, hi = -(-scale * 10**(k + 4) // 10**4), scale * 10**(k + 5) // 10**4
        out.append(np.ldexp((rng.integers(lo // 2, hi // 2, 2000) * 2 + 1).astype(float), k - 17))
    return np.concatenate(out)


# the edges of the fast set and of each decimal exponent, with their
# neighbours one ulp away, signed zeros, subnormals, and exact 17-digit ties
_POWERS = np.array([float(f"1e{k}") for k in range(-324, 309)])
_FORMAT_CASES = np.concatenate([
    _POWERS, np.nextafter(_POWERS, 0), np.nextafter(_POWERS, math.inf),
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     math.inf, -math.inf, math.nan, 1e15 - 0.125, 0.5, 1.5, 2.5, 9.5, 0.30000000000000004],
    _ties()])
_FORMAT_CASES = np.concatenate([_FORMAT_CASES, -_FORMAT_CASES])


def test_numeric_rows_match_percent_format_on_edges():
    from harmonictails.cli import _numeric_rows

    assert _numeric_rows([_FORMAT_CASES]) == "".join("%.17g\n" % v for v in _FORMAT_CASES.tolist())


_bits = st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
_fast = st.floats(1e-4, 1e15, exclude_max=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_bits, _fast, st.sampled_from(_FORMAT_CASES.tolist())),
                min_size=1, max_size=60),
       st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=60))
def test_numeric_rows_match_percent_format(floats, ints):
    # the vector layout writes '%.17g' and '%d' text byte for byte, on any
    # bit pattern of a double and any int64
    from harmonictails.cli import _numeric_rows

    values = np.array(floats)
    assert _numeric_rows([values]) == "".join("%.17g\n" % v for v in floats)
    assert _numeric_rows([-values]) == "".join("%.17g\n" % -v for v in floats)
    n = min(len(floats), len(ints))
    with np.errstate(over="ignore"):  # doubles past float32's range cast to inf
        columns = [np.array(ints[:n]), values[:n], values[:n].astype(np.float32)]
    assert _numeric_rows(columns) == "".join(
        "%d,%.17g,%.17g\n" % (i, f, g) for i, f, g in zip(*(c.tolist() for c in columns)))


def test_jsonable_writes_numpy_scalars_as_python_ones():
    # a numpy float that is not finite becomes its repr string, as a Python
    # float does (json.dumps would write Infinity or NaN, which is not JSON),
    # and a numpy bool becomes a bool (json.dumps raised TypeError on it)
    from harmonictails.cli import _jsonable

    doc = {"a": np.float64(math.inf), "b": [np.float32(-math.inf), np.float64(math.nan)],
           "c": np.bool_(True), "d": (np.bool_(False), np.int64(3), np.float64(0.5)),
           "e": math.nan, "f": np.array([math.inf, 1.0])}
    assert json.dumps(_jsonable(doc), allow_nan=False) == json.dumps(
        {"a": "inf", "b": ["-inf", "nan"], "c": True, "d": [False, 3, 0.5], "e": "nan",
         "f": ["inf", 1.0]})


def _contract_docs():
    docs = {p.stem: json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))}
    del docs["supercritical_solve"]  # its runner raises before any column exists
    docs["reflected_mc"]["params"].update(n_paths=200, horizon=2000)
    return docs


CONTRACT_DOCS = _contract_docs()


def test_contract_configs_cover_every_task():
    from harmonictails.cli import _TASK_SPECS

    assert {doc["task"] for doc in CONTRACT_DOCS.values()} == set(_TASK_SPECS)


@pytest.mark.parametrize("stem", sorted(CONTRACT_DOCS))
def test_runner_returns_the_columns_run_writes(tmp_path, stem):
    import csv

    import numpy as np

    from harmonictails.cli import _TASK_SPECS, _check, run

    config = ExperimentConfig.from_dict(CONTRACT_DOCS[stem])
    params, family, problems = _check(config)
    assert problems == []
    header, columns, *_ = _TASK_SPECS[config.task][0](family, **params)
    assert len(columns) == len(header)
    assert len({len(c) for c in columns}) == 1
    values = []
    for col in columns:
        if isinstance(col, np.ndarray):
            assert col.ndim == 1 and col.dtype.kind in "if"
            values.append(col.tolist())
        else:  # only a column of names or of mixed kinds may be a list
            ints = all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in col)
            floats = all(isinstance(v, float) for v in col)
            assert not (ints or floats)
            values.append(col)
    assert run(config, tmp_path, stem, quiet=True) == 0
    with open(tmp_path / f"{stem}.csv", newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == header
    assert len(table) == 1 + len(values[0])
    for r, row in enumerate(table[1:]):
        assert len(row) == len(header)
        for vals, cell in zip(values, row):
            v = vals[r]
            if isinstance(v, float):  # every float cell reads back to the runner's value
                assert float(cell).hex() == v.hex()
            elif type(v) is int:
                assert int(cell) == v
            else:
                assert cell == str(v)


def test_cli_runs_load_no_scipy_package(tmp_path):
    # import time is the end-to-end cost of most configs: the banded solves
    # load scipy's LAPACK extension from its file, and nothing else of scipy
    # is imported, before or after a run
    import ast
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parents[1] / "src")
    configs = [str(c) for c in sorted(CONFIGS.glob("*.json")) if c.stem != "reflected_mc"]
    code = (
        "import sys; from harmonictails import cli\n"
        "def scipy_modules(): return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "print(scipy_modules())\n"
        f"for cfg in {configs!r}:\n"
        f"    assert cli.main(['run', cfg, '--out', {str(tmp_path)!r}, '--quiet']) in (0, 2), cfg\n"
        "print(scipy_modules())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    before, after = (ast.literal_eval(line) for line in out.splitlines())
    assert before == [] and set(after) <= {"scipy.linalg._flapack"}, after
    assert len(list(tmp_path.glob("*.manifest.json"))) == len(configs) == 10
