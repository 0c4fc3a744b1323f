"""Command line interface: config validation, runs, outputs, exit codes."""

import json
import math
import tempfile
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import harmonictails as ht
from harmonictails.cli import ExperimentConfig, build_chain, main, validate

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"
EX1 = {"name": "example1", "p": 0.7, "alpha": 2.0}
WALK = {"1": 0.3, "-1": 0.7}
EX3 = {"name": "example3", "p": 0.3, "c0": 0.05, "gamma": 0.7}
TWO_ROWS = {"name": "general", "band_lo": 1, "band_hi": 1,
            "rows": {"0": {"1": 1.0}, "1": {"-1": 0.3, "1": 0.7}}}
MC = {"seed": 1, "n_paths": 10, "horizon": 10}

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
    cfg = write_cfg(tmp_path, "mc.json",
                    {"task": "harmonic-mc", "chain": EX1,
                     "params": {"seed": 1, "n_paths": 10, "horizon": 10, "states": [1000]}})
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 1
    assert "outside the scored range" in capsys.readouterr().err


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


def test_seed_override_needs_a_seed_param(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "st.json", {"task": "stationary", "chain": EX3,
                                          "params": {"K": 20}})
    assert main(["run", str(cfg), "--out", str(tmp_path), "--seed", "3"]) == 1
    assert "config error: params.seed" in capsys.readouterr().err


@pytest.mark.parametrize("top,rc", [(119, 1), (120, 0)])
def test_general_rows_without_tail(tmp_path, top, rc):
    # harmonic-solve at K = 60 reads rows up to 2K = 120
    rows = {"0": {"1": 1.0}, **{str(i): {"-1": 0.6, "1": 0.4} for i in range(1, top + 1)}}
    doc = {"task": "harmonic-solve", "params": {"K": 60},
           "chain": {"name": "general", "band_lo": 1, "band_hi": 1, "rows": rows}}
    assert bool(validate(ExperimentConfig.from_dict(doc))) == (rc == 1)
    cfg = write_cfg(tmp_path, "rows.json", doc)
    assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == rc


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_configs_validate(path):
    assert validate(ExperimentConfig.from_file(path)) == []


# task -> (chain, params always set so the run stays small, optional params)
FUZZ_TASKS = {
    "harmonic-solve": (EX1, ["K"], ["tol", "i_max"]),
    "harmonic-mc": (EX1, ["n_paths", "horizon"], ["states", "seed"]),
    "conditions": (EX1, [], ["probe"]),
    "ladder": ({"name": "killed-walk", "pmf": WALK}, [], ["i_max", "beta"]),
    "stationary": ({"name": "lindley", "pmf": WALK}, ["K"], ["beta", "doubling_tol", "i_max"]),
    "tail": (EX3, ["K"], ["window", "mode", "order", "variation_tol", "doubling_tol"]),
    "cramer-series": (EX3, [], ["M", "m", "D"]),
}
FUZZ_MAX = {"n_paths": 20, "horizon": 50}
FUZZ_VALID = {"states": [0, 3], "window": [5, 9], "mode": "alpha-over-m", "m": [2.0, 3.0],
              "D": {"1,1": 1.0}}
JUNK = st.sampled_from(["x", True, False, None, math.nan, -1, 0, 0.5, [], [1, 2], {}])


def fuzz_value(key):
    valid = [st.just(FUZZ_VALID[key])] if key in FUZZ_VALID else []
    return st.one_of(JUNK, st.integers(1, FUZZ_MAX.get(key, 60)), *valid)


@settings(max_examples=200)
@given(data=st.data())
def test_fuzzed_params_never_crash(data):
    task = data.draw(st.sampled_from(sorted(FUZZ_TASKS)))
    chain, always, optional = FUZZ_TASKS[task]
    keys = always + data.draw(st.lists(st.sampled_from(optional + ["imax"]), unique=True))
    doc = {"task": task, "params": {k: data.draw(fuzz_value(k), label=k) for k in keys}}
    if task != "cramer-series" or data.draw(st.booleans()):
        doc["chain"] = chain
    with tempfile.TemporaryDirectory() as out:
        cfg = Path(out) / "fuzz.json"
        cfg.write_text(json.dumps(doc))
        problems = validate(ExperimentConfig.from_file(cfg))
        rc = main(["run", str(cfg), "--out", out, "--quiet"])
        assert rc in (0, 1, 2)
        if problems:
            assert rc == 1
            assert not (Path(out) / "fuzz.csv").exists()
