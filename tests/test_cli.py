"""CLI harness: spec parsing, CSV contracts, reproducibility, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ehaoi
from ehaoi.cli import ExperimentSpec, main, run_experiment
from ehaoi.energy_chain import EnergyChainConfig, steady_state
from ehaoi.errors import BadConfig
from ehaoi.fbl import CodingConfig, effective_threshold_exact


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


THRESHOLD_DOC = {
    "name": "thr",
    "kind": "threshold",
    "params": {
        "bits_per_unit": 100,
        "target_rate": 0.825,
        "n_values": [1, 2, 5],
        "eps_values": [1e-2, 1e-6],
    },
}

STEADY_DOC = {
    "name": "steady_demo",
    "kind": "steady_state",
    "params": {"net": {"density": 0.01, "N": 2, "B": 8, "xi": 0.5, "eta": 0.5}},
}


def test_steady_state_csv_contract(tmp_path):
    spec = ExperimentSpec.from_dict(STEADY_DOC)
    paths = run_experiment(spec, out_dir=tmp_path, quiet=True)
    header, rows = read_csv(paths[0])
    assert header == ["level", "closed_form", "numeric", "abs_diff"]
    assert len(rows) == 9
    ss = steady_state(EnergyChainConfig(2, 8, 0.5, 0.5))
    assert float(rows[0][1]) == pytest.approx(ss.probs[0], rel=1e-10)
    assert all(float(r[3]) <= 1e-10 for r in rows)
    sidecar = json.loads(paths[1].read_text())
    assert sidecar["kind"] == "steady_state"
    assert sidecar["regime"] == "cut_recursion"
    assert "library_version" in sidecar


def test_reruns_are_byte_identical(tmp_path):
    spec = ExperimentSpec.from_dict(STEADY_DOC)
    first = run_experiment(spec, out_dir=tmp_path / "a", quiet=True)
    second = run_experiment(spec, out_dir=tmp_path / "b", quiet=True)
    assert first[0].read_bytes() == second[0].read_bytes()


def test_threshold_kind(tmp_path):
    paths = run_experiment(ExperimentSpec.from_dict(THRESHOLD_DOC), out_dir=tmp_path, quiet=True)
    header, rows = read_csv(paths[0])
    assert header == ["blocklength", "eps", "exact", "approx", "abs_gap"]
    assert len(rows) == 6
    expected = effective_threshold_exact(CodingConfig(k=100, N=1, target_rate=0.825, eps=1e-2))
    assert float(rows[0][2]) == pytest.approx(expected, rel=1e-10)
    assert all(float(r[4]) >= 0.0 for r in rows)


def test_aoi_curve_analytic_sweep(tmp_path):
    doc = {
        "name": "curve",
        "kind": "aoi_curve",
        "params": {
            "phy": {"alpha": 3.8, "r": 3.0, "snr_db": 13.0, "eps": 1e-6, "theta": 1.3},
            "net": {"density": 0.01, "N": 2, "B": 8, "xi": 0.5, "eta": 0.5},
        },
        "sweep": {"name": "B", "values": [2, 3, 4, 8, 20]},
    }
    paths = run_experiment(ExperimentSpec.from_dict(doc), out_dir=tmp_path, quiet=True)
    header, rows = read_csv(paths[0])
    assert header == ["B", "analytic_aoi", "sim_aoi", "sim_ci"]
    assert [float(r[0]) for r in rows] == [2, 3, 4, 8, 20]
    assert all(float(r[1]) > 0 for r in rows)
    assert all(r[2] == "" for r in rows)


def test_simulate_kind_with_seed_override(tmp_path):
    doc = {
        "name": "simrun",
        "kind": "simulate",
        "params": {
            "phy": {"alpha": 3.8, "r": 3.0, "snr_db": 13.0, "eps": 1e-6, "theta": 1.3},
            "net": {"density": 0.01, "N": 2, "B": 10, "xi": 0.5, "eta": 0.5},
            "sim": {"slots": 400, "realizations": 2, "side": 40.0, "seed": 3},
        },
    }
    paths = run_experiment(ExperimentSpec.from_dict(doc), out_dir=tmp_path, seed=99, quiet=True)
    header, rows = read_csv(paths[0])
    assert header[0] == "network_aoi"
    assert len(rows) == 1
    sidecar = json.loads(paths[1].read_text())
    assert sidecar["seed"] == 99


def test_optimize_kind(tmp_path):
    doc = {
        "name": "opt",
        "kind": "optimize",
        "params": {
            "phy": {"alpha": 3.8, "r": 3.0, "snr_db": 20.0, "eps": 1e-6,
                     "target_rate": 0.825, "bits_per_unit": 100},
            "net": {"density": 0.01, "N": 1, "B": 100, "xi": 0.5, "eta": 0.5},
        },
        "sweep": {"name": "density", "values": [0.001, 0.05]},
    }
    paths = run_experiment(ExperimentSpec.from_dict(doc), out_dir=tmp_path, quiet=True)
    header, rows = read_csv(paths[0])
    assert header == ["density", "aoi_star", "eta_star", "n_star", "regime"]
    assert rows[0][4] == "ESR" and rows[1][4] == "ECR"
    assert int(rows[1][3]) >= int(rows[0][3])


def test_optimize_keeps_codewords_within_the_buffer(tmp_path):
    # the searches used to probe N = 15 > B = 10 here, and the spec exited 2
    doc = {
        "name": "opt_small_buffer",
        "kind": "optimize",
        "params": {
            "phy": {"alpha": 3.8, "r": 3.0, "snr_db": 20.0, "eps": 1e-6,
                     "target_rate": 0.825, "bits_per_unit": 100},
            "net": {"density": 0.5, "N": 1, "B": 10, "xi": 0.5, "eta": 0.5},
        },
    }
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 0
    _, rows = read_csv(out / "opt_small_buffer.csv")
    assert len(rows) == 1
    assert all(math.isfinite(float(v)) for v in rows[0][:4])
    assert 1 <= int(rows[0][3]) <= 10


def test_main_exit_codes(tmp_path, capsys):
    # io: missing file
    assert main(["--spec", str(tmp_path / "nope.json")]) == 5
    assert capsys.readouterr().err.startswith("io: ")
    # bad-config: malformed json
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--spec", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("bad-config: ")
    # bad-config: unknown kind
    assert main(["--spec", str(write_spec(tmp_path, {"kind": "mystery"}, "k.json"))]) == 2
    assert capsys.readouterr().err.startswith("bad-config: ")
    # bad-config: missing section
    doc = {"kind": "aoi_curve", "params": {}, "sweep": {"name": "B", "values": [2]}}
    assert main(["--spec", str(write_spec(tmp_path, doc, "m.json"))]) == 2
    assert capsys.readouterr().err.startswith("bad-config: ")
    # out-of-regime: saturated access (xi = eta = 1, N = 1 under interference)
    doc = {
        "kind": "aoi_curve",
        "params": {
            "phy": {"alpha": 3.8, "r": 3.0, "snr_db": 13.0, "eps": 1e-6, "theta": 1.3},
            "net": {"density": 0.01, "N": 1, "B": 1, "xi": 1.0, "eta": 1.0},
        },
        "sweep": {"name": "B", "values": [1]},
    }
    assert main(["--spec", str(write_spec(tmp_path, doc, "s.json")), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("out-of-regime: ")


def test_steady_state_without_mixing_is_non_convergence(tmp_path, capsys):
    # N = 1 with xi = eta = 1: each slot spends one unit and harvests one, so
    # every level from 1 up is absorbing and the balance system is singular
    doc = {"name": "frozen", "kind": "steady_state",
           "params": {"net": {"density": 0.01, "N": 1, "B": 4, "xi": 1.0, "eta": 1.0}}}
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 4
    assert capsys.readouterr().err.startswith("non-convergence: ")
    assert not list(out.glob("*.csv"))


SIM_SPEC = {
    "name": "keys",
    "kind": "aoi_curve",
    "params": {"phy": {"alpha": 3.8, "r": 3.0, "snr_db": 13.0, "eps": 1e-6, "theta": 1.3},
               "net": {"density": 0.01, "N": 2, "B": 30, "xi": 0.5, "eta": 0.3},
               "sim": {"slots": 400, "realizations": 1, "side": 40.0,
                       "arrivals": {"type": "binomial", "e_max": 4, "p": 0.1}}},
    "sweep": {"name": "B", "values": [30]},
}


@pytest.mark.parametrize("section, key, value", [
    ("sim", "census", 0.25),
    ("sim", "boundary", "plane"),
    ("net", "desnity", 0.02),
    ("phy", "snr", 13.0),
    ("sim.arrivals", "xi", 0.5),
], ids=["census", "boundary", "net-typo", "phy-typo", "pattern-field"])
def test_unknown_spec_key_is_bad_config(tmp_path, capsys, section, key, value):
    doc = json.loads(json.dumps(SIM_SPEC))
    target = doc["params"]
    for part in section.split("."):
        target = target[part]
    target[key] = value
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bad-config: {section} has unknown key {key!r}")
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("value", [5, [1, 2]], ids=["number", "list"])
@pytest.mark.parametrize("section", ["phy", "net", "sim", "sim.arrivals", "sim.updates"])
def test_non_object_spec_section_is_bad_config(tmp_path, capsys, section, value):
    doc = json.loads(json.dumps(SIM_SPEC))
    *parents, last = section.split(".")
    target = doc["params"]
    for part in parents:
        target = target[part]
    target[last] = value
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"bad-config: {section} must be a JSON object\n"
    assert not list(out.glob("*.csv"))


SIMULATE_DOC = {
    "name": "one_point",
    "kind": "simulate",
    "params": {"phy": SIM_SPEC["params"]["phy"], "net": SIM_SPEC["params"]["net"],
               "sim": {"slots": 400, "realizations": 1, "side": 40.0}},
}
OPTIMIZE_DOC = {
    "name": "best",
    "kind": "optimize",
    "params": {"phy": {"alpha": 3.8, "r": 3.0, "snr_db": 20.0, "eps": 1e-6,
                       "target_rate": 0.825, "bits_per_unit": 100},
               "net": {"density": 0.01, "N": 1, "B": 100, "xi": 0.5, "eta": 0.5}},
}


def _with(doc, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return doc


@pytest.mark.parametrize("doc, key", [
    (_with(SIMULATE_DOC, lambda d: d.update(sweep={"name": "B", "values": [10, 30]})), "sweep"),
    (_with(THRESHOLD_DOC, lambda d: d.update(sweep={"name": "N", "values": [1, 2]})), "sweep"),
    (_with(STEADY_DOC, lambda d: d.update(swep={"name": "B", "values": [4, 8]})), "swep"),
    (_with(SIMULATE_DOC, lambda d: d["params"].update(formula="large_buffer")), "formula"),
    (_with(OPTIMIZE_DOC, lambda d: d["params"].update(sim=SIMULATE_DOC["params"]["sim"])), "sim"),
    (_with(STEADY_DOC, lambda d: d.update(sweep={"name": "B", "values": [4, 8]})), "sweep"),
    (_with(THRESHOLD_DOC, lambda d: d["params"].update(eps_value=[1e-2])), "eps_value"),
], ids=["simulate-sweep", "threshold-sweep", "top-level-typo", "simulate-formula",
        "optimize-sim", "steady-sweep", "threshold-eps_value"])
def test_stray_spec_key_is_bad_config(tmp_path, capsys, doc, key):
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad-config: ") and repr(key) in err
    assert not list(out.glob("*.csv"))


def test_arrivals_that_never_come_are_bad_config(tmp_path, capsys):
    # zero mean arrival rate: the default warmup takes half the horizon and
    # the run, delivering nothing, is refused rather than written
    doc = _with(SIMULATE_DOC, lambda d: d["params"]["sim"].update(
        arrivals={"type": "binomial", "e_max": 4, "p": 0.0}))
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_known_spec_keys_run(tmp_path):
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, SIM_SPEC)), "--out", str(out), "--quiet"]) == 0
    assert (out / "keys.csv").exists()


@pytest.mark.parametrize("formula", ["small_buffer", "greedy", "mystery"])
def test_unknown_formula_is_bad_config(tmp_path, capsys, formula):
    doc = json.loads(json.dumps(SIM_SPEC))
    del doc["params"]["sim"]
    doc["params"]["formula"] = formula
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad-config: ") and "'general' or 'large_buffer'" in err
    assert not list(out.glob("*.csv"))


def test_nan_density_is_bad_config(tmp_path, capsys):
    recipe = Path(__file__).resolve().parents[1] / "recipes" / "update_rate_ecr.json"
    doc = json.loads(recipe.read_text())
    doc["params"]["net"]["density"] = math.nan
    spec = tmp_path / "nan.json"
    spec.write_text(json.dumps(doc))  # json writes the bare NaN token
    out = tmp_path / "out"
    assert main(["--spec", str(spec), "--out", str(out), "--quiet"]) == 2
    assert "density" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_nan_target_rate_is_bad_config(tmp_path, capsys):
    doc = {"name": "nan_rate", "kind": "threshold",
           "params": {"bits_per_unit": 100, "target_rate": math.nan, "n_values": [1, 2]}}
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 2
    assert "target_rate" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_infinite_sweep_value_is_bad_config(tmp_path, capsys):
    doc = dict(STEADY_DOC, kind="aoi_curve", sweep={"name": "B", "values": [8, math.inf]})
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 2
    assert "values" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_cli_loads_no_scipy(tmp_path):
    # a fresh interpreter, so no module imported by the test suite leaks in;
    # it runs in the directory holding the package, which `-c` puts on sys.path
    code = (
        "import json, sys\n"
        "from ehaoi.cli import main\n"
        "status = main(['--spec', sys.argv[1], '--out', sys.argv[2], '--quiet'])\n"
        "print(json.dumps([status, sorted(m for m in sys.modules if m.startswith('scipy'))]))\n"
    )
    spec = write_spec(tmp_path, THRESHOLD_DOC)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(spec), str(tmp_path / "out")],
        cwd=Path(ehaoi.__file__).parents[1], capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]


def test_steady_state_does_not_depend_on_blas_threads(tmp_path):
    # a B = 2500 chain, large enough that a threaded dense solve splits its
    # work; fresh interpreters, since the BLAS reads its thread count at import
    doc = {"name": "steady", "kind": "steady_state",
           "params": {"net": {"density": 0.01, "N": 3, "B": 2500, "xi": 0.6934, "eta": 0.3356}}}
    spec = write_spec(tmp_path, doc)
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "ehaoi.cli", "--spec", str(spec), "--out", str(out), "--quiet"],
            cwd=Path(ehaoi.__file__).parents[1], capture_output=True, text=True, timeout=120,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        csvs.append((out / "steady.csv").read_bytes())
    assert csvs[0].count(b"\n") == 2502
    assert csvs[1] == csvs[0]


CURVE_PHY = {"alpha": 3.8, "r": 3.0, "snr_db": 20.0, "eps": 1e-6,
             "target_rate": 0.825, "bits_per_unit": 100}


@pytest.mark.parametrize("section, key, value, named", [
    ("net", "N", 2.9, "net.N"),
    ("net", "B", 30.7, "net.B"),
    ("sweep", "values", [2.5, 3.0], "sweep value of N"),
    ("sim", "slots", 400.5, "sim.slots"),
], ids=["net.N", "net.B", "sweep", "sim.slots"])
def test_fractional_integer_field_is_bad_config(tmp_path, capsys, section, key, value, named):
    doc = {
        "name": "trunc",
        "kind": "aoi_curve",
        "params": {"phy": CURVE_PHY, "net": {"density": 0.01, "N": 2, "B": 30, "xi": 0.5, "eta": 0.3},
                   "sim": {"slots": 400, "realizations": 1, "side": 40.0}},
        "sweep": {"name": "N", "values": [2.0, 3.0]},
    }
    (doc if section == "sweep" else doc["params"])[section][key] = value
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 2
    assert f"{named} must be an integer" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_simulate_without_deliveries_is_bad_config(tmp_path, capsys):
    # 4 slots at xi = 0.1 with N = 3: no node gathers a packet's worth of energy
    doc = {
        "name": "starved",
        "kind": "simulate",
        "params": {"phy": CURVE_PHY, "net": {"density": 0.01, "N": 3, "B": 30, "xi": 0.1, "eta": 0.3},
                   "sim": {"slots": 4, "realizations": 1, "side": 20.0}},
    }
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "empirical_mu" in err and "no attempt or no delivery" in err
    assert not list(out.glob("*.csv"))


def test_overflowing_success_moment_is_out_of_regime(tmp_path, capsys):
    doc = {
        "name": "dense",
        "kind": "aoi_curve",
        "params": {"phy": CURVE_PHY, "net": {"density": 50, "N": 2, "B": 30, "xi": 0.5, "eta": 0.3}},
        "sweep": {"name": "B", "values": [30]},
    }
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 3
    assert "exponent" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_main_happy_path(tmp_path, capsys):
    path = write_spec(tmp_path, STEADY_DOC, "ok.json")
    assert main(["--spec", str(path), "--out", str(tmp_path), "--quiet"]) == 0
    assert (tmp_path / "steady_demo.csv").exists()
    assert (tmp_path / "steady_demo.config.json").exists()


def test_spec_validation():
    with pytest.raises(BadConfig):
        ExperimentSpec.from_dict({"kind": "aoi_curve", "sweep": {"name": "B", "values": []}})
    with pytest.raises(BadConfig):
        ExperimentSpec.from_dict({"kind": "aoi_curve", "sweep": {"name": "B", "values": [math.nan]}})
    with pytest.raises(BadConfig):
        ExperimentSpec.from_dict({"kind": "nope"})


def test_shipped_recipes_parse():
    recipe_dir = Path(__file__).resolve().parents[1] / "recipes"
    recipes = sorted(recipe_dir.glob("*.json"))
    assert len(recipes) >= 6
    for path in recipes:
        spec = ExperimentSpec.from_dict(json.loads(path.read_text()), fallback_name=path.stem)
        assert spec.kind in ("steady_state", "threshold", "aoi_curve", "optimize", "simulate")


@pytest.mark.slow
def test_shipped_simulation_recipe_runs(tmp_path):
    recipe = Path(__file__).resolve().parents[1] / "recipes" / "aoi_vs_buffer.json"
    doc = json.loads(recipe.read_text())
    # shrink the Monte Carlo budget for the smoke run
    doc["params"]["sim"]["slots"] = 2000
    doc["params"]["sim"]["realizations"] = 2
    doc["sweep"]["values"] = [3, 9, 30]
    paths = run_experiment(ExperimentSpec.from_dict(doc), out_dir=tmp_path, quiet=True)
    header, rows = read_csv(paths[0])
    assert len(rows) == 3
    assert all(float(r[2]) > 0 for r in rows)
