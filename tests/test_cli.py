"""CLI harness: spec parsing, CSV contracts, reproducibility, exit codes."""

import csv
import json
import math

import pytest

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
    doc = {
        "name": "thr",
        "kind": "threshold",
        "params": {
            "bits_per_unit": 100,
            "target_rate": 0.825,
            "n_values": [1, 2, 5],
            "eps_values": [1e-2, 1e-6],
        },
    }
    paths = run_experiment(ExperimentSpec.from_dict(doc), out_dir=tmp_path, quiet=True)
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


def test_main_exit_codes(tmp_path, capsys):
    # io: missing file
    assert main(["--spec", str(tmp_path / "nope.json")]) == 5
    # bad-config: malformed json
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--spec", str(bad)]) == 2
    # bad-config: unknown kind
    assert main(["--spec", str(write_spec(tmp_path, {"kind": "mystery"}, "k.json"))]) == 2
    # bad-config: missing section
    doc = {"kind": "aoi_curve", "params": {}, "sweep": {"name": "B", "values": [2]}}
    assert main(["--spec", str(write_spec(tmp_path, doc, "m.json"))]) == 2
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
    assert "out-of-regime:" in err


def test_nan_density_is_bad_config(tmp_path, capsys):
    from pathlib import Path

    recipe = Path(__file__).resolve().parents[1] / "recipes" / "update_rate_ecr.json"
    doc = json.loads(recipe.read_text())
    doc["params"]["net"]["density"] = math.nan
    spec = tmp_path / "nan.json"
    spec.write_text(json.dumps(doc))  # json writes the bare NaN token
    out = tmp_path / "out"
    assert main(["--spec", str(spec), "--out", str(out), "--quiet"]) == 2
    assert "density" in capsys.readouterr().err
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
    from pathlib import Path

    recipe_dir = Path(__file__).resolve().parents[1] / "recipes"
    recipes = sorted(recipe_dir.glob("*.json"))
    assert len(recipes) >= 6
    for path in recipes:
        spec = ExperimentSpec.from_dict(json.loads(path.read_text()), fallback_name=path.stem)
        assert spec.kind in ("steady_state", "threshold", "aoi_curve", "optimize", "simulate")


@pytest.mark.slow
def test_shipped_simulation_recipe_runs(tmp_path):
    from pathlib import Path

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
