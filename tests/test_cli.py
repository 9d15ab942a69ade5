"""CLI harness: spec parsing, CSV contracts, reproducibility, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ehaoi
from ehaoi.cli import _MEASURED, ExperimentSpec, main, run_experiment
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
    assert json.loads(paths[1].read_text())["kind"] == "steady_state"


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
    assert main(["--spec", str(write_spec(tmp_path, {"name": "k", "kind": "mystery"}, "k.json"))]) == 2
    assert capsys.readouterr().err.startswith("bad-config: kind ")
    # bad-config: missing section
    doc = {"name": "m", "kind": "aoi_curve", "params": {}, "sweep": {"name": "B", "values": [2]}}
    assert main(["--spec", str(write_spec(tmp_path, doc, "m.json"))]) == 2
    assert capsys.readouterr().err.startswith("bad-config: params is missing ")
    # out-of-regime: saturated access (xi = eta = 1, N = 1 under interference)
    doc = {
        "name": "s",
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


def test_undecodable_spec_is_bad_config(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"name": "caf\xe9"}')
    assert main(["--spec", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("bad-config: ")


def test_value_error_of_a_model_layer_is_not_bad_config(tmp_path, monkeypatch):
    # a ValueError after the configs are built is a fault, not a bad spec
    def faulty(cfg):
        raise ValueError("stationary mass is 0.5, expected 1")

    monkeypatch.setattr("ehaoi.cli.steady_state", faulty)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="stationary mass"):
        main(["--spec", str(write_spec(tmp_path, STEADY_DOC)), "--out", str(out), "--quiet"])
    assert not list(out.glob("*.csv"))


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
               "sim": {"slots": 400, "realizations": 1, "side": 40.0, "seed": 0}},
    "sweep": {"name": "B", "values": [30]},
}
# only the simulate kind reads arrival and update patterns
PATTERN_SPEC = {
    "name": "patterns",
    "kind": "simulate",
    "params": {"phy": SIM_SPEC["params"]["phy"], "net": SIM_SPEC["params"]["net"],
               "sim": {**SIM_SPEC["params"]["sim"],
                       "arrivals": {"type": "binomial", "e_max": 4, "p": 0.1},
                       "updates": {"type": "periodic", "period": 3}}},
}


@pytest.mark.parametrize("section, key, value", [
    ("sim", "census", 0.25),
    ("sim", "boundary", "plane"),
    ("net", "desnity", 0.02),
    ("phy", "snr", 13.0),
    ("sim.arrivals", "xi", 0.5),
], ids=["census", "boundary", "net-typo", "phy-typo", "pattern-field"])
def test_unknown_spec_key_is_bad_config(tmp_path, capsys, section, key, value):
    doc = json.loads(json.dumps(PATTERN_SPEC))
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
    doc = json.loads(json.dumps(PATTERN_SPEC))
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
               "sim": {"slots": 400, "realizations": 1, "side": 40.0, "seed": 0}},
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


# at eta 1e-9, no node of the 40 m torus (about 16 links) is expected to
# update in 2 x 400 slots, so the measured horizon sees no attempt
NO_UPDATES = {"net": {**SIM_SPEC["params"]["net"], "eta": 1e-9},
              "sim": {"slots": 400, "realizations": 2, "side": 40.0, "seed": 0}}
BERNOULLI = {"arrivals": {"type": "bernoulli", "xi": 0.5}, "updates": {"type": "bernoulli", "eta": 0.5}}


def _sim_with(doc, **patterns):
    return _with(doc, lambda d: d["params"]["sim"].update(patterns))


@pytest.mark.parametrize("doc, key", [
    (_with(SIMULATE_DOC, lambda d: d.update(sweep={"name": "B", "values": [10, 30]})), "sweep"),
    (_with(THRESHOLD_DOC, lambda d: d.update(sweep={"name": "N", "values": [1, 2]})), "sweep"),
    (_with(STEADY_DOC, lambda d: d.update(swep={"name": "B", "values": [4, 8]})), "swep"),
    (_with(SIMULATE_DOC, lambda d: d["params"].update(formula="large_buffer")), "formula"),
    (_with(OPTIMIZE_DOC, lambda d: d["params"].update(sim=SIMULATE_DOC["params"]["sim"])), "sim"),
    (_with(STEADY_DOC, lambda d: d.update(sweep={"name": "B", "values": [4, 8]})), "sweep"),
    (_with(THRESHOLD_DOC, lambda d: d["params"].update(eps_value=[1e-2])), "eps_value"),
    (_with(THRESHOLD_DOC, lambda d: d["params"].update(eps=1e-3)), "eps"),
    (_with(SIMULATE_DOC, lambda d: d["params"]["phy"].update(tx_snr=20.0)), "tx_snr"),
    (_with(SIMULATE_DOC, lambda d: d["params"]["phy"].pop("snr_db")), "snr_db"),
    # net.xi and net.eta are the Bernoulli rates; patterns are only for simulate
    (_sim_with(SIMULATE_DOC, arrivals=BERNOULLI["arrivals"]), "bernoulli"),
    (_sim_with(SIMULATE_DOC, updates=BERNOULLI["updates"]), "bernoulli"),
    (_sim_with(SIM_SPEC, arrivals=BERNOULLI["arrivals"]), "arrivals"),
    (_sim_with(SIM_SPEC, updates=BERNOULLI["updates"]), "updates"),
    (_sim_with(SIM_SPEC, arrivals=PATTERN_SPEC["params"]["sim"]["arrivals"]), "arrivals"),
    (_sim_with(SIM_SPEC, updates=PATTERN_SPEC["params"]["sim"]["updates"]), "updates"),
    (_with(STEADY_DOC, lambda d: d.update(output="elsewhere.csv")), "output"),
], ids=["simulate-sweep", "threshold-sweep", "top-level-typo", "simulate-formula",
        "optimize-sim", "steady-sweep", "threshold-eps_value", "threshold-eps", "phy-tx_snr",
        "phy-without-snr_db", "simulate-bernoulli-arrivals", "simulate-bernoulli-updates",
        "curve-bernoulli-arrivals", "curve-bernoulli-updates", "curve-arrivals", "curve-updates",
        "top-level-output"])
def test_stray_spec_key_is_bad_config(tmp_path, capsys, doc, key):
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad-config: ") and repr(key) in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("key, value", [
    ("n_values", []),
    ("eps_values", []),
    ("n_values", "12"),
    ("eps_values", "12"),
], ids=["n_values", "eps_values", "n_values-string", "eps_values-string"])
def test_empty_threshold_list_is_bad_config(tmp_path, capsys, key, value):
    # a string is not iterated character by character into a list
    doc = _with(THRESHOLD_DOC, lambda d: d["params"].update({key: value}))
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad-config: ") and key in err
    assert not list(out.glob("*.csv"))


def test_arrivals_that_never_come_are_bad_config(tmp_path, capsys):
    # zero mean arrival rate: the default warmup takes half the horizon and
    # the run, delivering nothing, is refused rather than written
    doc = _with(SIMULATE_DOC, lambda d: d["params"]["sim"].update(
        arrivals={"type": "binomial", "e_max": 4, "p": 0.0}))
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 2
    assert "non-finite" in capsys.readouterr().err


MARKOV = {"type": "markov", "xi_good": 0.8, "xi_bad": 0.2, "p_good_to_bad": 0.1, "p_bad_to_good": 0.1}


@pytest.mark.parametrize("section, pattern, named", [
    ("arrivals", {**MARKOV, "p_good_to_bad": 0.0, "p_bad_to_good": 0.0}, "never switches"),
    ("arrivals", {**MARKOV, "xi_good": 1.2}, "xi_good"),
    ("arrivals", {**MARKOV, "p_bad_to_good": -0.1}, "p_bad_to_good"),
    ("arrivals", {"type": "binomial", "e_max": 0, "p": 0.1}, "e_max must be >= 1"),
    ("arrivals", {"type": "binomial", "e_max": 4, "p": 1.5}, "probabilities in [0, 1]: p"),
    ("arrivals", {**MARKOV, "xi_bad": 2.0}, "probabilities in [0, 1]: xi_bad"),
    ("updates", {"type": "periodic", "period": 0}, "period must be >= 1"),
    ("arrivals", {"type": "binomial", "e_max": 4, "p": -0.5}, "probabilities in [0, 1]: p"),
], ids=["markov-frozen", "markov-xi", "markov-p", "binomial-e_max", "binomial-p", "markov-xi_bad",
        "periodic-zero", "binomial-p-negative"])
def test_out_of_range_pattern_field_is_bad_config(tmp_path, capsys, section, pattern, named):
    doc = _with(SIMULATE_DOC, lambda d: d["params"]["sim"].update({section: pattern}))
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad-config: ") and named in err
    assert not list(out.glob("*.csv"))


def test_known_spec_keys_run(tmp_path):
    out = tmp_path / "out"
    for doc in (SIM_SPEC, PATTERN_SPEC):
        assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 0
    assert (out / "keys.csv").exists() and (out / "patterns.csv").exists()


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


CURVE_DOC = {
    "name": "curve",
    "kind": "aoi_curve",
    "params": {"phy": {"alpha": 3.8, "r": 3.0, "snr_db": 13.0, "eps": 1e-6, "theta": 1.3},
               "net": {"density": 0.01, "N": 2, "B": 30, "xi": 0.5, "eta": 0.5}},
    "sweep": {"name": "B", "values": [8, 30]},
}


# names a spec may not give: each would write outside --out, a hidden or
# nameless file, or no file at all
UNSAFE_NAMES = {"parent": "../escaped", "empty": "", "directory": "a/b", "dot-dot": "..", "dot": ".",
                "nul": "x\u0000y"}


@pytest.mark.parametrize("doc, named", [
    (_with(STEADY_DOC, lambda d: d.pop("name")), "spec is missing required key 'name'"),
    (_with(SIM_SPEC, lambda d: d["params"]["sim"].pop("seed")), "sim is missing required key 'seed'"),
    (_with(SIMULATE_DOC, lambda d: d["params"]["sim"].pop("seed")), "sim is missing required key 'seed'"),
    *((_with(STEADY_DOC, lambda d, name=name: d.update(name=name)), "name must be a plain file name")
      for name in UNSAFE_NAMES.values()),
], ids=["no-name", "curve-sim-without-seed", "simulate-sim-without-seed", *(f"name-{i}" for i in UNSAFE_NAMES)])
def test_refused_spec_writes_nothing(tmp_path, capsys, doc, named):
    # the spec alone names the files and seeds the simulator, so it is
    # refused before any directory or file is made, also outside --out
    spec = write_spec(tmp_path, doc)
    assert main(["--spec", str(spec), "--out", str(tmp_path / "run" / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"bad-config: {named}")
    assert list(tmp_path.iterdir()) == [spec]


def test_sidecar_restates_the_recipe(tmp_path, monkeypatch):
    # the sidecar holds the spec and no value of the run, so a stand-in
    # simulator, measuring 1.0 everywhere, keeps the test fast
    monkeypatch.setattr("ehaoi.sim.run", lambda *args: SimpleNamespace(**dict.fromkeys(_MEASURED, 1.0)))
    for path in sorted(RECIPES.glob("*.json")):
        doc = json.loads(path.read_text())
        assert main(["--spec", str(path), "--out", str(tmp_path), "--quiet"]) == 0
        sidecar = json.loads((tmp_path / f"{doc['name']}.config.json").read_text())
        assert set(sidecar) == {"name", "kind", "library_version", "params", "sweep", "outputs"}, path
        assert [sidecar[key] for key in ("name", "kind", "params")] == [doc["name"], doc["kind"], doc["params"]]
        assert sidecar["outputs"] == [f"{doc['name']}.csv"]


def test_analytic_specs_load_no_numpy(tmp_path):
    # fresh interpreters, so no module imported by the test suite leaks in;
    # each runs in the directory holding the package, which `-c` puts on sys.path
    code = (
        "import json, sys\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith(('numpy', 'scipy')))\n"
        "import ehaoi\n"
        "bare = loaded()\n"
        "from ehaoi.cli import main\n"
        "status = main(['--spec', sys.argv[1], '--out', sys.argv[2], '--quiet'])\n"
        "print(json.dumps([bare, status, loaded()]))\n"
    )
    docs = {
        "threshold": THRESHOLD_DOC,
        "optimize": OPTIMIZE_DOC,
        "curve-general": CURVE_DOC,
        "curve-large_buffer": _with(CURVE_DOC, lambda d: d["params"].update(formula="large_buffer")),
        "steady_state": STEADY_DOC,
        "simulate": SIMULATE_DOC,
    }
    modules = {}
    for name, doc in docs.items():
        proc = subprocess.run(
            [sys.executable, "-c", code, str(write_spec(tmp_path, doc, f"{name}.json")),
             str(tmp_path / name)],
            cwd=Path(ehaoi.__file__).parents[1], capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        bare, status, modules[name] = json.loads(proc.stdout)
        assert bare == [] and status == 0, name
    # the probe does see numpy once a spec runs the simulator
    assert "numpy" in modules.pop("simulate")
    assert not any(modules.values()), modules


def test_simulator_names_are_reexported():
    from ehaoi import SimConfig, SimReport, run, sample_topology
    from ehaoi import sim

    assert (SimConfig, SimReport, run, sample_topology) == (
        sim.SimConfig, sim.SimReport, sim.run, sim.sample_topology)
    with pytest.raises(AttributeError, match="no attribute 'simulate'"):
        ehaoi.simulate  # noqa: B018


def test_steady_state_does_not_depend_on_blas_threads(tmp_path):
    # a B = 2500 chain, large enough that a threaded BLAS call would split
    # its work; fresh interpreters, since the BLAS reads its thread count at import
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


TRUNC_DOC = {
    "name": "trunc",
    "kind": "aoi_curve",
    "params": {"phy": CURVE_PHY, "net": {"density": 0.01, "N": 2, "B": 30, "xi": 0.5, "eta": 0.3},
               "sim": {"slots": 400, "realizations": 1, "side": 40.0, "seed": 0}},
    "sweep": {"name": "N", "values": [2.0, 3.0]},
}


@pytest.mark.parametrize("section, key, value, named", [
    ("net", "N", 2.9, "net.N"),
    ("net", "B", 30.7, "net.B"),
    ("sweep", "values", [2.5, 3.0], "sweep value of N"),
    ("sim", "slots", 400.5, "sim.slots"),
], ids=["net.N", "net.B", "sweep", "sim.slots"])
def test_fractional_integer_field_is_bad_config(tmp_path, capsys, section, key, value, named):
    doc = json.loads(json.dumps(TRUNC_DOC))
    (doc if section == "sweep" else doc["params"])[section][key] = value
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 2
    assert f"{named} must be an integer" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_n_sweep_solves_theta_only_at_the_swept_n(tmp_path):
    # the base N = 1 gives a blocklength of 50, below the floor of 100;
    # the threshold is solved at N = 2 and 3 only, so the spec runs
    doc = {"name": "floor", "kind": "aoi_curve",
           "params": {"phy": {**CURVE_PHY, "bits_per_unit": 50},
                      "net": {"density": 0.01, "N": 1, "B": 30, "xi": 0.5, "eta": 0.3}},
           "sweep": {"name": "N", "values": [2, 3]}}
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 0
    _, rows = read_csv(out / "floor.csv")
    assert [row[0] for row in rows] == ["2", "3"]


THETA_OR_CODE = {"aoi_curve": CURVE_DOC, "optimize": OPTIMIZE_DOC, "simulate": SIMULATE_DOC}


@pytest.mark.parametrize("code", [
    {"target_rate": 0.825, "bits_per_unit": 100}, {"target_rate": 0.825}, {"bits_per_unit": 100},
], ids=["code", "target_rate", "bits_per_unit"])
@pytest.mark.parametrize("kind", sorted(THETA_OR_CODE))
def test_theta_with_a_code_is_bad_config(tmp_path, capsys, kind, code):
    # a code sets theta at each point's N, so a given theta would be ignored
    phy = {"alpha": 3.8, "r": 3.0, "snr_db": 20.0, "eps": 1e-6, "theta": 1.3, **code}
    doc = _with(THETA_OR_CODE[kind], lambda d: d["params"].update(phy=phy))
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad-config: phy.theta ") and "not both" in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("kind", sorted(THETA_OR_CODE))
def test_snr_past_the_float_range_is_a_noise_free_link(tmp_path, kind):
    # 400 dB already leaves no trace of noise in any formula or draw
    csvs = []
    for snr_db in (400.0, 4000.0):
        doc = _with(THETA_OR_CODE[kind], lambda d: d["params"]["phy"].update(snr_db=snr_db))
        out = tmp_path / str(snr_db)
        assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 0
        csvs.append((out / f"{doc['name']}.csv").read_bytes())
    assert csvs[1] == csvs[0]


@pytest.mark.parametrize("section, key, value, named", [
    ("net", "N", True, "net.N"),
    ("net", "xi", True, "net.xi"),
    ("net", "density", "0.01", "net.density"),
    ("phy", "bits_per_unit", "100", "phy.bits_per_unit"),
    ("sweep", "values", [True], "sweep.values"),
    ("sweep", "values", "48", "sweep.values"),
    (None, "name", ["trunc"], "name"),
], ids=["net.N-bool", "net.xi-bool", "net.density-string", "phy.bits_per_unit-string",
        "sweep-bool", "sweep-string", "name-list"])
def test_mistyped_field_is_bad_config(tmp_path, capsys, section, key, value, named):
    # a bool or a numeric string is not coerced into a number, nor a
    # string iterated into a list
    doc = json.loads(json.dumps(TRUNC_DOC))
    target = doc if section is None else (doc if section == "sweep" else doc["params"])[section]
    target[key] = value
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"bad-config: {named} must be ")
    assert not list(out.glob("*.csv"))


def test_simulate_without_deliveries_is_bad_config(tmp_path, capsys):
    # 4 slots at xi = 0.1 with N = 3: no node gathers a packet's worth of energy
    doc = {
        "name": "starved",
        "kind": "simulate",
        "params": {"phy": CURVE_PHY, "net": {"density": 0.01, "N": 3, "B": 30, "xi": 0.1, "eta": 0.3},
                   "sim": {"slots": 4, "realizations": 1, "side": 20.0, "seed": 0}},
    }
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "empirical_mu" in err and "no attempt or no delivery" in err
    assert not list(out.glob("*.csv"))


def test_underflowing_path_loss_is_out_of_regime(tmp_path, capsys):
    # 3^-1e300 is 0.0: no horizon brings a delivery, and no numpy warning may fire on the way
    doc = {
        "name": "far",
        "kind": "simulate",
        "params": {"phy": {**CURVE_PHY, "alpha": 1e300},
                   "net": {"density": 0.01, "N": 2, "B": 10, "xi": 0.5, "eta": 0.5},
                   "sim": {"slots": 400, "realizations": 2, "side": 40.0, "seed": 3}},
    }
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 3
    assert "path loss" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_link_longer_than_half_the_torus_is_bad_config(tmp_path, capsys):
    # the receiver would wrap around the 40 m torus to a shorter distance than r
    doc = _with(SIMULATE_DOC, lambda d: d["params"]["phy"].update(r=1e200))
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad-config: ") and "half the torus side" in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("doc, named", [
    (_with(OPTIMIZE_DOC, lambda d: d["params"]["phy"].update(bits_per_unit=50)),
     "blocklength 50 below validity floor 100"),
    (_with(OPTIMIZE_DOC, lambda d: d["params"].update(phy=SIM_SPEC["params"]["phy"])),
     "phy.target_rate and phy.bits_per_unit are required"),
    (_with(SIM_SPEC, lambda d: d.update(sweep={"name": "density", "values": [0.01, 0.0001]})),
     "expected node count below one"),
    (_with(SIMULATE_DOC, lambda d: d["params"]["net"].update(density=0.0001)),
     "expected node count below one"),
    (_with(SIM_SPEC, lambda d: d["params"].update(NO_UPDATES)), "no attempt or no delivery"),
    (_with(SIMULATE_DOC, lambda d: d["params"].update(NO_UPDATES)), "no attempt or no delivery"),
    (_with(CURVE_DOC, lambda d: d["params"]["phy"].pop("theta")),
     "phy.target_rate and phy.bits_per_unit are required"),
    (_with(CURVE_DOC, lambda d: d["params"]["phy"].update(snr_db=-4000.0)), "tx_snr"),
], ids=["optimize-blocklength-floor", "optimize-without-code", "curve-sparse-density",
        "simulate-sparse-density", "curve-without-updates", "simulate-without-updates",
        "curve-without-theta-or-code", "curve-snr-underflow"])
def test_spec_value_refused_by_the_library_is_bad_config(tmp_path, capsys, doc, named):
    # the optimizer's scan starts at N = 1, the torus must hold a link on
    # average, a simulated point must see an attempt and a delivery, and
    # 10^-400 underflows to a zero transmit SNR
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad-config: ") and named in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("doc", [
    _with(THRESHOLD_DOC, lambda d: d["params"].update(target_rate=520)),
    _with(OPTIMIZE_DOC, lambda d: d["params"]["phy"].update(target_rate=600)),
], ids=["threshold", "optimize"])
def test_target_rate_past_the_float_range_is_out_of_regime(tmp_path, capsys, doc):
    # the rate at the threshold squares 1 + gamma ~ 2^520, past any float
    out = tmp_path / "out"
    assert main(["--spec", str(write_spec(tmp_path, doc)), "--out", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("out-of-regime: effective_threshold_exact(CodingConfig(k=100, N=1, ")
    assert "leaves the float range" in err
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


RECIPES = Path(__file__).resolve().parents[1] / "recipes"
# every spec that runs without the simulator, so no draw can start a long run
ANALYTIC_DOCS = [doc for doc in (json.loads(p.read_text()) for p in sorted(RECIPES.glob("*.json")))
                 if "sim" not in doc["params"]] + [THRESHOLD_DOC, STEADY_DOC]
# a wrongly typed value for any field; none is a large size, which would allocate
MUTANTS = {"string": "x", "bool": True, "null": None, "list": [], "object": {}, "string list": ["x"]}
TEXT_KEYS = {"name", "kind", "formula"}  # a string is the right type for these
REQUIRED = {("name",), ("kind",), ("params", "phy"), ("params", "net"), ("params", "bits_per_unit"),
            ("params", "target_rate"), ("sweep", "name"), ("sweep", "values"),
            *(("params", "phy", key) for key in ("alpha", "r", "snr_db", "eps")),
            *(("params", "net", key) for key in ("density", "N", "B", "xi", "eta"))}


def _paths(doc, prefix=()):
    """The path of every field of ``doc``, the sections' own included."""
    for key, value in doc.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _paths(value, (*prefix, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _label(path):
    """How a bad-config message names the field or section at ``path``."""
    if not path:
        return "spec"
    return ".".join(path[1:] if path[0] == "params" and len(path) > 1 else path)


# the profile sets the budget (tests/conftest.py): 200 examples under "replay"
@settings(max_examples=2 * settings.default.max_examples)
@given(data=st.data())
def test_mutated_spec_is_bad_config(data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from(ANALYTIC_DOCS), label="doc")))
    paths = list(_paths(doc))
    how = data.draw(st.sampled_from([*MUTANTS, "drop", "add"]), label="mutation")
    if how == "drop":
        path = data.draw(st.sampled_from([p for p in paths if p in REQUIRED]), label="path")
        del _at(doc, path[:-1])[path[-1]]
    elif how == "add":
        sections = [(), *(p for p in paths if isinstance(_at(doc, p), dict))]
        path = (*data.draw(st.sampled_from(sections), label="section"), "surplus")
        _at(doc, path[:-1])[path[-1]] = 1.0
    else:
        fields = [p for p in paths if how != "string" or p[-1] not in TEXT_KEYS]
        path = data.draw(st.sampled_from(fields), label="path")
        _at(doc, path[:-1])[path[-1]] = MUTANTS[how]
    named = _label(path if how in MUTANTS else path[:-1])
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        spec = write_spec(Path(tmp), doc)
        with contextlib.redirect_stderr(err):  # an exception escaping main fails the test
            status = main(["--spec", str(spec), "--out", str(Path(tmp) / "out"), "--quiet"])
        assert not list(Path(tmp).glob("out/*.csv"))
    message = err.getvalue()
    assert status == 2 and message.startswith(f"bad-config: {named} "), message
    assert how in MUTANTS or repr(path[-1]) in message, message


_UNIT = st.floats(0.0, 1.0, exclude_min=True)
_SWEEPS = {"density": st.floats(0.0, 0.5), "N": st.integers(1, 8), "B": st.integers(1, 200),
           "xi": _UNIT, "eta": _UNIT}


@st.composite
def _net(draw):
    n = draw(st.integers(1, 8))
    return {"density": draw(_SWEEPS["density"]), "N": n, "B": draw(st.integers(n, 200)),
            "xi": draw(_UNIT), "eta": draw(_UNIT)}


# the exact threshold leaves the float range from about 512 bit/use on
_RATE = st.one_of(st.floats(0.01, 4.0), st.floats(4.0, 2000.0))
_CHANCE = st.floats(-0.25, 1.25)  # a pattern's probability, in range or not
_ARRIVALS = {"binomial": {"e_max": st.integers(0, 4), "p": _CHANCE},
             "markov": {key: _CHANCE for key in ("xi_good", "xi_bad", "p_good_to_bad", "p_bad_to_good")}}
_UPDATES = {"periodic": {"period": st.integers(0, 5)}}


# now and then an SNR past the float range on either side: 10^(snr_db / 10)
# is then inf, the noise-free link, or 0, which is refused
_SNR_DB = {0: st.floats(3083.0, 1e300), 1: st.floats(-1e300, -3083.0)}


@st.composite
def _phy_doc(draw, coded):
    snr_db = _SNR_DB.get(draw(st.integers(0, 9)), st.floats(-10.0, 40.0))
    phy = {"alpha": draw(st.floats(2.05, 5.0)), "r": draw(st.floats(0.5, 10.0)),
           "snr_db": draw(snr_db), "eps": draw(st.floats(1e-7, 0.5))}
    if coded:
        phy.update(target_rate=draw(_RATE), bits_per_unit=draw(st.integers(50, 400)))
    if not coded or draw(st.integers(0, 9)) == 0:  # theta beside a code is refused
        phy["theta"] = draw(st.floats(0.05, 20.0))
    return phy


@st.composite
def _pattern_doc(draw, patterns):
    name = draw(st.sampled_from(sorted(patterns)))
    return {"type": name, **{key: draw(field) for key, field in patterns[name].items()}}


@st.composite
def _sim_doc(draw, patterns):
    """A small sim section: density 0.5 on a 25 m side holds about 300 links.

    Arrival and update patterns are drawn only if ``patterns``: the simulate
    kind reads them, aoi_curve simulates the Bernoulli model it analyses.
    """
    sim = {"slots": draw(st.integers(1, 200)), "realizations": draw(st.integers(1, 3)),
           "side": draw(st.floats(1.0, 25.0)), "seed": draw(st.integers(0, 1000))}
    fields = {"warmup": st.integers(0, 200)}
    if patterns:
        fields.update(arrivals=_pattern_doc(_ARRIVALS), updates=_pattern_doc(_UPDATES))
    for key, field in fields.items():
        if draw(st.booleans()):
            sim[key] = draw(field)
    return sim


@st.composite
def _sweep(draw):
    name = draw(st.sampled_from(sorted(_SWEEPS)))
    return {"name": name, "values": draw(st.lists(_SWEEPS[name], min_size=1, max_size=5))}


# a plain file stem; one time in ten a name that must be refused instead
_STEM = st.from_regex(r"[A-Za-z0-9_][A-Za-z0-9_.-]{0,15}", fullmatch=True)


@st.composite
def _drawn_spec(draw):
    """A well-typed spec of any kind, its values in range or not; sizes stay small."""
    unsafe = draw(st.integers(0, 9)) == 0
    name = draw(st.sampled_from(sorted(UNSAFE_NAMES.values())) if unsafe else _STEM)
    kind = draw(st.sampled_from(["steady_state", "threshold", "aoi_curve", "optimize", "simulate"]))
    if kind == "steady_state":
        params = {"net": draw(_net())}
    elif kind == "threshold":
        params = {"bits_per_unit": draw(st.integers(50, 400)),
                  "target_rate": draw(_RATE),
                  "n_values": draw(st.lists(st.integers(1, 20), min_size=1, max_size=5)),
                  "eps_values": draw(st.lists(st.floats(1e-7, 0.5), min_size=1, max_size=5))}
    else:
        coded = kind == "optimize" or draw(st.booleans())
        params = {"phy": draw(_phy_doc(coded)), "net": draw(_net())}
        if kind == "aoi_curve":
            params["formula"] = draw(st.sampled_from(["general", "large_buffer"]))
        if kind == "simulate" or (kind == "aoi_curve" and draw(st.booleans())):
            params["sim"] = draw(_sim_doc(patterns=kind == "simulate"))
    doc = {"name": name, "kind": kind, "params": params}
    if kind == "aoi_curve" or (kind == "optimize" and draw(st.booleans())):
        doc["sweep"] = draw(_sweep())
    return doc


LABELS = {2: "bad-config: ", 3: "out-of-regime: ", 4: "non-convergence: "}


@settings(max_examples=3 * settings.default.max_examples // 2)  # 150 under "replay"
@given(doc=_drawn_spec())
def test_drawn_spec_exits_cleanly_with_finite_cells(doc):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        spec = write_spec(Path(tmp), doc)
        with contextlib.redirect_stderr(err):  # an exception escaping main fails the test
            status = main(["--spec", str(spec), "--out", str(Path(tmp) / "out"), "--quiet"])
        if doc["name"] in UNSAFE_NAMES.values():
            assert status == 2 and err.getvalue().startswith("bad-config: name "), err.getvalue()
            assert list(Path(tmp).iterdir()) == [spec]
        elif status == 0:
            _, rows = read_csv(Path(tmp) / "out" / f"{doc['name']}.csv")
            for cell in (cell for row in rows for cell in row):
                with contextlib.suppress(ValueError):  # an empty sim cell or a regime name
                    assert math.isfinite(float(cell)), (cell, doc)
        else:
            assert status in LABELS and err.getvalue().startswith(LABELS[status]), err.getvalue()
            assert not list(Path(tmp).glob("out/*.csv"))


def test_main_happy_path(tmp_path, capsys):
    path = write_spec(tmp_path, STEADY_DOC, "ok.json")
    assert main(["--spec", str(path), "--out", str(tmp_path), "--quiet"]) == 0
    assert (tmp_path / "steady_demo.csv").exists()
    assert (tmp_path / "steady_demo.config.json").exists()


def test_spec_validation():
    with pytest.raises(BadConfig):
        ExperimentSpec.from_dict({"name": "c", "kind": "aoi_curve", "sweep": {"name": "B", "values": []}})
    with pytest.raises(BadConfig):
        ExperimentSpec.from_dict({"name": "c", "kind": "aoi_curve", "sweep": {"name": "B", "values": [math.nan]}})
    with pytest.raises(BadConfig):
        ExperimentSpec.from_dict({"name": "c", "kind": "nope"})


def test_shipped_recipes_parse():
    recipe_dir = Path(__file__).resolve().parents[1] / "recipes"
    recipes = sorted(recipe_dir.glob("*.json"))
    assert len(recipes) >= 6
    for path in recipes:
        spec = ExperimentSpec.from_dict(json.loads(path.read_text()))
        assert spec.kind in ("steady_state", "threshold", "aoi_curve", "optimize", "simulate")


def test_analytic_recipes_reproduce_their_pinned_hashes(tmp_path):
    # recipes/analytic.sha256 pins the CSV of every recipe without a sim section
    lines = (RECIPES / "analytic.sha256").read_text().splitlines()
    pinned = {name: digest for digest, name in (line.split() for line in lines)}
    analytic = [p for p in sorted(RECIPES.glob("*.json")) if "sim" not in json.loads(p.read_text())["params"]]
    assert sorted(f"{p.stem}.csv" for p in analytic) == sorted(pinned)
    for path in analytic:
        assert main(["--spec", str(path), "--out", str(tmp_path), "--quiet"]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in pinned} == pinned


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
