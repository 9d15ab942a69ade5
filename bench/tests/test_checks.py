"""Each output check accepts a correct output and rejects a planted error.

Correct outputs are written from the benchmark's own reference values in
the CLI's number format; the planted errors are the smallest ones the
checks are meant to catch.  Run with ``python3 -m pytest bench/tests``.
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import specs  # noqa: E402


def fmt(value) -> str:
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def spec_doc(workload: str, name: str, seed: int = 1) -> dict:
    return next(s.doc for s in specs.generate(workload, seed) if s.name == name)


def scaled(rows, row, column, factor):
    rows = [dict(r) for r in rows]
    rows[row][column] = fmt(float(rows[row][column]) * factor)
    return rows


def dense_law(n, b, xi, eta):
    """Stationary law by a dense solve of s P = s, sum(s) = 1."""
    P = np.zeros((b + 1, b + 1))
    for i in range(b + 1):
        if i < n:
            P[i, i] += 1 - xi
            P[i, i + 1] += xi
            continue
        if i < b:
            P[i, i] += (1 - eta) * (1 - xi)
            P[i, i + 1] += (1 - eta) * xi
        else:
            P[i, i] += 1 - eta
        P[i, i - n] += eta * (1 - xi)
        P[i, i - n + 1] += eta * xi
    A = P.T - np.eye(b + 1)
    A[-1, :] = 1.0
    rhs = np.zeros(b + 1)
    rhs[-1] = 1.0
    return np.linalg.solve(A, rhs)


# ---------------------------------------------------------------------------
# the reference values themselves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,b,xi,eta", [
    (1, 10, 0.5, 0.5), (1, 3, 0.97, 0.95), (2, 20, 0.55, 0.45), (3, 30, 0.8, 0.3),
    (3, 7, 0.8, 1.0), (5, 100, 0.3, 0.9), (2, 4, 1.0, 0.5),
])
def test_stationary_law_matches_dense_solve(n, b, xi, eta):
    law = checks.stationary_law(n, b, xi, eta)
    assert np.max(np.abs(law - dense_law(n, b, xi, eta))) < 1e-13
    assert checks.balance_residual(law, n, b, xi, eta) < 1e-14


def test_stationary_law_survives_deep_buffers():
    law = checks.stationary_law(3, 3000, 0.6, 0.3)
    assert abs(law.sum() - 1.0) < 1e-12
    assert checks.balance_residual(law, 3, 3000, 0.6, 0.3) < 1e-14


def test_interval_moments_of_a_greedy_single_unit_node():
    # eta = 1, N = 1: T is geometric with success probability xi
    xi = 0.4
    m1, m2 = checks.interval_moments(checks.stationary_law(1, 5, xi, 1.0), 1, xi, 1.0)
    assert m1 == pytest.approx(1 / xi, rel=1e-12)
    assert m2 == pytest.approx((2 - xi) / xi**2, rel=1e-12)


def test_threshold_meets_the_target_rate():
    theta = checks.threshold(100, 3, 0.825, 1e-6)
    qinv = checks.norm.isf(1e-6)
    assert checks.coding_rate(theta, 300, qinv) == pytest.approx(0.825, abs=1e-14)


# ---------------------------------------------------------------------------
# planted errors
# ---------------------------------------------------------------------------

def steady_rows(doc):
    net = doc["params"]["net"]
    law = checks.stationary_law(net["N"], net["B"], net["xi"], net["eta"])
    return [{"level": str(i), "closed_form": fmt(float(p)), "numeric": fmt(float(p)), "abs_diff": "0"}
            for i, p in enumerate(law)]


def test_steady_state_rejects_a_row_that_breaks_balance():
    doc = spec_doc("analytic_design", "steady_n2")
    rows = steady_rows(doc)
    assert checks.check_steady_state(doc, rows) == []
    # move 1e-8 of mass between two levels: the total stays 1, balance breaks
    bad = [dict(r) for r in rows]
    bad[10]["closed_form"] = fmt(float(rows[10]["closed_form"]) + 1e-8)
    bad[11]["closed_form"] = fmt(float(rows[11]["closed_form"]) - 1e-8)
    assert any("balance" in p for p in checks.check_steady_state(doc, bad))


def test_steady_state_rejects_lost_mass_and_negative_rows():
    doc = spec_doc("analytic_design", "steady_n2")
    rows = steady_rows(doc)
    lost = scaled(rows, 1, "closed_form", 1 - 1e-9)
    assert any("mass" in p for p in checks.check_steady_state(doc, lost))
    bad = [dict(r) for r in rows]
    bad[0]["closed_form"] = "-1e-9"
    assert any("negative" in p for p in checks.check_steady_state(doc, bad))


def curve_rows(doc):
    params, name = doc["params"], doc["sweep"]["name"]
    reference = checks.aoi_general if params["formula"] == "general" else checks.aoi_large_buffer
    rows = []
    for v in doc["sweep"]["values"]:
        net = checks._point_net(doc, name, str(v))
        rows.append({name: fmt(v), "analytic_aoi": fmt(reference(params["phy"], net)),
                     "sim_aoi": "", "sim_ci": ""})
    return rows


@pytest.mark.parametrize("name", ["curve_buffer", "curve_blocklength", "curve_update_rate"])
def test_aoi_curve_rejects_analytic_off_by_1e6(name):
    doc = spec_doc("analytic_design", name)
    rows = curve_rows(doc)
    assert checks.check_aoi_curve(doc, rows) == []
    bad = scaled(rows, len(rows) // 2, "analytic_aoi", 1 + 1e-6)
    assert any("analytic_aoi" in p for p in checks.check_aoi_curve(doc, bad))


def test_aoi_curve_rejects_nan_and_simulation_far_off():
    doc = spec_doc("sim_dense", "dense_curve")
    rows = curve_rows(doc)
    for r in rows:
        r["sim_aoi"], r["sim_ci"] = fmt(float(r["analytic_aoi"]) * 0.97), "0.1"
    assert checks.check_aoi_curve(doc, rows) == []
    assert any("sim_aoi" in p for p in checks.check_aoi_curve(doc, scaled(rows, 0, "sim_aoi", 0.85)))
    nan = [dict(r) for r in rows]
    nan[1]["analytic_aoi"] = "nan"
    assert any("not finite" in p for p in checks.check_aoi_curve(doc, nan))


def threshold_rows(doc):
    p = doc["params"]
    rows = []
    for n in p["n_values"]:
        for eps in p["eps_values"]:
            c = p["bits_per_unit"] * n
            exact = checks.threshold(p["bits_per_unit"], n, p["target_rate"], eps)
            exponent = p["target_rate"] + checks.LOG2E * checks.norm.isf(eps) / math.sqrt(c) - math.log2(c) / (2 * c)
            approx = 2.0**exponent - 1.0
            rows.append({"blocklength": str(c), "eps": fmt(eps), "exact": fmt(exact),
                         "approx": fmt(approx), "abs_gap": fmt(approx - exact)})
    return rows


def test_threshold_rejects_exact_off_by_1e6():
    doc = spec_doc("analytic_design", "thresholds")
    rows = threshold_rows(doc)
    assert checks.check_threshold(doc, rows) == []
    bad = [dict(r) for r in rows]
    bad[7]["exact"] = fmt(float(rows[7]["exact"]) + 1e-6)
    assert any("rate at exact" in p for p in checks.check_threshold(doc, bad))


def test_threshold_rejects_order_violations():
    doc = spec_doc("analytic_design", "thresholds")
    rows = threshold_rows(doc)
    swapped = [dict(r) for r in rows]
    swapped[4]["approx"], swapped[4]["exact"] = rows[4]["exact"], rows[4]["approx"]
    assert any("below exact" in p for p in checks.check_threshold(doc, swapped))
    flat = [dict(r) for r in rows]
    flat[3]["approx"] = rows[0]["approx"]  # c = 200 no lower than c = 100 at eps = 1e-2
    assert any("do not decrease" in p for p in checks.check_threshold(doc, flat))


@pytest.fixture(scope="module")
def optimize_case():
    doc = spec_doc("analytic_design", "optimize_1")
    grid = checks.GridTruth(doc["params"]["phy"])
    xi = doc["params"]["net"]["xi"]
    rows = [{"density": fmt(d), "aoi_star": fmt(grid.minimum(d, xi)), "eta_star": "0.2",
             "n_star": "1", "regime": "ESR"} for d in doc["sweep"]["values"][:6]]
    doc = dict(doc, sweep={"name": "density", "values": doc["sweep"]["values"][:6]})
    return doc, rows, grid


def test_optimize_rejects_aoi_star_5_percent_above_grid(optimize_case):
    doc, rows, grid = optimize_case
    assert checks.check_optimize(doc, rows, grid) == []
    bad = scaled(rows, 3, "aoi_star", 1.05)
    assert any("grid minimum" in p for p in checks.check_optimize(doc, bad, grid))


def test_optimize_rejects_ecr_below_greedy_and_shrinking_codewords(optimize_case):
    doc, rows, grid = optimize_case
    ecr = [dict(r) for r in rows]
    ecr[5].update(regime="ECR", eta_star="0.9")
    assert any("ECR row" in p for p in checks.check_optimize(doc, ecr, grid))
    shrink = [dict(r) for r in rows]
    shrink[2]["n_star"] = "3"
    assert any("n_star" in p for p in checks.check_optimize(doc, shrink, grid))


def test_grid_truth_matches_a_direct_evaluation():
    doc = spec_doc("analytic_design", "optimize_2")
    phy, xi = doc["params"]["phy"], doc["params"]["net"]["xi"]
    grid = checks.GridTruth(phy)
    direct = min(
        checks.aoi_large_buffer(phy, {"density": 0.01, "N": n, "B": 100, "xi": xi, "eta": eta})
        for n in range(1, 8) for eta in np.arange(1, 1001) * 1e-3
        if not (n == 1 and xi >= 1.0)
    )
    assert grid.minimum(0.01, xi) == pytest.approx(direct, rel=1e-9)


def simulate_row(doc):
    net = doc["params"]["net"]
    sim = doc["params"]["sim"]
    updates = sim.get("updates")
    if sim.get("arrivals") is None and updates is None:
        m1, m2 = checks.interval_moments(checks.stationary_law(net["N"], net["B"], net["xi"], net["eta"]),
                                         net["N"], net["xi"], net["eta"])
        aoi = checks.aoi_general(doc["params"]["phy"], net)
    else:
        m1 = max(net["N"] / checks._mean_rate(sim.get("arrivals"), net["xi"]),
                 updates["period"] if updates else 1.0)
        m2, aoi = 1.5 * m1 * m1, 10.0
    return [{"network_aoi": fmt(aoi), "ci_halfwidth": "0.1", "empirical_mu": "0.6",
             "empirical_inv_mu": "1.7", "interval_mean": fmt(m1), "interval_second": fmt(m2),
             "slots_measured": "900"}]


@pytest.mark.parametrize("workload,name", [("sim_sparse", "sparse_bernoulli"),
                                           ("sim_dense", "dense_bernoulli")])
def test_simulate_rejects_interval_mean_3_percent_off(workload, name):
    doc = spec_doc(workload, name)
    rows = simulate_row(doc)
    assert checks.check_simulate(doc, rows, check_aoi=True) == []
    for factor in (1.03, 0.97):
        problems = checks.check_simulate(doc, scaled(rows, 0, "interval_mean", factor), check_aoi=False)
        assert any("interval_mean" in p for p in problems)


@pytest.mark.parametrize("name", ["sparse_markov", "sparse_binomial", "sparse_periodic"])
def test_simulate_properties_of_other_patterns(name):
    doc = spec_doc("sim_sparse", name)
    rows = simulate_row(doc)
    assert checks.check_simulate(doc, rows, check_aoi=False) == []
    assert checks.check_simulate(doc, scaled(rows, 0, "interval_mean", 0.9), check_aoi=False)
    assert checks.check_simulate(doc, scaled(rows, 0, "empirical_inv_mu", 0.5), check_aoi=False)
    assert checks.check_simulate(doc, scaled(rows, 0, "empirical_mu", 2.0), check_aoi=False)
    assert checks.check_simulate(doc, scaled(rows, 0, "network_aoi", 0.05), check_aoi=False)
    assert checks.check_simulate(doc, scaled(rows, 0, "interval_second", 0.5), check_aoi=False)


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------

def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
