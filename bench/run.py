"""End-to-end and per-layer benchmark of the ehaoi pipeline.

    python3 bench/run.py --workload sim_dense --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  The specs of the workload are generated from
``--seed`` and written under ``bench/results/``.  Then, for ``--seconds``
seconds, whole rounds of the specs are run, each spec in its own
``python3 -m ehaoi.cli --threads 1`` process, one process at a time (a
closed loop with one client).  Every output is checked after the timed
loop, and the last line of standard output is one JSON object:

- ``--trace 0``: ``wall_s`` (the summed spawn-to-exit time of the workload's
  CLI runs, each the median over the rounds), ``setup_s`` (median time of a
  fresh interpreter importing ``ehaoi.cli``, probed before the first run and
  after every round) and ``peak_rss_mb`` (largest peak
  resident set of one CLI process);
- ``--trace 1``: the same specs replayed in this process through
  ``ehaoi.cli.main`` with spans around the calls into each layer, and the
  per-layer metrics of ``spans.layer_metrics``.

``--workload all`` runs the three workloads in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import specs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_SPAWNS = 5
IMPORT_PROBE = "import sys, ehaoi.cli; sys.stdout.write(ehaoi.cli.__file__)"


def _cli_args(spec_path: Path, out_dir: Path) -> list[str]:
    return ["--spec", str(spec_path), "--out", str(out_dir), "--threads", "1", "--quiet"]


def _spawn(argv: list[str], log: Path, stdout=subprocess.DEVNULL) -> tuple[float, int, int]:
    """Run one child to its end: (spawn-to-exit seconds, exit code, peak RSS in KiB)."""
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
                                stdin=subprocess.DEVNULL, stdout=stdout, stderr=err)
        # the child's own rusage; RUSAGE_CHILDREN would only give a running maximum
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


class Workload:
    """One benchmark run of one workload: rounds, counts and output checks."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool):
        self.workload = workload
        self.specs = specs.generate(workload, seed)
        self.seconds = seconds
        self.out = RESULTS / f"{workload}-seed{seed}-trace{int(traced)}"
        shutil.rmtree(self.out, ignore_errors=True)
        (self.out / "specs").mkdir(parents=True)
        self.paths = []
        for spec in self.specs:
            path = self.out / "specs" / f"{spec.name}.json"
            path.write_text(json.dumps(spec.doc, indent=2) + "\n")
            self.paths.append(path)
        self.attempted = 0
        self.failed: set[tuple[int, str]] = set()
        self.problems: list[str] = []

    def rounds(self, run_one):
        """Run whole rounds until ``seconds`` have passed; yields each round's figures."""
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < self.seconds:
            rdir = self.out / f"round{k}"
            rdir.mkdir()
            figures = []
            for spec, path in zip(self.specs, self.paths):
                self.attempted += 1
                ok, figure = run_one(spec, path, rdir)
                if not ok:
                    self.failed.add((k, spec.name))
                figures.append(figure)
            if k > 0:
                self._compare_with_first(k, rdir)
            yield figures
            k += 1

    def _compare_with_first(self, k: int, rdir: Path) -> None:
        # a repeat byte-identical to the first run needs no second check
        identical = True
        for spec in self.specs:
            if (k, spec.name) in self.failed or (0, spec.name) in self.failed:
                continue
            first = (self.out / "round0" / f"{spec.name}.csv").read_bytes()
            if (rdir / f"{spec.name}.csv").read_bytes() != first:
                self.problems.append(f"{spec.name}: round {k} CSV differs from round 0")
                identical = False
        if identical:
            shutil.rmtree(rdir)

    def check_outputs(self) -> None:
        grids: dict[str, checks.GridTruth] = {}
        for spec in self.specs:
            if (0, spec.name) in self.failed:
                continue
            doc = spec.doc
            _, rows = checks.read_csv(self.out / "round0" / f"{spec.name}.csv")
            kind = doc["kind"]
            if kind == "steady_state":
                found = checks.check_steady_state(doc, rows)
            elif kind == "threshold":
                found = checks.check_threshold(doc, rows)
            elif kind == "aoi_curve":
                found = checks.check_aoi_curve(doc, rows)
            elif kind == "optimize":
                key = json.dumps(doc["params"]["phy"], sort_keys=True)
                grid = grids.setdefault(key, checks.GridTruth(doc["params"]["phy"]))
                found = checks.check_optimize(doc, rows, grid)
            else:
                found = checks.check_simulate(doc, rows, spec.check_aoi)
            self.problems += [f"{spec.name}: {p}" for p in found]

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": len(self.failed),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }


def run_untraced(work: Workload) -> dict[str, tuple[float, str]]:
    probe_out, probe_err = work.out / "import_probe.txt", work.out / "import_probe.err"
    setup = []

    def probe() -> None:
        with open(probe_out, "wb") as fh:
            wall, code, _ = _spawn([sys.executable, "-c", IMPORT_PROBE], probe_err, fh)
        if code != 0:
            raise RuntimeError(f"importing ehaoi.cli failed: {probe_err.read_text()}")
        imported = Path(probe_out.read_text())
        if not imported.is_relative_to(SRC):
            raise RuntimeError(f"ehaoi.cli was imported from {imported}, not from {SRC}")
        setup.append(wall)

    for _ in range(SETUP_SPAWNS):
        probe()

    peak_kib = 0

    def run_one(spec, path, rdir):
        nonlocal peak_kib
        argv = [sys.executable, "-m", "ehaoi.cli", *_cli_args(path, rdir)]
        wall, code, rss = _spawn(argv, rdir / f"{spec.name}.stderr")
        peak_kib = max(peak_kib, rss)
        return code == 0, wall

    walls = []
    for figures in work.rounds(run_one):
        walls.append(figures)
        # the machine's speed drifts over seconds: spread more probes over the run
        probe()
    per_spec = {spec.name: [w[i] for w in walls] for i, spec in enumerate(work.specs)}
    (work.out / "walls.json").write_text(json.dumps({"setup_s": setup, "cli_s": per_spec}, indent=1) + "\n")
    work.check_outputs()
    return {
        # each CLI run's time is its median over the rounds; wall_s sums them
        "wall_s": (sum(statistics.median(v) for v in per_spec.values()), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def run_traced(work: Workload) -> dict[str, tuple[float, str]]:
    sys.path.insert(0, str(SRC))
    import ehaoi.cli

    if not Path(ehaoi.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"ehaoi.cli was imported from {ehaoi.cli.__file__}, not from {SRC}")
    tracer = spans.Tracer()

    def run_one(spec, path, rdir):
        try:
            code = tracer.call("cli.main", ehaoi.cli.main, _cli_args(path, rdir))
        except Exception:  # a crash is a failed run; the rest of the round goes on
            traceback.print_exc()
            code = -1
        return code == 0, None

    summaries = []
    tracer.install()
    try:
        for _ in work.rounds(run_one):
            summaries.append(spans.summarize(tracer.take()))
    finally:
        tracer.uninstall()
    work.check_outputs()
    links = [n for s in summaries[:1] for n in s["links"]]
    if links:
        print(f"{work.workload}: links per realization mean {statistics.mean(links):.1f}, "
              f"min {min(links)}, max {max(links)} over {len(links)} realizations")
    return spans.layer_metrics(summaries)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*specs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ehaoi" / "cli.py").is_file():
        print(f"no ehaoi source under {SRC}: run from a checkout of the repository", file=sys.stderr)
        return 2
    workloads = specs.WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        work = Workload(workload, args.seed, args.seconds, bool(args.trace))
        metrics = (run_traced if args.trace else run_untraced)(work)
        result = work.result(metrics)
        for problem in work.problems:
            print(f"{workload}: CHECK FAILED {problem}", file=sys.stderr)
        print(f"{workload}: " + ", ".join(f"{k}={v:.6g} {u}" for k, (v, u) in metrics.items())
              + f"; CLI runs attempted {result['attempted']}, failed {result['failed']}")
        (work.out / "result.json").write_text(json.dumps(result, indent=2) + "\n")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
