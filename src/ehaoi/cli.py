"""Experiment runner: JSON specification in, CSV plus config sidecar out.

Each experiment kind drives one pipeline (stationary distributions,
decoding thresholds, analytic AoI curves, joint optimization or Monte
Carlo simulation).  The spec is the one source of a run: its required
``name``, a plain file stem, names ``<name>.csv``, and a ``sim`` section
requires its ``seed``.  Reruns of an identical spec produce
byte-identical CSVs; the sidecar restates the spec (name, kind, params,
sweep) beside the library version and the CSV's file name.

The phy/net kinds (aoi_curve, optimize, simulate) build every point
alike: its net; its phy, where a code sets theta at the point's N and a
theta beside a code is refused; the analytic value; the simulated point,
refused if its horizon measured nothing.  A simulated point draws
Bernoulli arrivals and updates at net.xi and net.eta, the analytic
column's model; only simulate, which has no such column, takes other
patterns.

Exit codes: 0 ok, 2 bad-config, 3 out-of-regime, 4 non-convergence, 5 io.
A spec value is refused as bad-config while the configs are built from
the spec; any other ValueError is a fault, and ends in a traceback (1).

The simulator, and with it numpy, is imported only for a spec with a
``sim`` section, so the analytic kinds start on the standard library.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any

from . import __version__
from .aoi import NetworkConfig, PhyConfig, db_to_linear, network_aoi_general, network_aoi_large_buffer
from .energy_chain import build_transition_matrix, solve_steady_numeric, steady_state
from .errors import BadConfig, EhAoiError
from .fbl import CodingConfig, effective_threshold_approx, effective_threshold_exact
from .optimizer import optimize, theta_for

if TYPE_CHECKING:
    from collections.abc import Callable, Iterator

    from .sim import SimConfig, SimReport


def run(sim_cfg: SimConfig, phy: PhyConfig, net: NetworkConfig) -> SimReport:
    """:func:`ehaoi.sim.run`, with the simulator imported at the first call."""
    from .sim import run as simulate

    return simulate(sim_cfg, phy, net)


def _config(make: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``make(*args, **kwargs)``, a library object built from spec values.

    A ValueError is the constructor's refusal of a value, so it is
    reported as BadConfig.
    """
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise BadConfig(str(exc)) from exc


def _number(key: str, value: Any) -> float:
    """A finite JSON number, as a float; refuses a bool, a string, NaN and Infinity."""
    # type(), not isinstance(), since a bool is an int; the bounds also
    # refuse NaN and an integer too large for a float
    if type(value) not in (int, float) or not -sys.float_info.max <= value <= sys.float_info.max:
        raise BadConfig(f"{key} must be a finite JSON number, got {value!r}")
    return float(value)


def _integer(key: str, value: Any) -> int:
    """A finite JSON number without a fractional part, as an int."""
    if not _number(key, value).is_integer():
        raise BadConfig(f"{key} must be an integer, got {value!r}")
    return int(value)


def _list_of(item: Callable[[str, Any], Any]) -> Callable[[str, Any], list]:
    """A field reader for a non-empty JSON array, each entry read by ``item``."""

    def read(key: str, value: Any) -> list:
        if not isinstance(value, list) or not value:
            raise BadConfig(f"{key} must be a non-empty JSON array, got {value!r}")
        return [item(key, v) for v in value]

    return read


_numbers = _list_of(_number)
_integers = _list_of(_integer)


def _text(key: str, value: Any) -> str:
    if not isinstance(value, str):
        raise BadConfig(f"{key} must be a JSON string, got {value!r}")
    return value


def _stem(key: str, value: Any) -> str:
    """A plain file stem, so that ``<stem>.csv`` lands in the output directory itself."""
    name = _text(key, value)
    if not name or name != Path(name).name or name == ".." or "\0" in name:
        raise BadConfig(f"{key} must be a plain file name, with no directory part, got {name!r}")
    return name


def _object(key: str, value: Any) -> dict:
    if not isinstance(value, dict):
        raise BadConfig(f"{key} must be a JSON object")
    return value


def _read(section: str, doc: Any, readers: dict, required: tuple[str, ...]) -> dict:
    """The fields of one spec section, each passed through its field reader.

    Refuses a ``doc`` that is not a JSON object, a key that ``readers``
    lacks (which would otherwise be ignored) and a missing ``required``
    key.  A reader is called with the name its messages give the field:
    ``phy.alpha`` inside a section, the bare key at the top level and
    directly under ``params``.  Absent optional keys stay absent.
    """
    _object(section, doc)
    for key in doc:
        if key not in readers:
            raise BadConfig(f"{section} has unknown key {key!r}; known keys: {', '.join(readers)}")
    for key in required:
        if key not in doc:
            raise BadConfig(f"{section} is missing required key {key!r}")
    prefix = "" if section in ("spec", "params") else f"{section}."
    return {key: readers[key](prefix + key, value) for key, value in doc.items()}


def _section(readers: dict, required: tuple[str, ...]) -> Callable[[str, Any], dict]:
    """A field reader for a nested section, named by its field."""
    return lambda key, doc: _read(key, doc, readers, required)


def _pattern(**classes: str) -> Callable[[str, Any], Any]:
    """A field reader for a pattern: its ``type`` picks a class of ``ehaoi.sim``, whose fields it reads."""

    def read(key: str, doc: Any) -> Any:
        from . import sim

        name = _text(f"{key}.type", _object(key, doc).get("type"))
        if name not in classes:
            raise BadConfig(f"unknown {key} pattern {name!r}; known patterns: {', '.join(classes)}")
        cls = getattr(sim, classes[name])
        readers = {f.name: _integer if f.type in (int, "int") else _number
                   for f in dataclasses.fields(cls)}
        fields = _read(key, doc, {"type": _text, **readers}, tuple(readers))
        del fields["type"]
        return _config(cls, **fields)

    return read


_NET = {"density": _number, "N": _integer, "B": _integer, "xi": _number, "eta": _number}
_NET_SECTION = _section(_NET, tuple(_NET))
_PHY_SECTION = _section(
    {"alpha": _number, "r": _number, "snr_db": _number, "theta": _number, "eps": _number,
     "target_rate": _number, "bits_per_unit": _integer},
    ("alpha", "r", "snr_db", "eps"),
)
_SIM = {"slots": _integer, "realizations": _integer, "seed": _integer, "side": _number, "warmup": _integer}
_SIM_REQUIRED = ("slots", "realizations", "side", "seed")
_SIM_SECTION = _section(_SIM, _SIM_REQUIRED)
# a pattern replaces net.xi's or net.eta's Bernoulli draws, so only simulate reads one
_PATTERN_SIM_SECTION = _section(
    {**_SIM, "arrivals": _pattern(binomial="BinomialArrivals", markov="TwoStateMarkovArrivals"),
     "updates": _pattern(periodic="PeriodicUpdates")}, _SIM_REQUIRED)
_SPEC = {"name": _stem, "kind": _text, "params": _object,
         "sweep": _section({"name": _text, "values": _numbers}, ("name", "values"))}


@dataclasses.dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a kind, its parameter document, an optional sweep.

    ``params`` is the document as given, which the sidecar records;
    ``args`` holds its fields as read, numbers as floats or ints.
    """

    name: str
    kind: str
    params: dict
    args: dict
    sweep: tuple[str, tuple[float, ...]] | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentSpec":
        top = _read("spec", doc, _SPEC, ("name", "kind"))
        kind = top["kind"]
        if kind not in _RUNNERS:
            raise BadConfig(f"kind must be one of {tuple(_RUNNERS)}, got {kind!r}")
        _, readers, required, sweeps = _RUNNERS[kind]
        if "sweep" in top and not sweeps:
            raise BadConfig(f"kind {kind} reads no 'sweep' section; remove it")
        params = top.get("params", {})
        sweep = top.get("sweep")
        return cls(
            name=top["name"],
            kind=kind,
            params=params,
            args=_read("params", params, readers, required),
            sweep=None if sweep is None else (sweep["name"], tuple(sweep["values"])),
        )


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list[Any]]) -> None:
    with open(path, "w", newline="\n", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _phy(doc: dict, n_units: int) -> PhyConfig:
    """The phy section at a point of ``n_units`` energy units per packet.

    A code (``target_rate``, ``bits_per_unit``) sets theta at ``n_units``;
    without one, ``theta`` is given.  Both, or neither, is BadConfig.
    """
    if "theta" in doc and ("target_rate" in doc or "bits_per_unit" in doc):
        raise BadConfig("phy.theta is solved from the code at each point's N;"
                        " give theta or target_rate and bits_per_unit, not both")
    phy = _config(
        PhyConfig,
        alpha=doc["alpha"],
        r=doc["r"],
        tx_snr=db_to_linear(doc["snr_db"]),
        theta=doc.get("theta", 1.0),  # a stand-in until theta_for replaces it
        eps=doc["eps"],
        target_rate=doc.get("target_rate"),
        bits_per_unit=doc.get("bits_per_unit"),
    )
    return phy if "theta" in doc else dataclasses.replace(phy, theta=_config(theta_for, phy, n_units))


def _sim_config(doc: dict) -> SimConfig:
    from .sim import SimConfig

    return _config(SimConfig, **doc)


def _set_param(net: NetworkConfig, name: str, value: float) -> NetworkConfig:
    if name not in _NET:
        raise BadConfig(f"unknown sweep parameter {name!r}")
    return _config(dataclasses.replace, net, **{name: _NET[name](f"sweep value of {name}", value)})


def _points(args: dict, sweep: tuple[str, tuple[float, ...]] | None) -> Iterator[tuple]:
    """``(value, net, phy)`` of each point: one per sweep value, or the spec's own net (value None)."""
    base = _config(NetworkConfig, **args["net"])
    name, values = sweep or (None, (None,))
    for value in values:
        net = base if name is None else _set_param(base, name, value)
        yield value, net, _phy(args["phy"], net.N)


# the SimReport fields a simulated point reads, in the simulate kind's column order
_MEASURED = ("network_aoi", "ci_halfwidth", "empirical_mu", "empirical_inv_mu",
             "empirical_interval_mean", "empirical_interval_second", "slots_measured")


def _simulate(sim_cfg: SimConfig, phy: PhyConfig, net: NetworkConfig) -> SimReport:
    """One simulated point; BadConfig for links the torus cannot hold, or a field left unmeasured."""
    from .sim import require_torus

    _config(require_torus, net.density, sim_cfg.side, phy.r)
    report = run(sim_cfg, phy, net)
    # SimReport marks an unmeasured quantity with nan or inf; a CSV must not
    bad = [field for field in _MEASURED if not math.isfinite(getattr(report, field))]
    if bad:
        raise BadConfig(
            f"the simulation measured {', '.join(bad)} as non-finite: the measured horizon saw no "
            "attempt or no delivery; lengthen sim.slots or raise the update rate"
        )
    return report


def _analytic_aoi(net: NetworkConfig, phy: PhyConfig, formula: str) -> float:
    if formula == "general":
        return network_aoi_general(steady_state(net.chain), net, phy)
    if formula == "large_buffer":
        return network_aoi_large_buffer(net, phy)
    raise BadConfig(f"formula must be 'general' or 'large_buffer', got {formula!r}")


def _run_steady_state(spec: ExperimentSpec):
    cfg = _config(NetworkConfig, **spec.args["net"]).chain
    # the closed_form column is the exact cut recursion, numeric the Hessenberg oracle
    exact = steady_state(cfg)
    numeric = solve_steady_numeric(build_transition_matrix(cfg))
    header = ["level", "closed_form", "numeric", "abs_diff"]
    rows = [
        [i, exact.probs[i], numeric.probs[i], abs(exact.probs[i] - numeric.probs[i])]
        for i in range(cfg.B + 1)
    ]
    return header, rows


def _run_threshold(spec: ExperimentSpec):
    p = spec.args
    header = ["blocklength", "eps", "exact", "approx", "abs_gap"]
    rows = []
    for n in p.get("n_values", [1]):
        for eps in p.get("eps_values", [1e-6]):
            coding = _config(CodingConfig, k=p["bits_per_unit"], N=n, target_rate=p["target_rate"], eps=eps)
            exact = effective_threshold_exact(coding)
            approx = effective_threshold_approx(coding)
            rows.append([coding.blocklength, eps, exact, approx, approx - exact])
    return header, rows


def _run_curve(spec: ExperimentSpec):
    if spec.sweep is None:
        raise BadConfig(f"kind {spec.kind} requires a sweep section")
    formula = spec.args.get("formula", "general")
    sim_cfg = _sim_config(spec.args["sim"]) if "sim" in spec.args else None
    rows = []
    for value, net, phy in _points(spec.args, spec.sweep):
        row = [value, _analytic_aoi(net, phy, formula), "", ""]
        if sim_cfg is not None:
            report = _simulate(sim_cfg, phy, net)
            row[2:] = [report.network_aoi, report.ci_halfwidth]
        rows.append(row)
    return [spec.sweep[0], "analytic_aoi", "sim_aoi", "sim_ci"], rows


def _run_optimize(spec: ExperimentSpec):
    name, values = spec.sweep or ("density", (spec.args["net"]["density"],))
    rows = []
    for value, net, phy in _points(spec.args, (name, values)):
        # the scan solves theta from N = 1 on, so the code must reach the blocklength floor there
        _config(theta_for, phy, 1)
        best = optimize(phy, net)
        rows.append([value, best.aoi_star, best.eta_star, best.n_star, best.regime])
    return [name, "aoi_star", "eta_star", "n_star", "regime"], rows


def _run_simulate(spec: ExperimentSpec):
    [(_, net, phy)] = _points(spec.args, None)
    report = _simulate(_sim_config(spec.args["sim"]), phy, net)
    header = ["network_aoi", "ci_halfwidth", "empirical_mu", "empirical_inv_mu",
              "interval_mean", "interval_second", "slots_measured"]
    return header, [[getattr(report, field) for field in _MEASURED]]


_PHY_NET = {"phy": _PHY_SECTION, "net": _NET_SECTION}
# kind -> (runner, its params table, the required params keys, whether it
# reads a sweep); each runner maps a spec to the CSV's (header, rows)
_RUNNERS = {
    "steady_state": (_run_steady_state, {"net": _NET_SECTION}, ("net",), False),
    "threshold": (_run_threshold,
                  {"bits_per_unit": _integer, "target_rate": _number, "n_values": _integers,
                   "eps_values": _numbers},
                  ("bits_per_unit", "target_rate"), False),
    "aoi_curve": (_run_curve, {**_PHY_NET, "formula": _text, "sim": _SIM_SECTION},
                  ("phy", "net"), True),
    "optimize": (_run_optimize, _PHY_NET, ("phy", "net"), True),
    "simulate": (_run_simulate, {**_PHY_NET, "sim": _PATTERN_SIM_SECTION}, ("phy", "net", "sim"), False),
}


def run_experiment(spec: ExperimentSpec, out_dir: str | Path = ".", quiet: bool = False) -> list[Path]:
    """Execute one experiment spec; returns the written file paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header, rows = _RUNNERS[spec.kind][0](spec)
    csv_path = out / f"{spec.name}.csv"
    _write_csv(csv_path, header, rows)
    sidecar = {
        "name": spec.name,
        "kind": spec.kind,
        "library_version": __version__,
        "params": spec.params,
        "sweep": None if spec.sweep is None else {"name": spec.sweep[0], "values": list(spec.sweep[1])},
        "outputs": [csv_path.name],
    }
    sidecar_path = csv_path.with_suffix(".config.json")
    with open(sidecar_path, "w", encoding="ascii") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if not quiet:
        print(f"wrote {csv_path} and {sidecar_path}")
    return [csv_path, sidecar_path]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ehaoi",
        description="Run age-of-information experiments from a JSON spec.",
    )
    parser.add_argument("--spec", required=True, help="path to the JSON experiment spec")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility and ignored; the simulator's matrix products"
                             " run on the BLAS thread pool, which moves the timing, not the output")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)
    try:
        with open(args.spec, encoding="utf-8") as fh:
            doc = _config(json.load, fh)
        run_experiment(ExperimentSpec.from_dict(doc), out_dir=args.out, quiet=args.quiet)
    except EhAoiError as exc:  # each type carries its exit code and label
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io: {exc}", file=sys.stderr)
        return 5
    return 0


if __name__ == "__main__":
    sys.exit(main())
