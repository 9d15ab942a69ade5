"""Spans around the calls into each layer of ``ehaoi``, for the traced run.

The program is not changed: each public function is wrapped where its
caller binds it (``ehaoi.cli.steady_state``, ``ehaoi.optimizer.
effective_threshold_exact``, ``ehaoi.sim.sample_topology``, ...), so a
span opens when one layer calls into another.  Spans record name, start,
end, parent and a few attributes; they are kept in memory and reduced to
per-layer figures at the end of each round.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections.abc import Callable
from time import perf_counter

LAYERS = ("cli", "energy_chain", "fbl", "aoi", "optimizer", "sim")


def _coding(args, kwargs, result):
    return args[0]


def _sim_shape(args, kwargs, result):
    return (args[0].slots, args[0].realizations)


def _links(args, kwargs, result):
    return result.n_links


# (module that binds the name, name, span name, attribute extractor)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("ehaoi.cli", "steady_state", "energy_chain.steady_state", None),
    ("ehaoi.cli", "solve_steady_numeric", "energy_chain.solve_steady_numeric", None),
    ("ehaoi.cli", "build_transition_matrix", "energy_chain.build_transition_matrix", None),
    ("ehaoi.energy_chain", "solve_steady_numeric", "energy_chain.solve_steady_numeric", None),
    ("ehaoi.energy_chain", "build_transition_matrix", "energy_chain.build_transition_matrix", None),
    ("ehaoi.aoi", "char_root", "energy_chain.char_root", None),
    ("ehaoi.aoi", "prob_energy_sufficient", "energy_chain.prob_energy_sufficient", None),
    ("ehaoi.cli", "effective_threshold_exact", "fbl.effective_threshold_exact", _coding),
    ("ehaoi.cli", "effective_threshold_approx", "fbl.effective_threshold_approx", None),
    ("ehaoi.optimizer", "effective_threshold_exact", "fbl.effective_threshold_exact", _coding),
    ("ehaoi.optimizer", "effective_threshold_approx", "fbl.effective_threshold_approx", None),
    ("ehaoi.cli", "network_aoi_general", "aoi.network_aoi_general", None),
    ("ehaoi.cli", "network_aoi_large_buffer", "aoi.network_aoi_large_buffer", None),
    ("ehaoi.optimizer", "network_aoi_large_buffer", "aoi.network_aoi_large_buffer", None),
    ("ehaoi.optimizer", "omega", "aoi.omega", None),
    ("ehaoi.cli", "optimize", "optimizer.optimize", None),
    ("ehaoi.cli", "run", "sim.run", _sim_shape),
    ("ehaoi.sim", "sample_topology", "sim.sample_topology", _links),
)


class Tracer:
    """Records spans from the wrapped functions while installed; ``call`` opens one by hand."""

    def __init__(self):
        # each span: [name, parent index, start, end, attribute]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][3] = perf_counter()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn: Callable, attribute: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if attribute is not None:
                self.spans[idx][4] = attribute(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, span_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original, attribute))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans


def summarize(spans: list[list]) -> dict:
    """Per-layer self time, call counts and durations of one round's spans."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = dict.fromkeys(LAYERS, 0.0)
    durations: dict[str, list[float]] = {}
    count: dict[str, int] = {}
    for i, (name, parent, start, end, _) in enumerate(spans):
        self_s[name.split(".", 1)[0]] += end - start - child_time[i]
        durations.setdefault(name, []).append(end - start)
        count[name] = count.get(name, 0) + 1

    def under(i: int, ancestor: str) -> bool:
        parent = spans[i][1]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][1]
        return False

    codings = [s[4] for s in spans if s[0] == "fbl.effective_threshold_exact"]
    slot_reals = sum(s[4][0] * s[4][1] for s in spans if s[0] == "sim.run")
    links, link_slots = [], 0
    for s in spans:
        if s[0] == "sim.sample_topology":
            # one topology per realization, simulated for the slot count of its sim.run
            parent = s[1]
            while parent >= 0 and spans[parent][0] != "sim.run":
                parent = spans[parent][1]
            links.append(s[4])
            link_slots += s[4] * spans[parent][4][0] if parent >= 0 else 0
    return {
        "self_s": self_s,
        "durations": durations,
        "count": count,
        "objective_calls": sum(1 for i, s in enumerate(spans)
                               if s[0] == "aoi.network_aoi_large_buffer" and under(i, "optimizer.optimize")),
        "threshold_distinct": len(set(codings)),
        "slot_realizations": slot_reals,
        "link_slots": link_slots,
        "links": links,
    }


def layer_metrics(rounds: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over rounds: medians of per-round figures."""

    def med(values):
        return statistics.median(values) if values else 0.0

    def per_round(fn):
        return med([fn(r) for r in rounds])

    def all_ms(name):
        return med([d * 1e3 for r in rounds for d in r["durations"].get(name, [])])

    def calls(name):
        return per_round(lambda r: r["count"].get(name, 0))

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {f"{layer}.self_s": (per_round(lambda r, l=layer: r["self_s"][l]), "s") for layer in LAYERS}
    metrics.update({
        "energy_chain.steady_state.calls": (calls("energy_chain.steady_state"), "count"),
        "energy_chain.steady_state.median_ms": (all_ms("energy_chain.steady_state"), "ms"),
        "energy_chain.dense_solves": (calls("energy_chain.solve_steady_numeric"), "count"),
        "fbl.threshold.calls": (calls("fbl.effective_threshold_exact"), "count"),
        "fbl.threshold.distinct_ratio": (per_round(lambda r: ratio(
            r["threshold_distinct"], r["count"].get("fbl.effective_threshold_exact", 0))), "ratio"),
        "optimizer.optimize.median_ms": (all_ms("optimizer.optimize"), "ms"),
        "optimizer.objective_calls": (per_round(lambda r: r["objective_calls"]), "count"),
        "sim.us_per_slot": (per_round(lambda r: ratio(r["self_s"]["sim"] * 1e6, r["slot_realizations"])), "us"),
        "sim.ns_per_link_slot": (per_round(lambda r: ratio(r["self_s"]["sim"] * 1e9, r["link_slots"])), "ns"),
    })
    return metrics
