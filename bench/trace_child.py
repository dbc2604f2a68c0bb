"""Traced run in a fresh interpreter.

Usage: python3 trace_child.py SPEC.json RESULT.json SPANS.json

The benchmark wraps the public functions of each ``ppclust`` module (and the
three private per-replication kernels ``_candidate_pairs``,
``_crossing_indicator`` and ``_counts_in_regions``) wherever a module holds
a reference to them, so every call made during an experiment records a
span: name, start, end and the span that caused it, plus counts taken at
that boundary (points sampled, candidate pairs, edges kept, faces, bytes a
dense distance matrix needs).  The program itself is not modified.

Each experiment runs through ``cli.main`` at ``--threads 1`` so spans nest
cleanly.  After an experiment, the per-replication pieces that an estimator
computes in private code are replayed on the same streams through the
public functions (``gilbert_graph`` and ``components`` at the sweep's largest
radius, ``close_pair_count`` at the largest K radius), which is where the
``gilbert_graph``, ``components`` and ``close_pair_count`` metrics come from.

The workload's experiments give every metric whose layer they reach.  A
metric whose layer the workload does not reach is reported as 0 and listed
in ``skipped`` with the reason.  ``core.pairwise_distances`` is counted only
outside ``procgen.sample``, so its metrics follow the summaries' dense
distance matrix and not the log-Gaussian Cox sampler's covariance.  Last
come the kernel probes at n = 10^3, 10^4, 10^5, where a dense path whose
allocation would exceed the memory cap is recorded as skipped with its byte
count and never started.

Spans are kept in memory and written to SPANS.json at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import math
import statistics
import sys
import time

import layers

MODULES = (
    "core",
    "dists",
    "procgen",
    "summaries",
    "compare",
    "shotnoise",
    "percolation",
    "graphs",
    "complexes",
    "cli",
)


def _points(args, kwargs, result) -> dict:
    return {"points": int(result.points.shape[0])}


def _pairs(args, kwargs, result) -> dict:
    return {"pairs": int(result.shape[0])}


def _edges(args, kwargs, result) -> dict:
    return {"edges": len(result.edges)}


def _faces(args, kwargs, result) -> dict:
    return {"faces": sum(len(level) for level in result.faces)}


def _dense_bytes(args, kwargs, result) -> dict:
    n, d = args[0].shape
    return {"bytes": n * n * d * 8}


# Traced function -> counter taking (args, kwargs, result).
TRACED = {
    "procgen.sample": _points,
    "percolation._candidate_pairs": _pairs,
    "percolation._crossing_indicator": None,
    "percolation.gilbert_graph": _edges,
    "percolation.components": None,
    "percolation.sinr_graph": _edges,
    "summaries.close_pair_count": None,
    "summaries._counts_in_regions": None,
    "core.pairwise_distances": _dense_bytes,
    "shotnoise.coverage_field": None,
    "graphs.rgg": _edges,
    "graphs.graph_stats": None,
    "complexes.cech_complex": _faces,
    "complexes.betti_numbers": None,
    "dists.check_cx": None,
    **{name: None for name in layers.ESTIMATORS},
}

# Functions measured only through replays: replayed spans count for these.
REPLAYED = {"percolation.gilbert_graph", "percolation.components", "summaries.close_pair_count"}

# Function -> enclosing function whose calls to it are not counted.
NOT_UNDER = {"core.pairwise_distances": "procgen.sample"}

NOT_REACHED = "layer not reached by this workload"


class Tracer:
    """Records spans in memory.

    Single-threaded: the traced experiments run at ``--threads 1``, so one
    stack of open spans gives every span its parent.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.replay = False
        self.estimator_calls = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = {
            "id": len(self.spans),
            "parent": self.stack[-1]["id"] if self.stack else None,
            "name": name,
            "replay": self.replay,
            "counts": {},
        }
        self.spans.append(span)
        self.stack.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self.stack.pop()

    def parent_name(self):
        return self.stack[-1]["name"] if self.stack else None

    def wrap(self, name: str, fn, counter):
        tracer = self
        is_estimator = name in layers.ESTIMATORS
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_estimator and (tracer.parent_name() or "").startswith("cli."):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.estimator_calls.append((name, dict(bound.arguments)))
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer):
    """Replace each traced function in every module namespace holding it."""
    modules = [importlib.import_module(f"ppclust.{m}") for m in MODULES]
    modules.append(importlib.import_module("ppclust"))
    for name, counter in TRACED.items():
        module_name, attr = name.split(".")
        original = getattr(importlib.import_module(f"ppclust.{module_name}"), attr)
        wrapper = tracer.wrap(name, original, counter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def replay(name: str, a: dict):
    """Recompute an estimator's per-replication pieces on the same streams."""
    from ppclust import percolation, procgen, summaries

    if name in ("percolation.component_fraction_sweep", "percolation.crossing_probability"):
        radius = max(a["radii"]) if "radii" in a else a["r"]
        for i in range(a["reps"]):
            pattern = procgen.sample(a["spec"], a["w"], a["stream"].derive(i))
            percolation.components(percolation.gilbert_graph(pattern, radius))
    elif name in ("summaries.ripley_k", "summaries.pair_correlation"):
        radius = max(a["r_grid"])
        for i in range(a["reps"]):
            pattern = procgen.sample(a["spec"], a["w"], a["stream"].derive(i))
            summaries.close_pair_count(pattern, radius)


def run_experiments(tracer: Tracer, cli, jobs: list) -> list:
    """Run (command, argv) jobs traced; returns their exit codes."""
    codes = []
    for command, argv in jobs:
        tracer.estimator_calls = []
        with tracer.span(f"cli.{command}"):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        tracer.replay = True
        for name, arguments in tracer.estimator_calls:
            with tracer.span(f"replay.{name}"):
                replay(name, arguments)
        tracer.replay = False
    return codes


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times)


def kernel_probes(seed: int) -> tuple:
    """Kernel timings at the probe sizes; dense paths over the cap skipped."""
    from ppclust import core, percolation, procgen, shotnoise
    from ppclust.core import RandomStream, cube

    metrics, skipped = {}, []
    spec = procgen.homogeneous_poisson(1.0)
    grid_n = 64
    for n, tag in layers.PROBE_SIZES.items():
        repeats = max(1, 5 * 1000 // n)
        w = cube(math.sqrt(n), 2, metric="periodic")
        stream = RandomStream(seed).derive(n)
        pattern = procgen.sample(spec, w, stream)
        graph = percolation.gilbert_graph(pattern, 0.5)
        timed = {
            "procgen.sample": lambda: procgen.sample(spec, w, stream),
            "percolation.gilbert_graph": lambda: percolation.gilbert_graph(pattern, 0.5),
            "percolation.components": lambda: percolation.components(graph),
        }
        dense = {
            "core.pairwise_distances": (
                n * n * 2 * 8,
                lambda: core.pairwise_distances(pattern.points, w),
            ),
            "shotnoise.coverage_field": (
                grid_n**2 * n * 2 * 8,
                lambda: shotnoise.coverage_field(pattern, 0.5, grid_n),
            ),
        }
        for kernel, fn in timed.items():
            metrics[f"probe.{kernel}.{tag}_ms"] = _median_ms(fn, repeats)
        for kernel, (needed, fn) in dense.items():
            if needed > layers.PROBE_MEMORY_CAP_BYTES:
                skipped.append(
                    {
                        "metric": f"probe.{kernel}.{tag}_ms",
                        "bytes": needed,
                        "reason": f"needs {needed} bytes per temporary, over the "
                        f"{layers.PROBE_MEMORY_CAP_BYTES}-byte cap; not started",
                    }
                )
            else:
                metrics[f"probe.{kernel}.{tag}_ms"] = _median_ms(fn, repeats)
    return metrics, skipped


def _self_seconds(span: dict, children: dict) -> float:
    inner = sum(c["end"] - c["start"] for c in children.get(span["id"], ()))
    return (span["end"] - span["start"]) - inner


def layer_metrics(spans: list) -> tuple:
    """Per-layer metrics from the spans; returns (metrics, skipped)."""
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def under(s: dict, name: str) -> bool:
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] == name:
                return True
        return False

    def select(fn: str) -> list:
        return [
            s
            for s in spans
            if s["name"] == fn
            and (fn in REPLAYED or not s["replay"])
            and not (fn in NOT_UNDER and under(s, NOT_UNDER[fn]))
        ]

    metrics, skipped = {}, []

    def put(name: str, value: float, chosen: list):
        if chosen:
            metrics[name] = value
        else:
            metrics[name] = 0.0
            skipped.append({"metric": name, "reason": NOT_REACHED})

    for stem, fn in layers.PER_CALL.items():
        chosen = select(fn)
        ms = sorted(1e3 * (s["end"] - s["start"]) for s in chosen)
        put(f"{stem}.p50", _quantile(ms, 0.5), chosen)
        put(f"{stem}.p90", _quantile(ms, 0.9), chosen)
        metrics[f"{stem}.count"] = len(ms)
    for name, fn in layers.TOTALS.items():
        chosen = select(fn)
        put(name, sum(s["end"] - s["start"] for s in chosen), chosen)
    for fn in layers.ESTIMATORS:
        chosen = select(fn)
        put(f"{fn}.self_s", sum(_self_seconds(s, children) for s in chosen), chosen)
    for name, (fn, count) in layers.COUNT_MEANS.items():
        chosen = select(fn)
        put(name, statistics.fmean(s["counts"][count] for s in chosen) if chosen else 0.0, chosen)

    graphs_ = select("percolation.gilbert_graph")
    edges = pairs = 0
    for s in graphs_:
        inner = [c for c in children.get(s["id"], ()) if c["name"] == "percolation._candidate_pairs"]
        edges += s["counts"]["edges"]
        pairs += sum(c["counts"]["pairs"] for c in inner)
    put("percolation.edge_yield", edges / pairs if pairs else 0.0, graphs_)
    dense = select("core.pairwise_distances")
    put("core.pairwise_bytes", max((s["counts"]["bytes"] for s in dense), default=0), dense)
    return metrics, skipped


def _quantile(sorted_values: list, q: float) -> float:
    """Linear-interpolation quantile of an ascending list (NaN when empty)."""
    if not sorted_values:
        return math.nan
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def main() -> int:
    spec_path, result_path, spans_path = sys.argv[1:4]
    with open(spec_path) as handle:
        spec = json.load(handle)
    from ppclust import cli

    tracer = Tracer()
    install(tracer)
    codes = run_experiments(tracer, cli, spec["jobs"])
    metrics, skipped = layer_metrics(tracer.spans)
    cli_seconds = {}
    for s in tracer.spans:
        if s["name"].startswith("cli."):
            cli_seconds[s["name"][4:]] = cli_seconds.get(s["name"][4:], 0.0) + s["end"] - s["start"]
    probes, probe_skipped = kernel_probes(spec["probe_seed"])
    record = {
        "metrics": metrics,
        "codes": codes,
        "cli_s": cli_seconds,
        "probes": probes,
        "skipped": skipped + probe_skipped,
        "module": cli.__file__,
    }
    with open(result_path, "w") as handle:
        json.dump(record, handle)
    with open(spans_path, "w") as handle:
        json.dump(tracer.spans, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
