"""Tests of the benchmark's own gate, guards and metric lists.

Run from the root of a checkout: python3 -m pytest bench/test_bench.py -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gate  # noqa: E402
import layers  # noqa: E402
import trace_child  # noqa: E402
from workloads import WORKLOADS, Experiment, resolved_dimension  # noqa: E402

from ppclust import cli  # noqa: E402


def write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


SWEEP = "r,largest_fraction,second_fraction,stderr_largest,stderr_second\n0.3,0.2,0.1,0.01,0.01\n0.4,0.4,0.1,0.01,0.01\n"


def test_reference_within_tolerance_passes_and_perturbed_reference_fires(tmp_path):
    write(tmp_path / "sweep_a.csv", SWEEP)
    found = gate.scalars(tmp_path)
    assert found == pytest.approx({"sweep_a.csv:largest_fraction": 0.3, "sweep_a.csv:second_fraction": 0.1})
    reference = {key: {"mean": value, "sd": 0.01, "n": 16} for key, value in found.items()}
    assert gate.reference_failures(found, reference) == []
    reference["sweep_a.csv:largest_fraction"]["mean"] += 0.01 * (gate.Z_TOLERANCE + 1)
    failures = gate.reference_failures(found, reference)
    assert len(failures) == 1 and failures[0].startswith("sweep_a.csv:largest_fraction")


def test_missing_and_unreferenced_scalars_fire(tmp_path):
    write(tmp_path / "sweep_a.csv", SWEEP)
    found = gate.scalars(tmp_path)
    assert len(gate.reference_failures(found, {})) == 2
    reference = {key: {"mean": v, "sd": 0.0, "n": 16} for key, v in found.items()}
    reference["critical.csv:r_c"] = {"mean": 0.55, "sd": 0.01, "n": 16}
    assert gate.reference_failures(found, reference) == ["critical.csv:r_c: missing from the artifacts"]


def test_stored_references_perturbed_fire_on_their_own_means():
    experiments = gate.load_references()["experiments"]
    assert set(experiments) == {
        f"{w.name}/{e.name}" for w in WORKLOADS.values() for e in w.experiments
    }
    for reference in experiments.values():
        assert reference
        means = {key: ref["mean"] for key, ref in reference.items()}
        assert gate.reference_failures(means, reference) == []
        key = sorted(reference)[0]
        shifted = dict(means)
        shifted[key] += (gate.Z_TOLERANCE + 1) * reference[key]["sd"] + 1e-6 * max(1, abs(means[key]))
        assert gate.reference_failures(shifted, reference) != []


# Values a correct program can produce, as open intervals.  Each checked
# scalar's band must lie strictly inside, so that a degenerate kernel (a
# crossing test that always answers 0 or 1, a Betti count stuck at 0, an
# empty component) lands outside it.
INF = float("inf")
VALID_RANGES = {
    "sweep_a.csv:largest_fraction": (0.0, 1.0),
    "sweep_b.csv:largest_fraction": (0.0, 1.0),
    "sweep_a.csv:second_fraction": (0.0, 0.5),
    "sweep_b.csv:second_fraction": (0.0, 0.5),
    "critical.csv:r_c": (0.0, INF),
    "crossing.csv:crossing_prob": (0.0, 1.0),
    "curve.csv:estimate": (0.0, INF),
    "ordering_voids.csv:estimate": (0.0, 1.0),
    "ordering_factorial_moments_2.csv:estimate": (0.0, INF),
    "ordering_factorial_moments_3.csv:estimate": (0.0, INF),
    "coverage.csv:volume": (0.0, INF),
    "scaling.csv:mean_clique": (1.0, INF),
    "scaling.csv:mean_max_degree": (0.0, INF),
    "scaling.csv:mean_edges": (0.0, INF),
    "betti.csv:mean_betti": (0.0, INF),
    "summary.csv:n_edges": (0.0, INF),
    "gamma_sweep.csv:n_edges": (0.0, INF),
}


def test_stored_bands_lie_strictly_inside_the_valid_ranges():
    experiments = gate.load_references()["experiments"]
    exact = {"chain.csv:min_slack"}  # deterministic: the band is the value itself
    checked = {f"{name}:{column}" for name, columns in gate.CHECKED_COLUMNS.items() for column in columns}
    assert checked == set(VALID_RANGES) | exact
    for experiment, reference in experiments.items():
        for key, ref in reference.items():
            if key in exact:
                assert ref["sd"] == 0.0, (experiment, key)
                continue
            lo, hi = VALID_RANGES[key]
            tol = gate.tolerance(ref)
            assert lo < ref["mean"] - tol and ref["mean"] + tol < hi, (experiment, key, ref)


def test_pinned_facts_fire(tmp_path):
    write(tmp_path / "chain.csv", "chain,lower,upper,verdict,min_slack,witness\nsub,a,b,holds,0,\nsub,b,c,fails,-1,2\n")
    write(tmp_path / "gamma_sweep.csv", "gamma,n_edges\n0,10\n0.1,12\n")
    failures = gate.pinned_failures(tmp_path)
    assert [f.split(":")[0] for f in failures] == ["chain.csv", "gamma_sweep.csv"]


def test_differing_files_finds_a_changed_byte(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        write(d / "x.csv", "1,2\n")
    assert gate.differing_files(a, b) == []
    write(b / "x.csv", "1,3\n")
    write(a / "only_a.csv", "")
    assert gate.differing_files(a, b) == ["only_a.csv", "x.csv"]


def test_one_dimensional_window_trap_is_caught(tmp_path, monkeypatch):
    import workloads

    monkeypatch.setattr(workloads, "CONFIG_DIR", tmp_path)
    (tmp_path / "w").mkdir()
    write(
        tmp_path / "w" / "trap.ini",
        "[run]\nseed = 1\n[window]\nsides = 30\nmetric = periodic\n"
        "[generator]\ntype = poisson\nintensity = 1.0\n[percolation]\nmode = sweep\n",
    )
    assert resolved_dimension(cli, Experiment("trap", "percolation", 2), "w") == 1


def test_every_benchmark_config_resolves_to_its_intended_dimension():
    for w in WORKLOADS.values():
        for e in w.experiments:
            assert resolved_dimension(cli, e, w.name) == e.dimension, (w.name, e.name)


def test_dense_probes_over_the_cap_are_skipped_and_never_started(monkeypatch):
    from ppclust import core, shotnoise

    def refuse(*args, **kwargs):
        raise AssertionError("a probe over the memory cap was started")

    monkeypatch.setattr(layers, "PROBE_SIZES", {300: "n300"})
    monkeypatch.setattr(layers, "PROBE_MEMORY_CAP_BYTES", 1000)
    monkeypatch.setattr(core, "pairwise_distances", refuse)
    monkeypatch.setattr(shotnoise, "coverage_field", refuse)
    metrics, skipped = trace_child.kernel_probes(seed=1)
    assert sorted(metrics) == [
        "probe.percolation.components.n300_ms",
        "probe.percolation.gilbert_graph.n300_ms",
        "probe.procgen.sample.n300_ms",
    ]
    assert {s["metric"]: s["bytes"] for s in skipped} == {
        "probe.core.pairwise_distances.n300_ms": 300 * 300 * 2 * 8,
        "probe.shotnoise.coverage_field.n300_ms": 64 * 64 * 300 * 2 * 8,
    }


def _span(spans: list, name: str, parent, start: float, end: float, **counts) -> int:
    spans.append({"id": len(spans), "parent": parent, "name": name, "replay": False,
                  "counts": counts, "start": start, "end": end})
    return len(spans) - 1


def test_sampler_distances_are_not_counted_and_unreached_layers_are_skipped():
    spans = []
    sample = _span(spans, "procgen.sample", None, 0.0, 1.0, points=1024)
    _span(spans, "core.pairwise_distances", sample, 0.1, 0.9, bytes=1024 * 1024 * 2 * 8)
    ripley = _span(spans, "summaries.ripley_k", None, 1.0, 2.0)
    _span(spans, "core.pairwise_distances", ripley, 1.2, 1.5, bytes=300 * 300 * 2 * 8)
    metrics, skipped = trace_child.layer_metrics(spans)
    assert metrics["core.pairwise_bytes"] == 300 * 300 * 2 * 8
    assert metrics["core.pairwise_distances_ms.count"] == 1
    assert metrics["core.pairwise_distances_ms.p50"] == pytest.approx(300.0)
    assert metrics["summaries.ripley_k.self_s"] == pytest.approx(0.7)
    reasons = {s["metric"]: s["reason"] for s in skipped}
    assert reasons["percolation.gilbert_graph_ms.p50"] == trace_child.NOT_REACHED
    assert metrics["percolation.gilbert_graph_ms.p50"] == 0.0
    assert metrics["percolation.gilbert_graph_ms.count"] == 0
    assert "core.pairwise_bytes" not in reasons and "summaries.ripley_k_s" not in reasons


def test_benchmark_json_matches_the_workloads_and_layer_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.per_layer_metrics()
    ]
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "wall_1t_s", "setup_s", "peak_rss_mb"}
