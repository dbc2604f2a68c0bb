"""Per-layer metrics of the traced run, and which end-to-end metric each
should move on which workload.

The layers are the ``ppclust`` modules.  A ``_ms`` metric is per call and
reported as ``.p50`` and ``.p90`` with its ``.count``; a ``_s`` metric is the
total time spent in that function during the traced experiments.  The map
is written down before any optimisation so that a later change can be
judged against it: a faster layer should move the named end-to-end metric
on the named workload, and nothing elsewhere.
"""

from __future__ import annotations

# Per-call timings: metric stem -> traced function.
PER_CALL = {
    "procgen.sample_ms": "procgen.sample",
    "percolation.gilbert_graph_ms": "percolation.gilbert_graph",
    "percolation.components_ms": "percolation.components",
    "percolation.sinr_graph_ms": "percolation.sinr_graph",
    "summaries.close_pair_count_ms": "summaries.close_pair_count",
    "core.pairwise_distances_ms": "core.pairwise_distances",
    "shotnoise.coverage_field_ms": "shotnoise.coverage_field",
    "graphs.rgg_ms": "graphs.rgg",
    "graphs.graph_stats_ms": "graphs.graph_stats",
    "complexes.cech_complex_ms": "complexes.cech_complex",
    "complexes.betti_numbers_ms": "complexes.betti_numbers",
    "dists.check_cx_ms": "dists.check_cx",
}

# Total time in an estimator: metric -> traced function.
TOTALS = {
    "percolation.sweep_s": "percolation.component_fraction_sweep",
    "percolation.crossing_probability_s": "percolation.crossing_probability",
    "percolation.critical_radius_s": "percolation.critical_radius",
    "summaries.ripley_k_s": "summaries.ripley_k",
    "summaries.pair_correlation_s": "summaries.pair_correlation",
    "compare.weak_poisson_test_s": "compare.weak_poisson_test",
    "shotnoise.k_covered_volume_s": "shotnoise.k_covered_volume",
    "graphs.scaling_experiment_s": "graphs.scaling_experiment",
    "complexes.betti_scaling_experiment_s": "complexes.betti_scaling_experiment",
}

# Estimators whose self time (span minus the traced calls made inside it:
# sampling, kernels, nested estimators) is the replication loop and the
# reduction, plus whatever work the estimator inlines.
ESTIMATORS = tuple(TOTALS.values())

# Mean of a count recorded at a call boundary: metric -> (function, count).
COUNT_MEANS = {
    "procgen.points_mean": ("procgen.sample", "points"),
    "percolation.edges_mean": ("percolation.gilbert_graph", "edges"),
    "percolation.candidate_pairs_mean": ("percolation._candidate_pairs", "pairs"),
    "complexes.faces_mean": ("complexes.cech_complex", "faces"),
}

CLI_COMMANDS = (
    "percolation",
    "summary",
    "compare",
    "coverage",
    "sinr",
    "graph",
    "complex",
    "kernel_chain",
)

# Kernel probes at fixed sizes on a unit-intensity Poisson torus.
PROBE_SIZES = {1_000: "n1e3", 10_000: "n1e4", 100_000: "n1e5"}
PROBE_KERNELS = (
    "procgen.sample",
    "percolation.gilbert_graph",
    "percolation.components",
    "core.pairwise_distances",
    "shotnoise.coverage_field",
)
# Dense probes that would allocate more than this are recorded as skipped.
PROBE_MEMORY_CAP_BYTES = 512 * 2**20
# Probes that fit the cap at every size, or only at the smallest one.
PROBE_METRICS = tuple(
    f"probe.{kernel}.{tag}_ms"
    for kernel in PROBE_KERNELS[:3]
    for tag in PROBE_SIZES.values()
) + tuple(f"probe.{kernel}.n1e3_ms" for kernel in PROBE_KERNELS[3:])


def per_layer_metrics() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for stem in PER_CALL:
        out += [(f"{stem}.p50", "ms", "lower"), (f"{stem}.p90", "ms", "lower")]
        out.append((f"{stem}.count", "count", "lower"))
    out += [(name, "s", "lower") for name in TOTALS]
    out += [(f"{fn}.self_s", "s", "lower") for fn in ESTIMATORS]
    out += [(name, "count", "lower") for name in COUNT_MEANS]
    out += [
        ("percolation.edge_yield", "ratio", "higher"),
        ("core.pairwise_bytes", "bytes", "lower"),
        ("core.speedup_2t", "ratio", "higher"),
    ]
    out += [(f"cli.{command}_s", "s", "lower") for command in CLI_COMMANDS]
    out += [("cli.artifact_bytes", "bytes", "lower"), ("trace.overhead_s", "s", "lower")]
    out += [(name, "ms", "lower") for name in PROBE_METRICS]
    return out


# Metric (or metric stem) -> (end-to-end metrics it should move, workloads).
# Elsewhere the prediction is no change.
LAYER_MAP = {
    "procgen.sample_ms": ("wall_s wall_1t_s", "combinatorial (Ginibre)"),
    "procgen.points_mean": ("wall_s wall_1t_s", "combinatorial"),
    "percolation.gilbert_graph_ms": ("wall_s wall_1t_s", "perc_small perc_large"),
    "percolation.edges_mean": ("wall_s wall_1t_s", "perc_small perc_large"),
    "percolation.candidate_pairs_mean": ("wall_s wall_1t_s", "perc_small perc_large"),
    "percolation.edge_yield": ("wall_s wall_1t_s", "perc_small perc_large"),
    "percolation.components_ms": ("wall_1t_s wall_s", "perc_large"),
    "percolation.sweep_s": ("wall_1t_s wall_s", "perc_large perc_small"),
    "percolation.crossing_probability_s": ("wall_s", "perc_small"),
    "percolation.critical_radius_s": ("wall_s", "perc_small"),
    "percolation.sinr_graph_ms": ("wall_s peak_rss_mb", "combinatorial"),
    "summaries.close_pair_count_ms": ("wall_s peak_rss_mb", "second_order"),
    "summaries.ripley_k_s": ("wall_s peak_rss_mb", "second_order"),
    "summaries.pair_correlation_s": ("wall_s peak_rss_mb", "second_order"),
    "core.pairwise_distances_ms": ("wall_s peak_rss_mb", "second_order"),
    "core.pairwise_bytes": ("peak_rss_mb", "second_order"),
    "compare.weak_poisson_test_s": ("wall_s", "second_order"),
    "shotnoise.coverage_field_ms": ("wall_s peak_rss_mb", "second_order"),
    "shotnoise.k_covered_volume_s": ("wall_s peak_rss_mb", "second_order"),
    "graphs.rgg_ms": ("wall_1t_s (wall_s via a process pool)", "combinatorial"),
    "graphs.graph_stats_ms": ("wall_1t_s (wall_s via a process pool)", "combinatorial"),
    "graphs.scaling_experiment_s": ("wall_1t_s (wall_s via a process pool)", "combinatorial"),
    "complexes.cech_complex_ms": ("wall_1t_s wall_s", "combinatorial"),
    "complexes.betti_numbers_ms": ("wall_1t_s wall_s", "combinatorial"),
    "complexes.betti_scaling_experiment_s": ("wall_1t_s wall_s", "combinatorial"),
    "complexes.faces_mean": ("wall_1t_s wall_s", "combinatorial"),
    "dists.check_cx_ms": ("none (sentinel)", "combinatorial"),
    "*.self_s": ("wall_s", "all"),
    "core.speedup_2t": ("wall_s", "all; a process pool should raise it on perc_large and combinatorial"),
    "cli.*_s": ("wall_s", "all"),
    "cli.artifact_bytes": ("wall_s", "all"),
    "trace.overhead_s": ("none (tracing cost)", "all"),
    "probe.*": ("wall_s wall_1t_s peak_rss_mb of the workload using that kernel", "all"),
}
