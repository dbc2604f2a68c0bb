"""The benchmark's workloads: which CLI experiments each one runs, and why.

Every experiment is a config under ``configs/<workload>/<name>.ini`` run as
``ppclust <command> --config FILE --seed N --threads K --out DIR``.  The
workload seed reaches the program only through ``--seed`` (and not at all
for ``kernel_chain``, which is deterministic and rejects a seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


@dataclass(frozen=True)
class Experiment:
    name: str  # config stem, unique within its workload
    command: str  # the ppclust experiment
    dimension: int  # the window dimension the config must resolve to

    @property
    def seeded(self) -> bool:
        return self.command != "kernel_chain"

    def config(self, workload: str) -> Path:
        return CONFIG_DIR / workload / f"{self.name}.ini"

    def argv(self, workload: str, seed: int, threads: int, out: Path) -> list:
        argv = [self.command, "--config", str(self.config(workload))]
        if self.seeded:
            argv += ["--seed", str(seed)]
        return argv + ["--threads", str(threads), "--out", str(out)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiments: tuple
    pairs: int  # pass pairs per run, about 30 s of passes on a 2-vCPU VM


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "perc_small",
            "percolation patterns below 2048 points: all-pairs numpy neighbour "
            "search, argsort-heavy sweep, resampling critical-radius bisection",
            (
                Experiment("sweep_unit_lattice", "percolation", 2),
                Experiment("sweep_geometric_lattice", "percolation", 2),
                Experiment("critical_poisson", "percolation", 2),
                Experiment("crossing_poisson", "percolation", 2),
            ),
            3,
        ),
        Workload(
            "perc_large",
            "percolation patterns above 2048 points: Python bucket-grid "
            "neighbour search and union-find, GIL-bound at any thread count",
            (
                Experiment("sweep_poisson", "percolation", 2),
                Experiment("sweep_nb_lattice", "percolation", 2),
                Experiment("sweep_geometric_lattice", "percolation", 2),
                Experiment("sweep_thomas", "percolation", 2),
            ),
            3,
        ),
        Workload(
            "second_order",
            "no graph work: dense n x n x d and grid x n distance kernels behind "
            "Ripley K, pair correlation, the weak Poisson test and k-coverage",
            (
                Experiment("ripley_thomas", "summary", 2),
                Experiment("pcf_poisson", "summary", 2),
                Experiment("weak_lgcp", "compare", 2),
                Experiment("coverage_k2", "coverage", 2),
            ),
            6,
        ),
        Workload(
            "combinatorial",
            "graphs, complexes and exact count laws: DSATUR and clique search, "
            "Cech miniballs, SINR, and the Ginibre sampler",
            (
                Experiment("graph_poisson", "graph", 2),
                Experiment("graph_ginibre", "graph", 2),
                Experiment("complex_cech", "complex", 2),
                Experiment("sinr_gammas", "sinr", 2),
                Experiment("kernel_chain", "kernel_chain", 0),
            ),
            3,
        ),
    )
}


def resolved_dimension(cli, experiment: Experiment, workload: str) -> int:
    """Dimension the experiment's config resolves to under the CLI's rules.

    ``[window] sides = 30`` without ``dimension = 2`` silently builds a 1-D
    window, so the benchmark checks what the CLI resolves, not what the
    config author meant.  Experiments without a window report the
    ``dimension`` key of their own section; ``kernel_chain`` reports 0.
    """
    raw = cli.read_config_file(experiment.config(workload))
    raw.pop("meta", None)
    rc = cli.resolve_config(experiment.command, raw)
    if rc.window is not None:
        return rc.window.dim
    section = rc.values.get(experiment.command, {})
    return int(section.get("dimension", 0))
