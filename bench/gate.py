"""Correctness gate applied to every experiment invocation.

An invocation fails when it exits non-zero, when its artifacts differ in any
byte from the same experiment's artifacts at the other thread count, or
when one of its estimates leaves the tolerance around the reference values
stored in ``references.json``.  The references are the program's own
outputs at the commit that defined the benchmark, over 40 reference
seeds: a checked scalar must lie within ``Z_TOLERANCE`` standard deviations
of their mean.  A tolerance rather than a digest lets a change redraw its
random numbers (for example common random numbers across radii) and still
pass, while a wrong kernel moves the estimates by far more than that.  The
experiments carry enough replications that every band lies strictly inside
its scalar's valid range (``test_bench.py`` checks this), so a degenerate
kernel, such as a crossing test that always answers 0 or 1 or a Betti count
that is always 0, fails the gate.
On top of the references come the pinned facts the test suite already
asserts: every ``kernel_chain`` verdict at the default parameters is
``holds``, and SINR edge counts never grow with interference.  The pinned
Poisson values (r_c = 0.558 +- 0.05, and r_c inside the rigorous bracket)
hold for the acceptance test's 60 replications on a 30x30 window, not for
the few replications on 20x20 that a benchmark pass can afford: there a
correct program lands below the bracket's lower end on some seeds, so the
critical radius is checked against its references only.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Six reference SDs: with the SD taken from 40 seeds, a correct program
# leaves the band about once in a million checks.
Z_TOLERANCE = 6.0

# Artifact file -> the estimate columns checked against the references.  Each
# column is reduced to its mean over rows, which averages away most of the
# per-row Monte Carlo noise.
CHECKED_COLUMNS = {
    "sweep_a.csv": ("largest_fraction", "second_fraction"),
    "sweep_b.csv": ("largest_fraction", "second_fraction"),
    "critical.csv": ("r_c",),
    "crossing.csv": ("crossing_prob",),
    "curve.csv": ("estimate",),
    "ordering_voids.csv": ("estimate",),
    "ordering_factorial_moments_2.csv": ("estimate",),
    "ordering_factorial_moments_3.csv": ("estimate",),
    "coverage.csv": ("volume",),
    "scaling.csv": ("mean_clique", "mean_max_degree", "mean_edges"),
    "betti.csv": ("mean_betti",),
    "summary.csv": ("n_edges",),
    "gamma_sweep.csv": ("n_edges",),
    "chain.csv": ("min_slack",),
}


def _rows(path: Path) -> list:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def scalars(out_dir: Path) -> dict:
    """Checked scalars of one experiment's artifacts, keyed file:column."""
    found = {}
    for name, columns in CHECKED_COLUMNS.items():
        path = out_dir / name
        if not path.is_file():
            continue
        rows = _rows(path)
        for column in columns:
            values = [float(row[column]) for row in rows if row[column] != ""]
            if values:
                found[f"{name}:{column}"] = math.fsum(values) / len(values)
    return found


def pinned_failures(out_dir: Path) -> list:
    """Violations of reference facts the test suite pins, as messages."""
    failures = []
    chain = out_dir / "chain.csv"
    if chain.is_file():
        bad = [row for row in _rows(chain) if row["verdict"] != "holds"]
        if bad:
            failures.append(f"chain.csv: {len(bad)} pair(s) not 'holds'")
    gammas = out_dir / "gamma_sweep.csv"
    if gammas.is_file():
        edges = [int(row["n_edges"]) for row in _rows(gammas)]
        if any(b > a for a, b in zip(edges, edges[1:])):
            failures.append(f"gamma_sweep.csv: edge counts grow with gamma: {edges}")
    return failures


def tolerance(ref: dict, z: float = Z_TOLERANCE) -> float:
    """Half-width of a reference's band: z SDs, plus rounding slack."""
    return z * ref["sd"] + 1e-9 * max(1.0, abs(ref["mean"]))


def reference_failures(found: dict, reference: dict, z: float = Z_TOLERANCE) -> list:
    """Scalars missing, extra, or further than z reference SDs from the mean."""
    failures = []
    for key in sorted(set(reference) - set(found)):
        failures.append(f"{key}: missing from the artifacts")
    for key in sorted(set(found) - set(reference)):
        failures.append(f"{key}: no reference value")
    for key in sorted(set(found) & set(reference)):
        ref = reference[key]
        tol = tolerance(ref, z)
        if not abs(found[key] - ref["mean"]) <= tol:
            failures.append(
                f"{key}: {found[key]:.6g} vs reference {ref['mean']:.6g} "
                f"+- {tol:.3g} ({z:g} sd of {ref['n']} seeds)"
            )
    return failures


def differing_files(a: Path, b: Path) -> list:
    """Artifact names whose bytes differ between two output directories."""
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    return [
        name
        for name in names
        if not ((a / name).is_file() and (b / name).is_file())
        or (a / name).read_bytes() != (b / name).read_bytes()
    ]


def load_references(path: Path = REFERENCES) -> dict:
    with open(path) as handle:
        return json.load(handle)
