"""Regenerate references.json: the gate's reference estimates.

Usage (from the root of a checkout): python3 bench/make_references.py

Runs every workload once per reference seed and stores, for each checked
scalar of each experiment (see gate.CHECKED_COLUMNS), its mean and standard
deviation over the seeds.  Regenerate only when an experiment's config
changes; a change to the program is judged against the stored values.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys

import gate
from run import OUT, ROOT, experiment_pass
from workloads import WORKLOADS

REFERENCE_SEEDS = tuple(range(9001, 9041))


def main() -> int:
    work = OUT / "references"
    shutil.rmtree(work, ignore_errors=True)
    experiments = {}
    for workload in WORKLOADS.values():
        samples = {e.name: {} for e in workload.experiments}
        for seed in REFERENCE_SEEDS:
            record = experiment_pass(workload, seed, 2, work / workload.name / str(seed))
            for e, result in zip(workload.experiments, record["results"]):
                if result["code"] != 0:
                    raise SystemExit(f"{workload.name}/{e.name} seed {seed}: exit {result['code']}")
                for key, value in gate.scalars(record["dir"] / e.name).items():
                    samples[e.name].setdefault(key, []).append(value)
            print(f"{workload.name} seed {seed}: {record['wall']:.2f} s", flush=True)
        for name, columns in samples.items():
            experiments[f"{workload.name}/{name}"] = {
                key: {"mean": statistics.fmean(v), "sd": statistics.stdev(v), "n": len(v)}
                for key, v in columns.items()
            }
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    with open(gate.REFERENCES, "w") as handle:
        json.dump(
            {"commit": commit, "seeds": list(REFERENCE_SEEDS), "experiments": experiments},
            handle,
            indent=1,
            sort_keys=True,
        )
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
