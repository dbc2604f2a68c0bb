"""ppclust benchmark: fixed CLI experiments as named workloads.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    for w in perc_small perc_large second_order combinatorial; do
        python3 bench/run.py --workload $w --seed 1 --seconds 30 --trace 0; done

Load model: batch compute in a closed loop with one client.  A pass is one
fresh interpreter that imports ``ppclust.cli`` and then runs the workload's
experiments one after another through ``cli.main``; passes alternate between
``--threads 2`` and ``--threads 1``, a fixed number of pairs per workload
sized to take about ``--seconds``.  The workload seed reaches the program
only through ``--seed``.

End-to-end metrics (``--trace 0``):

- ``wall_s``: wall time of the workload's experiments at ``--threads 2``,
  summed over experiments of each one's fastest time over the passes,
  excluding interpreter start-up and imports;
- ``wall_1t_s``: the same at ``--threads 1``;
- ``setup_s``: median, over every fresh process of the run, of the time from
  process start until ``ppclust.cli`` is imported and ready;
- ``peak_rss_mb``: peak resident set size (MiB) of a pass: for each thread
  count the median over its passes, and the higher of the two.  A plain
  maximum over passes grows with the number of passes a run fits and with
  how two threads' allocations happen to overlap.

``attempted`` and ``failed`` in the result line are the experiment
invocations run and those that failed the gate in ``gate.py`` (they are
printed as ``ops`` and ``ops_failed``).  With ``--trace 1`` the run makes
one untraced pass at each thread count and one traced run
(``trace_child.py``), and reports the per-layer metrics of ``layers.py``;
``trace.overhead_s`` is the traced experiments' time minus the untraced
``--threads 1`` pass, since the traced run uses one thread.  A per-layer
metric whose layer the workload does not reach is reported as 0 and listed
under ``skipped`` in the record, with the reason.

The last line of standard output is one JSON object; the full record
(provenance, resolved manifests, gate messages, skipped metrics) is written
to ``.bench_out/<workload>/seed<N>-trace<T>/record.json`` and the spans of a
traced run to ``spans.json`` beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import layers
from workloads import WORKLOADS, resolved_dimension

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

CHILD_TIMEOUT_S = 150
PROBE_SEED = 1


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PPCLUST_THREADS", None)
    return env


def _check_module(path: str):
    if Path(path).resolve().parent != (SRC / "ppclust").resolve():
        raise BenchError(f"ppclust imported from {path}, not from {SRC}")


def run_pass(jobs: list, workdir: Path) -> dict:
    """One fresh-process pass over argv jobs; adds 'setup_s' to the record."""
    workdir.mkdir(parents=True, exist_ok=True)
    jobs_path, result_path = workdir / "jobs.json", workdir / "result.json"
    jobs_path.write_text(json.dumps(jobs))
    command = [sys.executable, str(BENCH / "pass_child.py"), str(jobs_path), str(result_path)]
    spawned = time.monotonic()
    proc = subprocess.run(
        command, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"pass process failed ({proc.returncode}): {proc.stderr[-2000:]}")
    record = json.loads(result_path.read_text())
    _check_module(record["module"])
    record["setup_s"] = record["ready"] - spawned
    return record


def experiment_pass(workload, seed: int, threads: int, pass_dir: Path) -> dict:
    jobs = [
        e.argv(workload.name, seed, threads, pass_dir / e.name) for e in workload.experiments
    ]
    record = run_pass(jobs, pass_dir)
    record["threads"] = threads
    record["dir"] = pass_dir
    record["wall"] = math.fsum(r["seconds"] for r in record["results"])
    return record


def judge(workload, passes: list, extra_dirs: dict) -> tuple:
    """Gate every invocation; returns (attempted, failed, messages).

    ``extra_dirs`` maps experiment name to further output directories (the
    traced run's) that must match the untraced artifacts byte for byte.
    """
    references = gate.load_references()["experiments"]
    attempted = failed = 0
    messages = []
    for i, e in enumerate(workload.experiments):
        runs = [(f"pass {k} (threads {p['threads']})", p["results"][i]["code"], p["dir"] / e.name)
                for k, p in enumerate(passes)]
        runs += extra_dirs.get(e.name, [])
        base = next((path for _, code, path in runs if code == 0), None)
        bad_estimates = []
        if base is not None:
            reference = references.get(f"{workload.name}/{e.name}", {})
            bad_estimates = gate.reference_failures(gate.scalars(base), reference)
            bad_estimates += gate.pinned_failures(base)
            messages += [f"{e.name}: {m}" for m in bad_estimates]
        for label, code, path in runs:
            attempted += 1
            if code != 0:
                failed += 1
                messages.append(f"{e.name} {label}: exit code {code}")
                continue
            differing = gate.differing_files(base, path)
            if differing:
                messages.append(f"{e.name} {label}: artifacts differ: {', '.join(differing)}")
            if differing or bad_estimates:
                failed += 1
    return attempted, failed, messages


def dimension_failures(cli, workload) -> list:
    messages = []
    for e in workload.experiments:
        got = resolved_dimension(cli, e, workload.name)
        if got != e.dimension:
            messages.append(
                f"{workload.name}/{e.name}: config resolves to dimension {got}, "
                f"the workload intends {e.dimension}"
            )
    return messages


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def provenance(workload, seed: int, passes: list) -> dict:
    import numpy
    import scipy

    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = _read(index / "size")
    mem_kb = next(
        (int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
         if line.startswith("MemTotal:")),
        0,
    )
    commit = None
    try:
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        lines = []
    if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:  # not an enclosing repo
        commit = lines[1]
    digest = hashlib.sha256()
    for path in sorted((SRC / "ppclust").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    manifests = {}
    for e in workload.experiments:
        manifest = passes[0]["dir"] / e.name / "manifest.ini"
        if manifest.is_file():
            manifests[e.name] = {
                "command": e.command,
                "path": str(manifest.relative_to(ROOT)),
                "text": manifest.read_text(),
            }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "ram_gib": round(mem_kb / 2**20, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": workload.name,
        "seed": seed,
        "manifests": manifests,
        "rerun": "ppclust <command> --config <path> --out DIR  (PYTHONPATH=src)",
    }


def _wall(passes: list, threads: int) -> float:
    """Sum over experiments of each one's fastest time across the passes.

    The experiments are deterministic CPU-bound work, so their time varies
    only with interference.  On a small shared VM a whole pass can run in a
    slow mode about 35% behind the fast one; a run holds only two or three
    passes per thread count, so a median still moves with how many of them
    fell into it, and the minimum per experiment does not.
    """
    chosen = [p for p in passes if p["threads"] == threads]
    return math.fsum(
        min(p["results"][i]["seconds"] for p in chosen)
        for i in range(len(chosen[0]["results"]))
    )


def measure(workload, seed: int, seconds: float, run_dir: Path) -> tuple:
    """The workload's untraced pass pairs; returns (metrics, passes).

    A run makes ``workload.pairs`` pairs, fewer only when the next pair would
    end more than a quarter past ``seconds``.  The count is fixed because the
    fastest of three passes reads lower than the fastest of two.  Pairs
    alternate which thread count runs first, so both sample the same
    stretches of machine time.  Every pass is a fresh process and so gives
    one set-up sample.
    """
    passes = []
    start = time.monotonic()
    for _ in range(workload.pairs):
        pair_start = time.monotonic()
        order = (2, 1) if len(passes) % 4 == 0 else (1, 2)
        for threads in order:
            passes.append(
                experiment_pass(workload, seed, threads, run_dir / f"p{len(passes)}-t{threads}")
            )
        now = time.monotonic()
        if now - start + (now - pair_start) > 1.25 * seconds:
            break
    metrics = {
        "wall_s": _wall(passes, 2),
        "wall_1t_s": _wall(passes, 1),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": max(
            statistics.median(p["maxrss_kb"] for p in passes if p["threads"] == threads)
            for threads in (1, 2)
        ) / 1024.0,
    }
    units = {"wall_s": "s", "wall_1t_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, passes


def traced(workload, seed: int, run_dir: Path) -> tuple:
    """Untraced pass at each thread count, then the traced run."""
    passes = [
        experiment_pass(workload, seed, threads, run_dir / f"p{k}-t{threads}")
        for k, threads in enumerate((2, 1))
    ]
    wall = {p["threads"]: p["wall"] for p in passes}
    traced_dir = run_dir / "traced"
    spec = {
        "jobs": [(e.command, e.argv(workload.name, seed, 1, traced_dir / e.name))
                 for e in workload.experiments],
        "probe_seed": PROBE_SEED,
    }
    spec_path, result_path = run_dir / "trace_spec.json", run_dir / "trace_result.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "trace_child.py"), str(spec_path), str(result_path),
         str(run_dir / "spans.json")],
        cwd=BENCH, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"traced run failed ({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    _check_module(result["module"])

    values, skipped = dict(result["metrics"]), list(result["skipped"])
    values.update(result["probes"])
    values["core.speedup_2t"] = wall[1] / wall[2]
    untraced_cli = {}
    for i, e in enumerate(workload.experiments):
        untraced_cli[e.command] = untraced_cli.get(e.command, 0.0) + passes[0]["results"][i]["seconds"]
    for command in layers.CLI_COMMANDS:
        name = f"cli.{command}_s"
        values[name] = untraced_cli.get(command, 0.0)
        if command not in untraced_cli:
            skipped.append({"metric": name, "reason": "experiment not run by this workload"})
    values["cli.artifact_bytes"] = sum(
        f.stat().st_size for e in workload.experiments for f in (passes[0]["dir"] / e.name).iterdir()
    )
    traced_wall = sum(result["cli_s"].values())
    values["trace.overhead_s"] = traced_wall - wall[1]

    units = {name: unit for name, unit, _ in layers.per_layer_metrics()}
    missing = [n for n in units if n not in values or not math.isfinite(values[n])]
    if missing:
        raise BenchError(f"per-layer metrics without a value: {missing}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    extra = {
        e.name: [("traced run", code, traced_dir / e.name)]
        for e, code in zip(workload.experiments, result["codes"])
    }
    details = {
        "skipped": skipped,
        "traced_wall_s": traced_wall,
        "layer_map": layers.LAYER_MAP,
    }
    return metrics, passes, extra, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so subprocess.run kills and reaps
    # the pass or traced child it is waiting on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "ppclust" / "cli.py").is_file():
        print(f"bench: no ppclust sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("bench: --seed must be non-negative", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run_dir = OUT / workload.name / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    sys.path.insert(0, str(SRC))
    try:
        from ppclust import cli

        _check_module(cli.__file__)
        messages = dimension_failures(cli, workload)
        if args.trace:
            metrics, passes, extra, details = traced(workload, args.seed, run_dir)
        else:
            metrics, passes = measure(workload, args.seed, args.seconds, run_dir)
            extra = {}
            details = {"setup_samples_s": [p["setup_s"] for p in passes]}
        attempted, failed, gate_messages = judge(workload, passes, extra)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    messages += gate_messages
    correct = failed == 0 and not messages

    record = {
        "provenance": provenance(workload, args.seed, passes),
        "metrics": metrics,
        "ops": attempted,
        "ops_failed": failed,
        "gate": messages,
        "pass_walls_s": [(p["threads"], p["wall"]) for p in passes],
        "pass_seconds": [(p["threads"], [r["seconds"] for r in p["results"]]) for p in passes],
        "pass_maxrss_kb": [(p["threads"], p["maxrss_kb"]) for p in passes],
        **details,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1))
    for p in passes[1:]:  # the first pass keeps the artifacts and manifests
        shutil.rmtree(p["dir"], ignore_errors=True)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  passes {len(passes)}")
    skipped = {s["metric"]: s["reason"] for s in details.get("skipped", ())}
    for name, m in metrics.items():
        tag = f"  [skipped: {skipped[name]}]" if name in skipped else ""
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}{tag}")
    print(f"  {'ops':48s} {attempted} count")
    print(f"  {'ops_failed':48s} {failed} count")
    for message in messages:
        print(f"  gate: {message}")
    prov = {k: v for k, v in record["provenance"].items() if k != "manifests"}
    print("provenance " + json.dumps(prov))
    print(f"record {run_dir.relative_to(ROOT) / 'record.json'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
