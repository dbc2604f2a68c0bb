"""The design rules of ``src/ppclust``: one way to do each thing.

Each rule is named after the job it keeps in one place (one dense distance
kernel, one window contract, ...; ROADMAP.md's design aim says where each
lives) and fails on a shape that would bring back a second copy of it.
The rules read the syntax tree, so neither a docstring nor the form of a
statement (``x = f(...)`` or ``return f(...)``) changes what they see; the
three rules about tokens read the text.  A new rule is one row of a table.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TEXT = {path.stem: path.read_text() for path in sorted(ROOT.glob("src/ppclust/*.py"))}
TREES = {module: ast.parse(text) for module, text in TEXT.items()}
ALL = frozenset(TREES)


def scope(where):
    """The tree of a module, or of one function named "module.function"."""
    module, _, fname = where.partition(".")
    defs = (n for n in ast.walk(TREES[module]) if isinstance(n, ast.FunctionDef))
    return next(n for n in defs if n.name == fname) if fname else TREES[module]


def name(node):
    """The identifier a node uses, defines, imports or binds, else None."""
    found = (getattr(node, field, None) for field in ("id", "attr", "name", "arg"))
    return next((v for v in found if isinstance(v, str)), None)


def named(*names):
    return lambda node: name(node) in names


def calls(*names):
    return lambda node: isinstance(node, ast.Call) and name(node.func) in names


def holds(test):
    return lambda node: any(map(test, ast.walk(node)))


# (rule, modules or "module.function"s, test on a node, count): exactly
# `count` nodes there pass the test, so a count of 0 forbids a shape.
RULES = [
    ("dense reductions stream row blocks", ALL,
     lambda n: calls("sum", "max")(n) and holds(calls("pairwise_distances"))(n), 0),
    ("dense reductions stream row blocks", {"shotnoise"}, named("pairwise_distances"), 0),
    ("dense reductions stream row blocks", {"percolation"}, calls("pairwise_distances"), 1),
    ("one window contract", ALL - {"core"},
     lambda n: calls("min")(n) and holds(named("sides"))(n), 0),
    ("one radius-grid contract", ALL, named("_check_grid", "_positive_scales"), 0),
    ("one radius-grid contract", ALL,
     lambda n: calls("unique")(n) and holds(lambda a: str(name(a)).startswith("scales"))(n), 0),
    ("one region-count replication", ALL - {"summaries"}, named("_counts_in_regions"), 0),
    ("one region query per replication", {"summaries"}, calls("_counts_in_regions"), 1),
    ("one region query per replication", {"summaries._region_estimates"},
     lambda n: calls("_counts_in_regions")(n) and holds(named("regions"))(n), 1),
    ("region counts are reduced in their replication", {"summaries._region_estimates"},
     lambda n: calls("array")(n) and holds(calls("replicate"))(n), 0),
    ("region counts come from counting queries", {"summaries"},
     named("near_pairs", "min_image", "sparse_distance_matrix", "cKDTree"), 0),
    ("one multi-region estimator", {"compare"},
     named("void_probability", "factorial_moment", "count_variance"), 0),
    ("one region estimator", {"compare"}, named("_region_counts", "_falling_factorial"), 0),
    ("one clique candidate kernel", ALL, named("intersection", "intersection_update"), 0),
    ("one Ginibre sampler", ALL,
     named("_ginibre_basis", "gammaincinv", "MAX_GINIBRE_PROPOSALS"), 0),
    ("one SINR pass per pattern", {"cli"}, named("sinr_graph", "_sinr_graphs"), 0),
    ("one SINR pass per pattern", {"cli"}, calls("sinr_graphs"), 1),
    ("the CLI calls only public library functions", {"cli"},
     lambda n: isinstance(n, ast.Attribute) and n.attr.startswith("_"), 0),
    ("one pass over each radius grid", {"cli"},
     lambda n: calls("derive")(n) and any(not isinstance(a, ast.Constant) for a in n.args), 0),
    ("one pass over each radius grid", ALL, named("_crossing_curve", "_coverage_curve"), 0),
    ("one tree query per crossing threshold", {"percolation"}, named("crosses"), 0),
    ("one tree query per crossing threshold", {"percolation"}, calls("minimum_spanning_tree"), 1),
    ("one labelling per radius grid", {"percolation"}, named("argsort"), 0),
    ("one labelling per radius grid", {"percolation"},
     lambda n: isinstance(n, ast.Slice) and n.lower is None and name(n.upper) == "m", 0),
    ("one planar Betti kernel", ALL - {"complexes"}, named("Delaunay"), 0),
    ("one planar Betti kernel", {"complexes"}, calls("Delaunay"), 1),
    ("one planar Betti pass per row", ALL, named("_planar_betti"), 0),
    ("one planar Betti pass per row", {"complexes"}, calls("_component_labels"), 1),
    ("one crossing kernel", ALL, named("_spans"), 0),
    ("one crossing kernel", {"percolation"}, calls("breadth_first_order"), 1),
    ("one crossing kernel", {"percolation"}, calls("_gilbert_labels"), 1),
    ("one crossing kernel answers every pattern of a group", ALL,
     named("_source_sink_rank", "_crossing_threshold"), 0),
    ("one crossing edge rule", ALL, named("_entry_radii"), 0),
    ("one crossing edge rule", {"percolation"},
     lambda n: isinstance(n, ast.BinOp) and re.search(r"lower \+ 2|upper - 2", ast.unparse(n)), 0),
    ("one prepared sampler", {"compare", "complexes", "graphs", "percolation", "shotnoise",
                              "summaries"}, lambda n: str(name(n)).endswith("sample"), 0),
    # Both uses, the import and the call, sit in core.replicate.
    ("one thread pool", ALL, named("ThreadPoolExecutor", "Thread", "threading", "run_indexed"), 2),
    ("one thread pool", {"core.replicate"}, named("ThreadPoolExecutor"), 2),
]

# (rule, text, the one "module.function" that may hold it, or None).
TEXT_RULES = [
    ("one dense distance kernel", "[None, :, :]", "core._distance_blocks"),
    ("one radius-grid contract", "strictly increasing", None),
    ("one pair order", "lexsort", "core.sort_points"),
]


@pytest.mark.parametrize("rule, where, test, count", RULES, ids=[r[0] for r in RULES])
def test_design_rule(rule, where, test, count):
    found = [f"{w}:{n.lineno}" for w in sorted(where) for n in ast.walk(scope(w)) if test(n)]
    assert len(found) == count, f"{rule}: {found}"


@pytest.mark.parametrize("rule, text, exempt", TEXT_RULES, ids=[r[0] for r in TEXT_RULES])
def test_design_rule_on_text(rule, text, exempt):
    for module, source in TEXT.items():
        lines = source.splitlines()
        if exempt and exempt.startswith(module + "."):
            del lines[scope(exempt).lineno - 1 : scope(exempt).end_lineno]
        assert text not in "\n".join(lines), f"{rule}: {module}.py"


STARTUP = """
import sys
import numpy, scipy.spatial, scipy.sparse.csgraph, scipy.special
base = set(sys.modules)
import ppclust.cli
print(*sorted(m for m in set(sys.modules) - base if m.split(".")[0] == "scipy"))
"""


def test_cli_start_up_loads_only_the_scipy_it_runs():
    # Import any other scipy module inside the function that calls it, as
    # shotnoise.level_exceedance_bound does.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", STARTUP], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert run.stdout.split() == []


def test_every_traced_name_resolves(monkeypatch):
    # bench/trace_child.install looks up each traced name with getattr, so a
    # deleted or renamed one crashes every traced benchmark run.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    layers, trace_child = map(importlib.import_module, ("layers", "trace_child"))
    names = [n.split(".") for n in [*trace_child.TRACED, *layers.PROBE_KERNELS]]
    assert [m for m, f in names if not hasattr(importlib.import_module(f"ppclust.{m}"), f)] == []
