"""Configuration-driven experiment runner with deterministic artifacts.

``ppclust <experiment> --config FILE [--seed N] [--threads K] [--plot]
[--out DIR]`` reads a flat INI-style configuration (sections in brackets,
``key = value`` pairs), validates every key against the experiment's
schema before any computation starts, runs the experiment, and writes its
artifacts into the output directory:

- ``manifest.ini``: the fully resolved configuration (defaults included)
  plus the tool version.  Re-running from the manifest reproduces every
  CSV byte for byte.  The output directory and thread count are
  invocation properties, not experiment parameters, so they are not part
  of the manifest.
- CSV result files in the owning module's schema, all written by
  ``core.csv_text``, the one definition of the format (17 significant
  digits for floats, ``.`` decimal separator, LF line endings).
- optional minimal SVG plots (fixed 800x600 viewbox, one polyline per
  series, axes and legend) when ``--plot`` is given.

Any configuration key can be overridden on the command line with
``--section.key value`` pairs; ``--seed`` and ``--threads`` are shorthands
for the run seed and the parallelism cap.

Exit codes: 0 success, 2 configuration error (the message names the
offending key, and the line for file syntax errors), 3 runtime error
(module error messages are passed through verbatim).
"""

from __future__ import annotations

import argparse
import configparser
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import (
    __version__,
    compare,
    complexes,
    dists,
    graphs,
    percolation,
    procgen,
    shotnoise,
    summaries,
)
from .core import MAX_DIMENSION, RandomStream, Window, box, check_number, csv_text


class ConfigError(Exception):
    """Invalid or incomplete experiment configuration."""


# ---------------------------------------------------------------------------
# Value parsers.  Each turns the raw string into (typed value, canonical
# string); the canonical string round-trips through the manifest to the
# identical typed value.
# ---------------------------------------------------------------------------


def _num(kind: type, bound: Optional[str] = None, many: bool = False) -> Callable:
    """Parser for an int or finite float within ``bound``, checked by
    ``core.check_number`` (the library's own bound table).

    The canonical string is ``repr`` of the value; with ``many`` the value
    is a non-empty comma-separated list and the canonical strings are
    comma-joined.
    """
    noun, plain = ("integer", "an integer") if kind is int else ("number", "a number")

    def one(text: str) -> tuple:
        try:
            value = kind(text.strip())
        except ValueError:
            raise ConfigError(f"expected {plain}, got {text!r}")
        try:
            return check_number(repr(text), value, bound), repr(value)
        except ValueError as exc:
            raise ConfigError(str(exc))

    def listed(text: str) -> tuple:
        parts = [p for p in (piece.strip() for piece in text.split(",")) if p]
        if not parts:
            raise ConfigError(f"expected a comma-separated list of {noun}s")
        parsed = [one(part) for part in parts]
        return tuple(v for v, _ in parsed), ",".join(c for _, c in parsed)

    return listed if many else one


def _parse_bool(text: str) -> tuple:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True, "true"
    if lowered in ("false", "0", "no", "off"):
        return False, "false"
    raise ConfigError(f"expected true or false, got {text!r}")


def _choice(*options: str) -> Callable:
    def parse(text: str) -> tuple:
        value = text.strip().lower()
        if value not in options:
            raise ConfigError(f"expected one of {', '.join(options)}; got {text!r}")
        return value, value

    return parse


def _pairs(label: str, weight: Callable, value: Callable) -> Callable:
    """Parser for space-separated ``w:x`` pairs, ``label`` naming the form."""

    def parse(text: str) -> tuple:
        words = text.split()
        if not words:
            raise ConfigError(f"expected {label} pairs")
        pairs, canon = [], []
        for pair in words:
            if ":" not in pair:
                raise ConfigError(f"expected {label} pair, got {pair!r}")
            w_text, x_text = pair.split(":", 1)
            (w, cw), (x, cx) = weight(w_text), value(x_text)
            pairs.append((w, x))
            canon.append(f"{cw}:{cx}")
        return tuple(pairs), " ".join(canon)

    return parse


def _word_form(kind: str, table: dict) -> Callable:
    """Parser for ``name arg ...`` values.

    ``table`` maps each name to (factory, argument parsers).  The parsers
    are a tuple with one entry per word, or a single parser that takes all
    the words after the name.  The factory is called with the parsed
    arguments; its ValueError becomes a ConfigError.
    """

    def parse(text: str) -> tuple:
        words = text.split()
        if not words:
            raise ConfigError(f"expected one of {', '.join(table)}")
        name, args = words[0].lower(), words[1:]
        if name not in table:
            raise ConfigError(f"unknown {kind} {name!r}")
        factory, parsers = table[name]
        if not isinstance(parsers, tuple):
            parsers, args = (parsers,), [" ".join(args)]
        elif len(args) != len(parsers):
            raise ConfigError(
                f"{kind} {name!r} takes {len(parsers)} argument(s), got {len(args)}"
            )
        parsed = [parse_arg(arg) for parse_arg, arg in zip(parsers, args)]
        try:
            value = factory(*(v for v, _ in parsed))
        except ValueError as exc:  # factory rejected the parameters
            raise ConfigError(str(exc))
        return value, " ".join([name] + [c for _, c in parsed])

    return parse


def _geometric_mixture(pairs) -> dists.CountDistribution:
    return dists.mixture([w for w, _ in pairs], [dists.geometric(p) for _, p in pairs])


_parse_count_dist = _word_form(
    "count distribution",
    {
        "deterministic": (dists.deterministic, (_num(int, "nonneg"),)),
        "binomial": (dists.binomial, (_num(int, "nonneg"), _num(float, "unit"))),
        "poisson": (dists.poisson, (_num(float, "nonneg"),)),
        "neg_binomial": (dists.neg_binomial, (_num(float, "pos"), _num(float, "unit"))),
        "geometric": (dists.geometric, (_num(float, "unit"),)),
        "hypergeometric": (dists.hypergeometric, (_num(int, "nonneg"),) * 3),
        "geometric_mixture": (
            _geometric_mixture,
            _pairs("w:p", _num(float, "nonneg"), _num(float, "unit")),
        ),
    },
)

_parse_displacement = _word_form(
    "displacement",
    {
        "uniform_in_cell": (procgen.uniform_in_cell, ()),
        "gaussian": (procgen.gaussian_displacement, (_num(float, "pos"),)),
        "ball": (procgen.ball_displacement, (_num(float, "pos"),)),
    },
)

_parse_response = _word_form(
    "attenuation",
    {
        "exponential": (shotnoise.exponential_response, (_num(float, "pos"),)),
        "power_law": (shotnoise.power_law_response, (_num(float, "pos"),) * 2),
        "indicator_ball": (shotnoise.indicator_ball, (_num(float, "pos"),)),
    },
)


# ---------------------------------------------------------------------------
# Section validation.  A key table maps {key: (parser, default)}; the default
# is a raw string, _REQUIRED, or None for an optional key with no value.
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _k(parser: Callable, default=_REQUIRED) -> tuple:
    return parser, default


def _validate_section(section: str, items: dict, keys: dict, owner: str = "") -> tuple:
    """Parse one section against its key table; returns (values, canonical).

    ``owner`` is appended to the unknown-key message (the generator family).
    """
    for key in items:
        if key not in keys:
            raise ConfigError(f"unknown key '{key}' in [{section}]{owner}")
    values, canonical = {}, {}
    for key, (parser, default) in keys.items():
        text = items.get(key, default)
        if text is _REQUIRED:
            raise ConfigError(f"missing required key '{key}' in [{section}]")
        if text is None:
            values[key] = None
            continue
        try:
            values[key], canonical[key] = parser(text)
        except ConfigError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}")
    return values, canonical


# family -> (factory, key table); the factory takes the values in key order
_GENERATOR_TYPES = {
    "poisson": (
        procgen.homogeneous_poisson,
        {"intensity": _k(_num(float, "nonneg"))},
    ),
    "binomial": (procgen.binomial_process, {"n": _k(_num(int, "nonneg"))}),
    "square_lattice": (
        procgen.square_lattice,
        {"delta": _k(_num(float, "pos")), "stationary": _k(_parse_bool, "true")},
    ),
    "hex_lattice": (
        procgen.hex_lattice,
        {"delta": _k(_num(float, "pos")), "stationary": _k(_parse_bool, "true")},
    ),
    "bernoulli_lattice": (
        procgen.bernoulli_lattice,
        {"delta": _k(_num(float, "pos")), "p": _k(_num(float, "unit"))},
    ),
    "perturbed_lattice": (
        procgen.perturbed_lattice,
        {
            "delta": _k(_num(float, "pos")),
            "replication": _k(_parse_count_dist),
            "displacement": _k(_parse_displacement, "uniform_in_cell"),
        },
    ),
    "neyman_scott": (
        procgen.neyman_scott,
        {
            "parent_intensity": _k(_num(float, "pos")),
            "replication": _k(_parse_count_dist),
            "displacement": _k(_parse_displacement),
        },
    ),
    "matern_cluster": (
        procgen.matern_cluster,
        {
            "parent_intensity": _k(_num(float, "pos")),
            "mean_children": _k(_num(float, "pos")),
            "radius": _k(_num(float, "pos")),
        },
    ),
    "thomas_cluster": (
        procgen.thomas_cluster,
        {
            "parent_intensity": _k(_num(float, "pos")),
            "mean_children": _k(_num(float, "pos")),
            "sigma": _k(_num(float, "pos")),
        },
    ),
    "mixed_poisson": (
        procgen.mixed_poisson,
        {"pairs": _k(_pairs("w:lam", _num(float, "pos"), _num(float, "nonneg")))},
    ),
    "log_gaussian_cox": (
        procgen.log_gaussian_cox,
        {
            "mu_g": _k(_num(float)),
            "sigma": _k(_num(float, "nonneg")),
            "corr_length": _k(_num(float, "pos")),
            "grid_n": _k(_num(int, "pos"), "32"),
        },
    ),
    "ginibre": (
        procgen.ginibre_truncated,
        {"n_rank": _k(_num(int, "pos")), "radius": _k(_num(float, "pos"))},
    ),
}


def _handle_generator(section: str, items: dict) -> tuple:
    """Validate a [generator] section; returns (spec, canonical key dict)."""
    items = dict(items)
    if "type" not in items:
        raise ConfigError(f"missing required key 'type' in [{section}]")
    family = items.pop("type").strip().lower()
    if family not in _GENERATOR_TYPES:
        known = ", ".join(sorted(_GENERATOR_TYPES))
        raise ConfigError(
            f"[{section}] type: unknown generator {family!r} (known: {known})"
        )
    factory, keys = _GENERATOR_TYPES[family]
    values, canonical = _validate_section(
        section, items, keys, f" for generator {family!r}"
    )
    try:
        spec = factory(*values.values())
    except ValueError as exc:  # factory rejected the parameters
        raise ConfigError(str(exc))
    return spec, {"type": family, **canonical}


_WINDOW_KEYS = {
    "sides": _k(_num(float, "pos", many=True)),
    "dimension": _k(_num(int, "pos"), None),
    "metric": _k(_choice("periodic", "euclidean"), "periodic"),
}


def _handle_window(section: str, items: dict) -> tuple:
    """Validate a [window] section; returns (Window, canonical key dict)."""
    values, _ = _validate_section(section, items, _WINDOW_KEYS)
    sides, dim, metric = values["sides"], values["dimension"], values["metric"]
    if (dim or len(sides)) > MAX_DIMENSION:
        raise ConfigError(
            f"[{section}] dimension: a window has at most {MAX_DIMENSION} axes, "
            f"got {dim or len(sides)}"
        )
    if dim is not None:
        if len(sides) == 1:
            sides = sides * dim
        elif len(sides) != dim:
            raise ConfigError(
                f"[{section}] dimension: {dim} does not match {len(sides)} sides"
            )
    window = box(*((0.0, s) for s in sides), metric=metric)
    canonical = {"sides": ",".join(repr(s) for s in sides), "metric": metric}
    return window, canonical


# ---------------------------------------------------------------------------
# Experiment schemas.  A section maps either to a key table
# {key: (parser, default)} or to one of the special markers below.
# ---------------------------------------------------------------------------

_WINDOW = "window-section"
_GEN = "generator-section"
_GEN_OPT = "optional-generator-section"


def _seed(text: str) -> tuple:
    """A run seed: a non-negative integer that ``RandomStream`` accepts."""
    value, canonical = _num(int, "nonneg")(text)
    try:
        RandomStream(value)
    except ValueError as exc:
        raise ConfigError(str(exc))
    return value, canonical


_RUN_SEED = {"seed": _k(_seed)}


SCHEMAS = {
    "sample": {
        "run": dict(_RUN_SEED),
        "window": _WINDOW,
        "generator": _GEN,
    },
    "summary": {
        "run": {**_RUN_SEED, "replications": _k(_num(int, "pos"), "100")},
        "window": _WINDOW,
        "generator": _GEN,
        "summary": {
            "statistic": _k(_choice("ripley_k", "pair_correlation"), "ripley_k"),
            "r_min": _k(_num(float, "pos")),
            "r_max": _k(_num(float, "pos")),
            "r_count": _k(_num(int, "pos"), "25"),
            "bandwidth": _k(_num(float, "nonneg"), "0.0"),
        },
    },
    "compare": {
        "run": {**_RUN_SEED, "replications": _k(_num(int, "pos"), "200")},
        "window": _WINDOW,
        "generator": _GEN,
        "generator_b": _GEN_OPT,
        "compare": {
            "mode": _k(_choice("weak", "two"), "weak"),
            "statistic": _k(
                _choice("voids", "factorial_moments", "ripley_k", "variance"),
                "voids",
            ),
            "scales": _k(_num(float, "pos", many=True), "0.5,1.0"),
            "k": _k(_num(int, "pos"), "2"),
            "k_max": _k(_num(int, "pos"), "3"),
            "placements": _k(_num(int, "pos"), "64"),
        },
    },
    "percolation": {
        "run": {**_RUN_SEED, "replications": _k(_num(int, "pos"), "50")},
        "window": _WINDOW,
        "generator": _GEN,
        "generator_b": _GEN_OPT,
        "percolation": {
            "mode": _k(_choice("sweep", "crossing", "critical"), "sweep"),
            "r_min": _k(_num(float, "nonneg"), "0.1"),
            "r_max": _k(_num(float, "pos"), "1.0"),
            "r_step": _k(_num(float, "pos"), "0.1"),
            "tol": _k(_num(float, "pos"), "0.02"),
        },
    },
    "coverage": {
        "run": {**_RUN_SEED, "replications": _k(_num(int, "pos"), "100")},
        "window": _WINDOW,
        "generator": _GEN,
        "coverage": {
            "r_min": _k(_num(float, "nonneg"), "0.0"),
            "r_max": _k(_num(float, "pos")),
            "r_count": _k(_num(int, "pos"), "10"),
            "k": _k(_num(int, "pos"), "1"),
            "grid_n": _k(_num(int, "pos"), "64"),
        },
    },
    "sinr": {
        "run": dict(_RUN_SEED),
        "window": _WINDOW,
        "generator": _GEN,
        "generator_b": _GEN_OPT,
        "sinr": {
            "power": _k(_num(float, "pos"), "1.0"),
            "noise": _k(_num(float, "nonneg"), "1.0"),
            "threshold": _k(_num(float, "pos")),
            "gamma": _k(_num(float, "nonneg"), "0.0"),
            "attenuation": _k(_parse_response, "exponential 1.0"),
            "gammas": _k(_num(float, "nonneg", many=True), "0.0"),
        },
    },
    "graph": {
        "run": {**_RUN_SEED, "replications": _k(_num(int, "pos"), "20")},
        "generator": _GEN,
        "graph": {
            "n_list": _k(_num(int, "pos", many=True)),
            "r_coeff": _k(_num(float, "pos"), "1.0"),
            "r_exponent": _k(_num(float), "0.0"),
            "dimension": _k(_num(int, "pos"), "2"),
            "clique_threshold": _k(_num(int, "pos"), "2"),
            "exact_chromatic_limit": _k(_num(int, "nonneg"), "60"),
        },
    },
    "complex": {
        "run": {**_RUN_SEED, "replications": _k(_num(int, "pos"), "20")},
        "generator": _GEN,
        "complex": {
            "n_list": _k(_num(int, "pos", many=True)),
            "r_coeff": _k(_num(float, "pos"), "1.0"),
            "r_exponent": _k(_num(float), "0.0"),
            "dimension": _k(_num(int, "pos"), "2"),
            "k": _k(_num(int, "nonneg"), "1"),
        },
    },
    "kernel_chain": {
        "kernel_chain": {
            "lam": _k(_num(float, "pos"), "1.0"),
            "n": _k(_num(int, "pos"), "6"),
            "m": _k(_num(int, "pos"), "4"),
            "r_values": _k(_num(int, "pos", many=True), "2,4"),
            "r1": _k(_num(float, "pos"), "1.0"),
            "r2": _k(_num(float, "pos"), "2.0"),
            "geo_p": _k(_num(float, "unit"), "0.5"),
            "mix_weights": _k(_num(float, "pos", many=True), "0.5,0.5"),
            "mix_ps": _k(_num(float, "pos", many=True), "0.4,0.6666666666666666"),
        },
    },
}


@dataclass
class ResolvedConfig:
    """A validated experiment configuration with typed values."""

    experiment: str
    sections: dict  # section -> {key: canonical string}, schema order
    values: dict  # section -> {key: typed value} for plain sections
    window: Optional[Window]
    generator: Optional[procgen.GeneratorSpec]
    generator_b: Optional[procgen.GeneratorSpec]

    def __getitem__(self, section: str) -> dict:
        return self.values[section]


def resolve_config(experiment: str, raw: dict) -> ResolvedConfig:
    """Validate raw section/key strings against the experiment schema.

    Fills defaults, rejects unknown sections and keys, and parses every
    value; nothing is computed until the whole configuration is valid.
    """
    if experiment not in SCHEMAS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    schema = SCHEMAS[experiment]
    for section in raw:
        if section not in schema:
            raise ConfigError(
                f"unknown section [{section}] for experiment {experiment!r}"
            )
    sections: dict = {}
    values: dict = {}
    window = None
    specs: dict = {}
    for section, entry in schema.items():
        if section not in raw and entry in (_WINDOW, _GEN):
            raise ConfigError(f"missing required section [{section}]")
        if section not in raw and entry is _GEN_OPT:
            continue
        items = raw.get(section, {})
        if entry is _WINDOW:
            window, sections[section] = _handle_window(section, items)
        elif entry in (_GEN, _GEN_OPT):
            specs[section], sections[section] = _handle_generator(section, items)
        else:
            values[section], sections[section] = _validate_section(
                section, items, entry
            )
    return ResolvedConfig(
        experiment,
        sections,
        values,
        window,
        specs.get("generator"),
        specs.get("generator_b"),
    )


def render_manifest(rc: ResolvedConfig) -> str:
    """INI text of the resolved configuration, re-runnable as a config."""
    lines = ["[meta]", f"experiment = {rc.experiment}", f"version = {__version__}"]
    for section, keys in rc.sections.items():
        lines.append("")
        lines.append(f"[{section}]")
        for key, value in keys.items():
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def read_config_file(path: Path) -> dict:
    """Raw section -> {key: value} strings from an INI file."""
    parser = configparser.ConfigParser(
        delimiters=("=",),
        comment_prefixes=("#", ";"),
        inline_comment_prefixes=("#", ";"),
        interpolation=None,
        strict=True,
    )
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        # configparser messages already name the key and line where relevant
        raise ConfigError(str(exc))
    raw, names = {}, {}
    for section in parser.sections():
        name = section.strip().lower()
        if name in names:
            raise ConfigError(
                f"sections [{names[name]}] and [{section}] are the same section: "
                "section names ignore case"
            )
        names[name] = section
        raw[name] = dict(parser.items(section))
    if parser.defaults():
        raise ConfigError("a [DEFAULT] section is not allowed")
    return raw


# ---------------------------------------------------------------------------
# Minimal SVG line plots: fixed 800x600 viewbox, polyline per series,
# axes, ticks, legend.
# ---------------------------------------------------------------------------

_PALETTE = ("#1965b0", "#dc050c", "#4eb265", "#882e72", "#e8601c", "#7bafde")


def svg_plot(series, title: str, x_label: str, y_label: str) -> str:
    """Render (label, xs, ys[, marker]) series as an 800x600 SVG chart.

    ``marker`` is "line" (default, a polyline) or "points" (circles).
    Non-finite points are dropped.
    """
    left, right, top, bottom = 80.0, 770.0, 50.0, 540.0

    cleaned = []
    xs_all, ys_all = [], []
    for entry in series:
        label, xs, ys = entry[0], list(entry[1]), list(entry[2])
        marker = entry[3] if len(entry) > 3 else "line"
        pts = []
        for x, y in zip(xs, ys):
            x, y = float(x), float(y)
            if not (math.isfinite(x) and math.isfinite(y)):
                continue
            pts.append((x, y))
            xs_all.append(x)
            ys_all.append(y)
        cleaned.append((label, pts, marker))

    if xs_all:
        x_lo, x_hi = min(xs_all), max(xs_all)
        y_lo, y_hi = min(ys_all), max(ys_all)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    x_pad = 0.05 * (x_hi - x_lo)
    y_pad = 0.05 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def fx(v: float) -> float:
        return left + (v - x_lo) * (right - left) / (x_hi - x_lo)

    def fy(v: float) -> float:
        return bottom - (v - y_lo) * (bottom - top) / (y_hi - y_lo)

    def esc(text: str) -> str:
        return (
            text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        )

    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 600" '
        'width="800" height="600">',
        '<rect x="0" y="0" width="800" height="600" fill="white"/>',
        f'<text x="400" y="28" font-size="18" text-anchor="middle" '
        f'font-family="sans-serif">{esc(title)}</text>',
        f'<line x1="{left:.2f}" y1="{bottom:.2f}" x2="{right:.2f}" '
        f'y2="{bottom:.2f}" stroke="black" stroke-width="1"/>',
        f'<line x1="{left:.2f}" y1="{bottom:.2f}" x2="{left:.2f}" '
        f'y2="{top:.2f}" stroke="black" stroke-width="1"/>',
        f'<text x="{(left + right) / 2:.2f}" y="580" font-size="14" '
        f'text-anchor="middle" font-family="sans-serif">{esc(x_label)}</text>',
        f'<text x="20" y="{(top + bottom) / 2:.2f}" font-size="14" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 20 {(top + bottom) / 2:.2f})">'
        f"{esc(y_label)}</text>",
    ]
    for i in range(5):
        xv = x_lo + i * (x_hi - x_lo) / 4
        yv = y_lo + i * (y_hi - y_lo) / 4
        px, py = fx(xv), fy(yv)
        out.append(
            f'<line x1="{px:.2f}" y1="{bottom:.2f}" x2="{px:.2f}" '
            f'y2="{bottom + 6:.2f}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{bottom + 22:.2f}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">'
            f'{format(xv, ".4g")}</text>'
        )
        out.append(
            f'<line x1="{left - 6:.2f}" y1="{py:.2f}" x2="{left:.2f}" '
            f'y2="{py:.2f}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{left - 10:.2f}" y="{py + 4:.2f}" font-size="12" '
            f'text-anchor="end" font-family="sans-serif">{format(yv, ".4g")}</text>'
        )
    for idx, (label, pts, marker) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        if marker == "points":
            for x, y in pts:
                out.append(
                    f'<circle cx="{fx(x):.2f}" cy="{fy(y):.2f}" r="2.5" '
                    f'fill="{color}"/>'
                )
        elif pts:
            coords = " ".join(f"{fx(x):.2f},{fy(y):.2f}" for x, y in pts)
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        ly = top + 18 + 18 * idx
        out.append(
            f'<line x1="{right - 150:.2f}" y1="{ly:.2f}" x2="{right - 125:.2f}" '
            f'y2="{ly:.2f}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{right - 118:.2f}" y="{ly + 4:.2f}" font-size="12" '
            f'font-family="sans-serif">{esc(label)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Experiment runners.  Each takes the resolved config, the run's stream and
# replication count (None where the experiment has no such key) and the
# thread cap, and returns (csv_files, plots): csv_files as (filename, text)
# pairs, plots as (filename, series, title, x_label, y_label) specs that
# main renders with svg_plot under --plot.  All randomness flows from the
# configured seed.
# ---------------------------------------------------------------------------


# The most radii in one r_min..r_max grid; no bench config has over 20.
MAX_RADII = 10_000


def _radii(rc: ResolvedConfig, section: str) -> list:
    """r_min..r_max of a section: r_step apart, or r_count evenly spaced."""
    p = rc[section]
    lo, hi = p["r_min"], p["r_max"]
    if hi < lo:
        raise ConfigError(f"[{section}] r_max: must be >= r_min")
    if "r_step" in p:
        key, steps = "r_step", (hi - lo) / p["r_step"] + 1e-9
    else:
        key, steps = "r_count", p["r_count"] - 1
    if steps >= MAX_RADII:
        raise ConfigError(f"[{section}] {key}: gives more than {MAX_RADII} radii")
    if key == "r_step":
        return [lo + i * p["r_step"] for i in range(int(steps) + 1)]
    return [float(v) for v in np.linspace(lo, hi, p["r_count"])]


def _r_rule(p: dict) -> Callable:
    """Connection radius r(n) = r_coeff * n**r_exponent of a scaling section."""
    coeff, expo = p["r_coeff"], p["r_exponent"]
    return lambda n: coeff * n**expo


def _run_sample(rc: ResolvedConfig, stream, reps, threads: int) -> tuple:
    pattern = procgen.sample(rc.generator, rc.window, stream)
    files = [
        ("points.csv", procgen.pattern_to_csv(pattern)),
        ("metadata.txt", procgen.pattern_metadata(rc.generator, rc.window, stream)),
    ]
    pts = np.asarray(pattern.points, dtype=float)
    if pts.size:
        xs, ys = pts[:, 0], (pts[:, 1] if pattern.dim > 1 else np.zeros(len(pts)))
    else:
        xs, ys = [], []
    series = [(f"{rc.generator.family} points", xs, ys, "points")]
    return files, [("points.svg", series, "Sampled point pattern", "x0", "x1")]


def _run_summary(rc: ResolvedConfig, stream, reps, threads: int) -> tuple:
    p = rc["summary"]
    grid = _radii(rc, "summary")
    if p["statistic"] == "ripley_k":
        curve = summaries.ripley_k(rc.generator, rc.window, grid, reps, stream, threads)
    else:
        bandwidth = p["bandwidth"] if p["bandwidth"] > 0 else None
        curve = summaries.pair_correlation(
            rc.generator, rc.window, grid, bandwidth, reps, stream, threads
        )
    files = [("curve.csv", summaries.curve_to_csv(curve))]
    series = [(p["statistic"], curve.abscissa, curve.values())]
    title = f"{p['statistic']} estimate"
    return files, [("curve.svg", series, title, "r", p["statistic"])]


def _safe_name(statistic: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]+", "_", statistic).strip("_")


def _run_compare(rc: ResolvedConfig, stream, reps, threads: int) -> tuple:
    p = rc["compare"]
    if p["mode"] == "weak":
        if rc.generator_b is not None:
            raise ConfigError(
                "[generator_b] is only used by compare mode 'two'; weak mode "
                "tests [generator] against its Poisson reference"
            )
        reports = compare.weak_poisson_test(
            rc.generator,
            rc.window,
            p["scales"],
            p["k_max"],
            p["placements"],
            reps,
            stream,
            threads,
        )
        overall = compare.overall_verdict(reports)
    else:
        if rc.generator_b is None:
            raise ConfigError("compare mode 'two' needs a [generator_b] section")
        reports = [
            compare.compare_two(
                rc.generator,
                rc.generator_b,
                rc.window,
                p["statistic"],
                p["scales"],
                p["k"],
                p["placements"],
                reps,
                stream,
                threads,
            )
        ]
        overall = reports[0].verdict
    files = [
        (f"ordering_{_safe_name(rep.statistic)}.csv", compare.ordering_to_csv(rep))
        for rep in reports
    ]
    verdicts = [(rep.statistic, rep.verdict) for rep in reports]
    verdicts.append(("overall", overall))
    files.append(("verdicts.csv", csv_text(("statistic", "verdict"), verdicts)))
    series = [
        (rep.statistic, [row.scale for row in rep.per_scale], rep.z_scores())
        for rep in reports
    ]
    title = "Estimate vs reference z-scores"
    return files, [("compare.svg", series, title, "scale", "z")]


def _run_percolation(rc: ResolvedConfig, stream, reps, threads: int) -> tuple:
    p = rc["percolation"]
    mode = p["mode"]
    if mode != "sweep" and rc.generator_b is not None:
        raise ConfigError(
            f"[generator_b] is only used by percolation mode 'sweep'; {mode} "
            "mode reads [generator] alone"
        )
    if mode == "critical":
        est = percolation.critical_radius(
            rc.generator, rc.window, reps, p["tol"], stream, threads
        )
        text = csv_text(
            ("r_c", "std_error", "replications"),
            [(est.value, est.std_error, est.replications)],
        )
        return [("critical.csv", text)], []
    radii = _radii(rc, "percolation")
    if mode == "crossing":
        curve = percolation.crossing_probability(
            rc.generator, rc.window, radii, reps, stream.derive(0), threads
        )
        files = [("crossing.csv", percolation.crossing_to_csv(curve))]
        series = [("crossing", curve.abscissa, curve.values())]
        title = "Horizontal crossing probability"
        return files, [("crossing.svg", series, title, "r", "P(crossing)")]
    sweeps = [("a", rc.generator, stream.derive(0))]
    if rc.generator_b is not None:
        sweeps.append(("b", rc.generator_b, stream.derive(1)))
    files, series = [], []
    for tag, spec, sub in sweeps:
        sweep = percolation.component_fraction_sweep(
            spec, rc.window, radii, reps, sub, threads
        )
        files.append((f"sweep_{tag}.csv", percolation.sweep_to_csv(sweep)))
        series.append(
            (f"largest ({tag})", radii, [e.value for e in sweep.largest_fraction])
        )
        series.append(
            (f"second ({tag})", radii, [e.value for e in sweep.second_fraction])
        )
    title = "Component fraction sweep"
    return files, [("sweep.svg", series, title, "r", "fraction of nodes")]


def _run_coverage(rc: ResolvedConfig, stream, reps, threads: int) -> tuple:
    p = rc["coverage"]
    curve = shotnoise.k_covered_volume(
        rc.generator, rc.window, _radii(rc, "coverage"), p["k"], p["grid_n"], reps,
        stream.derive(0), threads,
    )
    files = [("coverage.csv", shotnoise.coverage_summary_to_csv(curve, p["k"]))]
    series = [(f"k={p['k']} covered volume", curve.abscissa, curve.values())]
    title = "Expected k-covered volume"
    return files, [("coverage.svg", series, title, "r", "volume")]


def _run_sinr(rc: ResolvedConfig, stream, reps, threads: int) -> tuple:
    """One SINR graph per gamma, from one sinr_graphs call per pattern."""
    p = rc["sinr"]
    pattern_b = procgen.sample(rc.generator, rc.window, stream.derive(0))
    if rc.generator_b is None:
        pattern_i = pattern_b
    else:
        pattern_i = procgen.sample(rc.generator_b, rc.window, stream.derive(1))

    params = percolation.SinrParams(
        p["power"], p["noise"], p["threshold"], p["gamma"], p["attenuation"]
    )
    gammas = p["gammas"]
    sweep = gammas if len(gammas) > 1 else []
    g, *swept = percolation.sinr_graphs(pattern_b, pattern_i, params, [p["gamma"], *sweep])
    sizes = percolation.components(g)
    files = [
        ("edges.csv", percolation.graph_to_csv(g)),
        (
            "summary.csv",
            csv_text(
                ("n_vertices", "n_edges", "n_components", "largest_component"),
                [(g.n_vertices, len(g.edges), len(sizes), sizes[0] if sizes else 0)],
            ),
        ),
    ]
    plots = []
    if sweep:
        counts = [len(swept_g.edges) for swept_g in swept]
        files.append(
            ("gamma_sweep.csv", csv_text(("gamma", "n_edges"), zip(gammas, counts)))
        )
        series = [("edges", gammas, counts)]
        title = "Edge count under increasing interference"
        plots.append(("gamma_sweep.svg", series, title, "gamma", "edges"))
    return files, plots


def _run_graph(rc: ResolvedConfig, stream, reps, threads: int) -> tuple:
    p = rc["graph"]
    rows = graphs.scaling_experiment(
        rc.generator,
        _r_rule(p),
        p["n_list"],
        reps,
        stream,
        p["dimension"],
        p["clique_threshold"],
        p["exact_chromatic_limit"],
        threads,
    )
    files = [("scaling.csv", graphs.scaling_to_csv(rows))]
    ns = [row.n for row in rows]
    series = [
        ("mean clique", ns, [row.mean_clique for row in rows]),
        ("mean max degree", ns, [row.mean_max_degree for row in rows]),
        ("mean chromatic", ns, [row.mean_chromatic for row in rows]),
    ]
    title = "Geometric graph statistics vs window volume"
    return files, [("scaling.svg", series, title, "n", "value")]


def _run_complex(rc: ResolvedConfig, stream, reps, threads: int) -> tuple:
    p = rc["complex"]
    rows = complexes.betti_scaling_experiment(
        rc.generator,
        _r_rule(p),
        p["n_list"],
        p["k"],
        reps,
        stream,
        p["dimension"],
        threads,
    )
    files = [("betti.csv", complexes.betti_scaling_to_csv(rows))]
    ns = [row.n for row in rows]
    series = [
        (f"mean betti_{p['k']}", ns, [row.mean_betti for row in rows]),
        ("P(betti = 0)", ns, [row.p_zero for row in rows]),
    ]
    title = "Coverage complex Betti scaling"
    return files, [("betti.svg", series, title, "n", "value")]


def _format_args(params) -> str:
    return " ".join(format(p, "g") if isinstance(p, float) else str(p) for p in params)


def _dist_label(d: dists.CountDistribution) -> str:
    if d.kind == "mixture":
        weights, comps = d.params
        inner = " ".join(
            f"{format(w, 'g')}:{_dist_label(c)}" for w, c in zip(weights, comps)
        )
        return f"mixture({inner})"
    return f"{d.kind}({_format_args(d.params)})"


def _chain_pairs(rc: ResolvedConfig) -> list:
    """Adjacent pairs of the two convex-order chains, least variable first.

    The dispersion-increasing chain runs hypergeometric -> binomials with
    growing trial counts -> Poisson; the dispersion-decreasing side of the
    Poisson runs negative binomials with shrinking shape -> geometric ->
    geometric mixture.  The hypergeometric draw count lam*n/m must be an
    integer; when it is not, m is lowered to the nearest value that makes
    it one, so the emitted chain stays a family of genuine distributions.
    """
    p = rc["kernel_chain"]
    lam, n, m = p["lam"], p["n"], p["m"]
    if m > n:
        raise ConfigError("[kernel_chain] m: must be <= n")
    if lam > min(m, *p["r_values"]):
        raise ConfigError(
            "[kernel_chain] lam: must be <= m and every r value, so that "
            "every binomial success probability lam/r stays in [0, 1]"
        )
    m_h = None
    for candidate in range(m, 0, -1):
        draws = lam * n / candidate
        if abs(draws - round(draws)) < 1e-9 and 1 <= round(draws) <= n:
            m_h = candidate
            break
    if m_h is None:
        raise ConfigError(
            "[kernel_chain] m: no m' <= m makes lam*n/m' a valid integer "
            "draw count for the hypergeometric"
        )
    draws = int(round(lam * n / m_h))
    counts = sorted(set(p["r_values"]) | {m, m_h})
    sub = [dists.hypergeometric(n, m_h, draws)]
    sub += [dists.binomial(t, lam / t) for t in counts]
    sub.append(dists.poisson(lam))

    r1, r2 = p["r1"], p["r2"]
    if r1 > r2:
        raise ConfigError("[kernel_chain] r1: must be <= r2")
    weights, ps = p["mix_weights"], p["mix_ps"]
    if len(weights) != len(ps):
        raise ConfigError(
            "[kernel_chain] mix_ps: needs as many entries as mix_weights"
        )
    total = sum(weights)
    weights = [w / total for w in weights]
    sup = [
        dists.poisson(lam),
        dists.neg_binomial(r2, lam / (r2 + lam)),
        dists.neg_binomial(r1, lam / (r1 + lam)),
        dists.geometric(p["geo_p"]),
        dists.mixture(weights, [dists.geometric(q) for q in ps]),
    ]
    pairs = []
    for chain, elements in (("sub", sub), ("super", sup)):
        for lower, upper in zip(elements, elements[1:]):
            pairs.append((chain, lower, upper))
    return pairs


def _run_kernel_chain(rc: ResolvedConfig, stream, reps, threads: int) -> tuple:
    pairs = _chain_pairs(rc)
    rows = []
    curves = {}
    for chain, lower, upper in pairs:
        verdict = dists.check_cx(lower, upper)
        witness = "" if verdict.witness is None else verdict.witness
        labels = (_dist_label(lower), _dist_label(upper))
        rows.append((chain, *labels, verdict.status, verdict.min_slack, witness))
        for d in (lower, upper):
            label = f"{chain}: {_dist_label(d)}"
            if label not in curves:
                pmfs = dists.pmf_table(d).tolist()
                top = len(pmfs) - 1
                xs = [0.5 * i for i in range(2 * min(top, 12) + 1)]
                curves[label] = (xs, [dists.stop_loss_from_pmf(pmfs, a) for a in xs])
    header = ("chain", "lower", "upper", "verdict", "min_slack", "witness")
    files = [("chain.csv", csv_text(header, rows))]
    series = [(label, xs, ys) for label, (xs, ys) in curves.items()]
    title = "Stop-loss transforms along the chains"
    return files, [("chain.svg", series, title, "a", "E(X-a)+")]


_RUNNERS = {
    "sample": _run_sample,
    "summary": _run_summary,
    "compare": _run_compare,
    "percolation": _run_percolation,
    "coverage": _run_coverage,
    "sinr": _run_sinr,
    "graph": _run_graph,
    "complex": _run_complex,
    "kernel_chain": _run_kernel_chain,
}


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def _parse_overrides(extra: list) -> list:
    overrides = []
    i = 0
    while i < len(extra):
        token = extra[i]
        match = re.fullmatch(r"--([A-Za-z0-9_]+)\.([A-Za-z0-9_]+)", token)
        if match is None or i + 1 >= len(extra):
            raise ConfigError(
                f"unrecognized argument {token!r} (overrides are "
                "--section.key value pairs)"
            )
        overrides.append((match[1].lower(), match[2].lower(), extra[i + 1]))
        i += 2
    return overrides


def _check_meta(experiment: str, meta: dict) -> None:
    for key in meta:
        if key not in ("experiment", "version"):
            raise ConfigError(f"unknown key '{key}' in [meta]")
    declared = meta.get("experiment")
    if declared is not None and declared.strip() != experiment:
        raise ConfigError(
            f"[meta] experiment: config declares {declared.strip()!r} but "
            f"{experiment!r} was requested"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ppclust",
        description="Point-process simulation and clustering-comparison "
        "experiments with deterministic, reproducible artifacts.",
    )
    parser.add_argument("experiment", choices=tuple(SCHEMAS))
    parser.add_argument("--config", required=True, metavar="FILE")
    parser.add_argument("--seed", type=int, default=None, metavar="N")
    parser.add_argument("--threads", type=int, default=1, metavar="K")
    parser.add_argument("--plot", action="store_true")
    parser.add_argument("--out", default=".", metavar="DIR")
    args, extra = parser.parse_known_args(argv)

    try:
        overrides = _parse_overrides(extra)
        raw = read_config_file(Path(args.config))
        meta = raw.pop("meta", {})
        _check_meta(args.experiment, meta)
        for section, key, value in overrides:
            raw.setdefault(section, {})[key] = value
        if args.seed is not None:
            if "run" not in SCHEMAS[args.experiment]:
                raise ConfigError(
                    f"experiment {args.experiment!r} is deterministic and "
                    "takes no seed"
                )
            raw.setdefault("run", {})["seed"] = str(args.seed)
        rc = resolve_config(args.experiment, raw)
        if args.threads < 1:
            raise ConfigError("thread count must be >= 1")
    except ConfigError as exc:
        print(f"ppclust: config error: {exc}", file=sys.stderr)
        return 2

    try:
        run = rc.values.get("run", {})
        stream = RandomStream(run["seed"]) if run else None
        files, plots = _RUNNERS[args.experiment](
            rc, stream, run.get("replications"), args.threads
        )
        if args.plot:
            files += [(name, svg_plot(*spec)) for name, *spec in plots]
    except ConfigError as exc:
        print(f"ppclust: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"ppclust: runtime error: {str(exc) or repr(exc)}", file=sys.stderr)
        return 3

    artifacts = [("manifest.ini", render_manifest(rc))] + files
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts:
            with open(out_dir / name, "w", newline="") as handle:
                handle.write(text)
    except OSError as exc:
        print(f"ppclust: runtime error: {exc}", file=sys.stderr)
        return 3
    for name, _ in artifacts:
        print(f"wrote {out_dir / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
