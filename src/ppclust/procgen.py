"""Samplers for the point-process families, keyed by declarative specs.

Each family is described by a GeneratorSpec.  prepare(spec, window) checks
the spec against the window and returns a frozen Sampler; its draw(stream)
is a pure function of its arguments, so replications parallelize by deriving
child streams per replication index, and sample(spec, window, stream) is
prepare(spec, window).draw(stream).  Point order is canonical
(lexicographic).  The family's constants are prepared once per estimator
call, not once per pattern: the LGCP field's square-root spectrum, embedding
shape and grid centres, and the Ginibre matrix rank.  Each LGCP pattern then
draws its field with one FFT pair.

The truncated Ginibre process is the N x N Ginibre ensemble restricted to
the disk of radius R: its kernel sum_{k<N} lambda_k psi_k(z) conj(psi_k(w))
is the ensemble's kernel on the disk, and restricting a determinantal
process to a set restricts its kernel.  So a pattern is the eigenvalues
inside the disk of one matrix of iid standard complex Gaussians.  The matrix
is m x m, m the smallest rank with sum_{k>=m} lambda_k <= 2^-53; that tail
bounds the total-variation distance to rank N, and it spares N >> R^2 an
N x N solve.  A pattern costs O(m^3).

Lattice-backed families on periodic windows snap the cell count per axis to
round(side/spacing) so the lattice tiles the torus without a seam; the
effective spacing is side/count (exact when side/spacing is an integer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import dists
from .core import (
    PointPattern,
    RandomStream,
    Window,
    check_number,
    check_window,
    csv_text,
    grid_centers,
    sort_points,
    volume,
)

# A Ginibre pattern's eigenvalue solve is O(m^3) for a matrix of m <= N rows.
MAX_GINIBRE_N = 256
# Cells of the torus that the LGCP field is embedded in: caps the FFT size.
MAX_COX_CELLS = 1 << 20
# Families defined only in the plane, by the name their errors give.
_PLANAR_FAMILIES = {"hex_lattice": "hexagonal lattice", "ginibre_truncated": "Ginibre"}

DISPLACEMENT_KINDS = ("uniform_in_cell", "gaussian", "uniform_in_ball")


@dataclass(frozen=True)
class Displacement:
    """Law of the offset between a site (or parent) and its replica."""

    kind: str
    scale: float = 0.0  # sigma for gaussian, rho for uniform_in_ball

    def __post_init__(self):
        if self.kind not in DISPLACEMENT_KINDS:
            raise ValueError(f"unknown displacement kind {self.kind!r}")
        if self.kind != "uniform_in_cell":
            check_number("displacement scale", self.scale, "pos")

    def halo(self) -> float:
        """Halo width for Euclidean-mode parent dilation."""
        if self.kind == "gaussian":
            return 6.0 * self.scale
        if self.kind == "uniform_in_ball":
            return self.scale
        return 0.0


def uniform_in_cell() -> Displacement:
    return Displacement("uniform_in_cell")


def gaussian_displacement(sigma: float) -> Displacement:
    return Displacement("gaussian", float(sigma))


def ball_displacement(rho: float) -> Displacement:
    return Displacement("uniform_in_ball", float(rho))


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative description of one point-process family."""

    family: str
    params: tuple  # sorted (name, value) pairs

    def __post_init__(self):
        if self.family not in _SAMPLERS:
            raise ValueError(f"unknown family {self.family!r}")
        _validate_spec(self)

    def get(self, name):
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.family}({inner})"


@dataclass(frozen=True)
class IntensityReport:
    value: float  # points per unit volume

    def __post_init__(self):
        check_number("intensity", self.value, "nonneg")


def _spec(family, **kwargs) -> GeneratorSpec:
    return GeneratorSpec(family, tuple(sorted(kwargs.items())))


def homogeneous_poisson(lam: float) -> GeneratorSpec:
    return _spec("homogeneous_poisson", lam=float(lam))


def square_lattice(delta: float, stationary: bool = True) -> GeneratorSpec:
    return _spec("square_lattice", delta=float(delta), stationary=bool(stationary))


def hex_lattice(delta: float, stationary: bool = True) -> GeneratorSpec:
    return _spec("hex_lattice", delta=float(delta), stationary=bool(stationary))


def bernoulli_lattice(delta: float, p: float) -> GeneratorSpec:
    return _spec("bernoulli_lattice", delta=float(delta), p=float(p))


def binomial_process(n: int) -> GeneratorSpec:
    return _spec("binomial_process", n=int(n))


def perturbed_lattice(
    delta: float, replication: dists.CountDistribution, displacement: Displacement
) -> GeneratorSpec:
    return _spec(
        "perturbed_lattice",
        delta=float(delta),
        replication=replication,
        displacement=displacement,
    )


def matern_cluster(lam_p: float, mu: float, r_cl: float) -> GeneratorSpec:
    return _spec("matern_cluster", lam_p=float(lam_p), mu=float(mu), r_cl=float(r_cl))


def thomas_cluster(lam_p: float, mu: float, sigma: float) -> GeneratorSpec:
    return _spec("thomas_cluster", lam_p=float(lam_p), mu=float(mu), sigma=float(sigma))


def neyman_scott(
    lam_p: float, replication: dists.CountDistribution, displacement: Displacement
) -> GeneratorSpec:
    return _spec(
        "neyman_scott",
        lam_p=float(lam_p),
        replication=replication,
        displacement=displacement,
    )


def mixed_poisson(pairs) -> GeneratorSpec:
    """Mixture of homogeneous Poisson intensities: ((weight, lam), ...)."""
    return _spec(
        "mixed_poisson", pairs=tuple((float(w), float(lam)) for w, lam in pairs)
    )


def log_gaussian_cox(
    mu_g: float, sigma: float, corr_length: float, grid_n: int
) -> GeneratorSpec:
    return _spec(
        "log_gaussian_cox",
        mu_g=float(mu_g),
        sigma=float(sigma),
        corr_length=float(corr_length),
        grid_n=int(grid_n),
    )


def ginibre_truncated(n_rank: int, radius: float) -> GeneratorSpec:
    return _spec("ginibre_truncated", n_rank=int(n_rank), radius=float(radius))


def _validate_spec(spec: GeneratorSpec) -> None:
    fam = spec.family
    if fam == "homogeneous_poisson":
        check_number("intensity", spec.get("lam"), "nonneg")
    elif fam in ("square_lattice", "hex_lattice"):
        check_number("lattice spacing", spec.get("delta"), "pos")
    elif fam == "bernoulli_lattice":
        check_number("lattice spacing", spec.get("delta"), "pos")
        check_number("retention probability", spec.get("p"), "unit")
    elif fam == "binomial_process":
        check_number("point count", spec.get("n"), 0)
    elif fam == "perturbed_lattice":
        check_number("lattice spacing", spec.get("delta"), "pos")
        _require_types(spec)
    elif fam in ("matern_cluster", "thomas_cluster"):
        check_number("parent intensity", spec.get("lam_p"), "nonneg")
        check_number("mean cluster size", spec.get("mu"), "pos")
        scale = spec.get("r_cl") if fam == "matern_cluster" else spec.get("sigma")
        check_number("cluster scale", scale, "pos")
    elif fam == "neyman_scott":
        check_number("parent intensity", spec.get("lam_p"), "nonneg")
        _require_types(spec)
        if spec.get("displacement").kind == "uniform_in_cell":
            raise ValueError(
                "uniform_in_cell displacement needs a lattice cell; "
                "cluster parents have none"
            )
    elif fam == "mixed_poisson":
        pairs = spec.get("pairs")
        if not pairs:
            raise ValueError("mixed_poisson needs at least one component")
        for w, lam in pairs:
            check_number("mixture weights", w, "nonneg")
            check_number("intensities", lam, "nonneg")
        if abs(sum(w for w, _ in pairs) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1 within 1e-12")
    elif fam == "log_gaussian_cox":
        check_number("mu_g", spec.get("mu_g"))
        check_number("field variance", spec.get("sigma"), "nonneg")
        check_number("correlation length", spec.get("corr_length"), "pos")
        check_number("grid_n", spec.get("grid_n"), 1)
    elif fam == "ginibre_truncated":
        n_rank = check_number("truncation rank", spec.get("n_rank"), 1)
        radius = check_number("radius", spec.get("radius"), "pos")
        if n_rank > MAX_GINIBRE_N:
            raise ValueError(f"truncation rank capped at {MAX_GINIBRE_N}")
        if radius**2 > n_rank:
            raise ValueError("truncation validity requires R^2 <= N")


def _require_types(spec: GeneratorSpec) -> None:
    if not isinstance(spec.get("replication"), dists.CountDistribution):
        raise ValueError("replication must be a CountDistribution")
    if not isinstance(spec.get("displacement"), Displacement):
        raise ValueError("displacement must be a Displacement")


# ---------------------------------------------------------------------------
# Sampling


def _check_dimension(spec: GeneratorSpec, d: int):
    """Reject d != 2 for the families defined only in the plane."""
    if spec.family in _PLANAR_FAMILIES and d != 2:
        raise ValueError(f"{_PLANAR_FAMILIES[spec.family]} requires d = 2")


@dataclass(frozen=True, eq=False)
class Sampler:
    """A spec checked against one window, with the family's per-call
    constants (``prepare``): shared read-only by every replication."""

    spec: GeneratorSpec
    window: Window
    constants: tuple  # the sampler's arguments after (spec, w, rng)

    def draw(self, stream: RandomStream) -> PointPattern:
        """Draw one pattern; pure in (spec, window, stream)."""
        w = self.window
        points = _SAMPLERS[self.spec.family](self.spec, w, stream.generator(), *self.constants)
        if w.metric == "periodic":
            points = w.wrap(points)
        if points.shape[0]:
            points = points[w.contains(points)]
        return PointPattern(w, sort_points(points))


def prepare(spec: GeneratorSpec, w: Window) -> Sampler:
    """Check the spec against the window, raising every error that drawing
    from it would, and compute the family's constants once."""
    _check_dimension(spec, w.dim)
    constants = _CONSTANTS.get(spec.family)
    return Sampler(spec, w, constants(spec, w) if constants else ())


def sample(spec: GeneratorSpec, w: Window, stream: RandomStream) -> PointPattern:
    """Draw one pattern, ``prepare(spec, w).draw(stream)``; pure in (spec,
    w, stream).  A caller drawing many patterns prepares once."""
    return prepare(spec, w).draw(stream)


def _uniform_points(n: int, w: Window, rng) -> np.ndarray:
    return w.lower + rng.random((n, w.dim)) * w.sides


def _sample_poisson(spec, w, rng):
    n = rng.poisson(spec.get("lam") * volume(w))
    return _uniform_points(n, w, rng)


def _sample_binomial(spec, w, rng):
    return _uniform_points(spec.get("n"), w, rng)


def _square_lattice_sites(w: Window, delta: float, stationary: bool, rng):
    """Lattice sites inside the window; draws at most the stationarity shift."""
    if w.metric == "periodic":
        # Cells per axis, snapped so that the lattice tiles the torus.
        counts = np.maximum(1, np.rint(w.sides / delta).astype(int))
        spacing = w.sides / counts
        axes = [np.arange(c) * s for c, s in zip(counts, spacing)]
        mesh = np.meshgrid(*axes, indexing="ij")
        sites = w.lower + np.stack([m.ravel() for m in mesh], axis=1)
        if stationary:
            sites = sites + rng.random(w.dim) * spacing
        return sites, spacing
    # Euclidean: true spacing, cover the window and crop.
    shift = rng.random(w.dim) * delta if stationary else np.zeros(w.dim)
    counts = np.ceil(w.sides / delta).astype(int) + 1
    axes = [np.arange(c) * delta for c in counts]
    mesh = np.meshgrid(*axes, indexing="ij")
    sites = w.lower + shift + np.stack([m.ravel() for m in mesh], axis=1)
    return sites[w.contains(sites)], np.full(w.dim, delta)


def _sample_square_lattice(spec, w, rng):
    sites, _ = _square_lattice_sites(w, spec.get("delta"), spec.get("stationary"), rng)
    return sites


def _hex_lattice_sites(w: Window, delta: float, stationary: bool, rng):
    row_height = delta * math.sqrt(3) / 2
    if w.metric == "periodic":
        n_x = max(1, int(round(w.sides[0] / delta)))
        # Even row count keeps the half-offset pattern seamless on the torus.
        n_y = max(2, 2 * int(round(w.sides[1] / (2 * row_height))))
        dx = w.sides[0] / n_x
        dy = w.sides[1] / n_y
        rows = np.arange(n_y)
        cols = np.arange(n_x)
        xs = (cols[None, :] + 0.5 * (rows[:, None] % 2)) * dx
        ys = np.broadcast_to(rows[:, None] * dy, xs.shape)
        sites = w.lower + np.stack([xs.ravel(), ys.ravel()], axis=1)
        if stationary:
            sites = sites + rng.random(2) * np.array([dx, 2 * dy])
        return sites
    shift = rng.random(2) * np.array([delta, 2 * row_height]) if stationary else np.zeros(2)
    n_x = int(np.ceil(w.sides[0] / delta)) + 2
    n_y = int(np.ceil(w.sides[1] / row_height)) + 2
    rows = np.arange(n_y)
    cols = np.arange(n_x)
    xs = (cols[None, :] - 1 + 0.5 * (rows[:, None] % 2)) * delta
    ys = np.broadcast_to((rows[:, None] - 1) * row_height, xs.shape)
    sites = w.lower + shift + np.stack([xs.ravel(), ys.ravel()], axis=1)
    return sites[w.contains(sites)]


def _sample_hex_lattice(spec, w, rng):
    return _hex_lattice_sites(w, spec.get("delta"), spec.get("stationary"), rng)


def _sample_bernoulli_lattice(spec, w, rng):
    # Stationary lattice sites; retained (not displaced) with probability p.
    sites, _ = _square_lattice_sites(w, spec.get("delta"), True, rng)
    keep = rng.random(sites.shape[0]) < spec.get("p")
    return sites[keep]


def _displace(sites: np.ndarray, counts: np.ndarray, disp: Displacement, cell, rng):
    """Replicate each site counts[i] times and apply the displacement law."""
    total = int(counts.sum())
    d = sites.shape[1]
    if total == 0:
        return np.empty((0, d))
    base = np.repeat(sites, counts, axis=0)
    if disp.kind == "uniform_in_cell":
        offsets = (rng.random((total, d)) - 0.5) * cell
    elif disp.kind == "gaussian":
        offsets = rng.normal(0.0, disp.scale, size=(total, d))
    else:  # uniform_in_ball
        raw = rng.normal(size=(total, d))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        radii = disp.scale * rng.random(total) ** (1.0 / d)
        offsets = raw * radii[:, None]
    return base + offsets


def _sample_perturbed_lattice(spec, w, rng):
    delta = spec.get("delta")
    disp = spec.get("displacement")
    if w.metric == "periodic":
        sites, spacing = _square_lattice_sites(w, delta, False, rng)
        sites = sites + spacing / 2  # cell centers
    else:
        # Extend the cell grid by whole cells so the anchor stays at w.lower.
        k = int(math.ceil(max(disp.halo(), delta) / delta))
        counts_per_axis = np.ceil(w.sides / delta).astype(int) + 2 * k
        axes = [(np.arange(c) - k + 0.5) * delta for c in counts_per_axis]
        mesh = np.meshgrid(*axes, indexing="ij")
        sites = w.lower + np.stack([m.ravel() for m in mesh], axis=1)
        spacing = np.full(w.dim, delta)
    counts = dists.sample_array(spec.get("replication"), sites.shape[0], rng)
    return _displace(sites, counts, disp, spacing, rng)


def _cluster_points(spec, w, rng, replication, disp: Displacement):
    lam_p = spec.get("lam_p")
    if w.metric == "periodic":
        parent_window = w
    else:
        halo = disp.halo()
        parent_window = Window(w.lower - halo, w.upper + halo, "euclidean")
    n_par = rng.poisson(lam_p * volume(parent_window))
    parents = _uniform_points(n_par, parent_window, rng)
    counts = dists.sample_array(replication, n_par, rng)
    return _displace(parents, counts, disp, None, rng)


def _sample_matern(spec, w, rng):
    return _cluster_points(
        spec, w, rng, dists.poisson(spec.get("mu")), ball_displacement(spec.get("r_cl"))
    )


def _sample_thomas(spec, w, rng):
    return _cluster_points(
        spec,
        w,
        rng,
        dists.poisson(spec.get("mu")),
        gaussian_displacement(spec.get("sigma")),
    )


def _sample_neyman_scott(spec, w, rng):
    return _cluster_points(
        spec, w, rng, spec.get("replication"), spec.get("displacement")
    )


def _sample_mixed_poisson(spec, w, rng):
    pairs = spec.get("pairs")
    weights = np.array([p[0] for p in pairs])
    lams = np.array([p[1] for p in pairs])
    lam = lams[rng.choice(len(pairs), p=weights)]
    n = rng.poisson(lam * volume(w))
    return _uniform_points(n, w, rng)


def _field_root(corr_length, grid_n, w: Window) -> tuple:
    """Square-root spectrum and shape of the circulant embedding of the
    covariance exp(-d / corr_length) on the grid_centers(w, grid_n) cells
    (Dietrich & Newsam 1997): on a torus of cells that covariance is
    block-circulant, with one FFT of its first row as eigenvalues.  A
    Euclidean window is the corner of a torus of 2 grid_n cells per axis,
    doubled until none is negative."""
    size = grid_n if w.metric == "periodic" else 2 * grid_n
    while True:
        if size**w.dim > MAX_COX_CELLS:
            raise ValueError(
                f"field embedding of {size}^{w.dim} cells exceeds "
                f"MAX_COX_CELLS = {MAX_COX_CELLS}; use a smaller grid_n or corr_length"
            )
        lags = np.minimum(np.arange(size), size - np.arange(size))
        axes = np.meshgrid(*(lags * c for c in w.sides / grid_n), indexing="ij", sparse=True)
        row = np.exp(-np.sqrt(sum(a * a for a in axes)) / corr_length)
        eig = np.fft.rfftn(row).real
        # Rounding leaves eigenvalues of order -1e-16 * max; clip only those.
        if eig.min() >= -1e-10 * eig.max():
            break
        if w.metric == "periodic":
            raise ValueError(
                "field covariance has a negative eigenvalue on the torus; "
                "corr_length must be short against the window side"
            )
        size *= 2
    root = np.sqrt(np.maximum(eig, 0.0))
    root.setflags(write=False)
    return root, (size,) * w.dim


def _gaussian_field(sigma, grid_n, root, shape, rng) -> np.ndarray:
    """Gaussian field of covariance sigma^2 exp(-d / corr_length) on the grid
    cells, from the embedding's square-root spectrum (_field_root): one FFT
    pair of one standard normal draw."""
    noise = rng.standard_normal(shape)
    field = np.fft.irfftn(root * np.fft.rfftn(noise), shape, axes=range(len(shape)))
    return sigma * field[(slice(grid_n),) * len(shape)].ravel()


def _lgcp_constants(spec, w):
    """The field's square-root spectrum and embedding shape, and the grid
    centres: all of an LGCP pattern that does not depend on its stream."""
    grid_n = spec.get("grid_n")
    centers = grid_centers(w, grid_n)
    centers.setflags(write=False)
    return (*_field_root(spec.get("corr_length"), grid_n, w), centers)


def _sample_log_gaussian_cox(spec, w, rng, root, shape, centers):
    grid_n = spec.get("grid_n")
    field = _gaussian_field(spec.get("sigma"), grid_n, root, shape, rng)
    cell_sides = w.sides / grid_n
    cell_vol = float(np.prod(cell_sides))
    counts = rng.poisson(np.exp(spec.get("mu_g") + field) * cell_vol)
    total = int(counts.sum())
    if total == 0:
        return np.empty((0, w.dim))
    base = np.repeat(centers, counts, axis=0)
    offsets = (rng.random((total, w.dim)) - 0.5) * cell_sides
    return base + offsets


def ginibre_eigenvalues(n_rank: int, radius: float) -> np.ndarray:
    """Inclusion probabilities of the first n_rank disk eigenfunctions."""
    ks = np.arange(n_rank)
    return special.gammainc(ks + 1.0, radius**2)


def _ginibre_constants(spec, w):
    """The matrix rank m: the smallest with sum_{k>=m} lambda_k <= 2^-53."""
    check_window("the non-stationary Ginibre process", w, "euclidean")
    tails = np.cumsum(ginibre_eigenvalues(spec.get("n_rank"), spec.get("radius"))[::-1])[::-1]
    return (int(np.count_nonzero(tails > 2.0**-53)),)


def _sample_ginibre(spec, w, rng, m):
    g = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) * math.sqrt(0.5)
    zs = np.linalg.eigvals(g)
    zs = zs[np.abs(zs) < spec.get("radius")]
    return np.column_stack((zs.real, zs.imag))


_SAMPLERS = {
    "homogeneous_poisson": _sample_poisson,
    "square_lattice": _sample_square_lattice,
    "hex_lattice": _sample_hex_lattice,
    "bernoulli_lattice": _sample_bernoulli_lattice,
    "binomial_process": _sample_binomial,
    "perturbed_lattice": _sample_perturbed_lattice,
    "matern_cluster": _sample_matern,
    "thomas_cluster": _sample_thomas,
    "neyman_scott": _sample_neyman_scott,
    "mixed_poisson": _sample_mixed_poisson,
    "log_gaussian_cox": _sample_log_gaussian_cox,
    "ginibre_truncated": _sample_ginibre,
}
# Family -> its per-call constants from (spec, w), the samplers' extra arguments.
_CONSTANTS = {"log_gaussian_cox": _lgcp_constants, "ginibre_truncated": _ginibre_constants}


# ---------------------------------------------------------------------------
# Intensity


def intensity(spec: GeneratorSpec, d: int = 2, w: Window | None = None) -> IntensityReport:
    """Mean points per unit volume; exact closed form for every family.

    d matters for lattice families (1/spacing^d); binomial_process needs the
    window to turn a fixed count into a rate.  The truncated Ginibre process
    is not stationary: its value is the mean count on the disk, the sum of
    the kernel's eigenvalues, over the disk's area.  The hexagonal lattice
    and the Ginibre process raise for d != 2, as ``prepare`` does.
    """
    if w is not None:
        d = w.dim
    _check_dimension(spec, d)
    fam = spec.family
    if fam == "homogeneous_poisson":
        return IntensityReport(spec.get("lam"))
    if fam == "square_lattice":
        return IntensityReport(1.0 / spec.get("delta") ** d)
    if fam == "hex_lattice":
        return IntensityReport(2.0 / (math.sqrt(3) * spec.get("delta") ** 2))
    if fam == "bernoulli_lattice":
        return IntensityReport(spec.get("p") / spec.get("delta") ** d)
    if fam == "binomial_process":
        if w is None:
            raise ValueError("binomial_process intensity needs the window")
        return IntensityReport(spec.get("n") / volume(w))
    if fam == "perturbed_lattice":
        return IntensityReport(dists.mean(spec.get("replication")) / spec.get("delta") ** d)
    if fam in ("matern_cluster", "thomas_cluster"):
        return IntensityReport(spec.get("lam_p") * spec.get("mu"))
    if fam == "neyman_scott":
        return IntensityReport(spec.get("lam_p") * dists.mean(spec.get("replication")))
    if fam == "mixed_poisson":
        return IntensityReport(sum(wgt * lam for wgt, lam in spec.get("pairs")))
    if fam == "log_gaussian_cox":
        mu_g, sigma = spec.get("mu_g"), spec.get("sigma")
        return IntensityReport(math.exp(mu_g + sigma**2 / 2))
    if fam == "ginibre_truncated":
        radius = spec.get("radius")
        return IntensityReport(
            float(ginibre_eigenvalues(spec.get("n_rank"), radius).sum()) / (math.pi * radius**2)
        )
    raise AssertionError(fam)


# ---------------------------------------------------------------------------
# Serialization helpers (pattern CSV + sidecar metadata)


def describe(spec: GeneratorSpec) -> dict:
    """Flat key=value description of a spec, stable across runs."""
    out = {"family": spec.family}
    for key, value in spec.params:
        if isinstance(value, dists.CountDistribution):
            out[key] = repr(value)
        elif isinstance(value, Displacement):
            out[key] = (
                value.kind
                if value.kind == "uniform_in_cell"
                else f"{value.kind}({value.scale:g})"
            )
        elif isinstance(value, tuple):
            out[key] = ";".join(f"{a:g}:{b:g}" for a, b in value)
        else:
            out[key] = str(value)
    return out


def pattern_to_csv(pattern: PointPattern) -> str:
    """CSV text with header x0,x1,... and one point per row."""
    return csv_text([f"x{i}" for i in range(pattern.dim)], pattern.points.tolist())


def pattern_metadata(spec: GeneratorSpec, w: Window, stream: RandomStream) -> str:
    """Sidecar key=value record describing how a pattern was produced."""
    lines = []
    for key, value in describe(spec).items():
        lines.append(f"spec.{key}={value}")
    lines.append("window.lower=" + ",".join(format(c, "g") for c in w.lower))
    lines.append("window.upper=" + ",".join(format(c, "g") for c in w.upper))
    lines.append(f"window.metric={w.metric}")
    lines.append(f"seed={stream.master_seed}")
    lines.append("path=" + ",".join(str(i) for i in stream.path))
    return "\n".join(lines) + "\n"
