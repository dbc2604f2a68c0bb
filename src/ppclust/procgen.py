"""Samplers for the point-process families, keyed by declarative specs.

Each family is described by a GeneratorSpec; sample(spec, window, stream) is a
pure function of its arguments, so replications parallelize by deriving child
streams per replication index. Point order is canonical (lexicographic). No
sampler caches anything: each LGCP pattern draws its field by FFT.

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

# Sequential determinantal sampling cost grows with the truncation rank.
MAX_GINIBRE_N = 256
# Cells of the torus that the LGCP field is embedded in: caps the FFT size.
MAX_COX_CELLS = 1 << 20

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


def sample(spec: GeneratorSpec, w: Window, stream: RandomStream) -> PointPattern:
    """Draw one pattern; pure in (spec, w, stream)."""
    rng = stream.generator()
    points = _SAMPLERS[spec.family](spec, w, rng)
    if w.metric == "periodic":
        points = w.wrap(points)
    if points.shape[0]:
        points = points[w.contains(points)]
    return PointPattern(w, sort_points(points))


def _uniform_points(n: int, w: Window, rng) -> np.ndarray:
    return w.lower + rng.random((n, w.dim)) * w.sides


def _sample_poisson(spec, w, rng):
    n = rng.poisson(spec.get("lam") * volume(w))
    return _uniform_points(n, w, rng)


def _sample_binomial(spec, w, rng):
    return _uniform_points(spec.get("n"), w, rng)


def _lattice_counts(w: Window, delta: float) -> np.ndarray:
    """Cells per axis on a periodic window (snapped), or a covering count."""
    counts = np.maximum(1, np.rint(w.sides / delta).astype(int))
    return counts


def _square_lattice_sites(w: Window, delta: float, stationary: bool, rng):
    """Lattice sites inside the window; draws at most the stationarity shift."""
    if w.metric == "periodic":
        counts = _lattice_counts(w, delta)
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
    if w.dim != 2:
        raise ValueError("hexagonal lattice requires d = 2")
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


def _gaussian_field(sigma, corr_length, grid_n, w: Window, rng) -> np.ndarray:
    """Gaussian field of covariance sigma^2 exp(-d / corr_length) on the
    grid_centers(w, grid_n) cells, by circulant embedding (Dietrich & Newsam
    1997): on a torus of cells that covariance is block-circulant, with one
    FFT of its first row as eigenvalues.  A Euclidean window is the corner
    of a torus of 2 grid_n cells per axis, doubled until none is negative."""
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
    noise = rng.standard_normal((size,) * w.dim)
    spectrum = np.sqrt(np.maximum(eig, 0.0)) * np.fft.rfftn(noise)
    field = np.fft.irfftn(spectrum, noise.shape, axes=range(w.dim))
    return sigma * field[(slice(grid_n),) * w.dim].ravel()


def _sample_log_gaussian_cox(spec, w, rng):
    grid_n = spec.get("grid_n")
    field = _gaussian_field(spec.get("sigma"), spec.get("corr_length"), grid_n, w, rng)
    centers = grid_centers(w, grid_n)
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


def _ginibre_basis(zs: np.ndarray, ks: np.ndarray, radius: float) -> np.ndarray:
    """Orthonormal eigenfunction values psi_k(z) on the disk, shape (len(zs), len(ks))."""
    log_lam = np.log(special.gammainc(ks + 1.0, radius**2))
    log_norm = 0.5 * (math.log(math.pi) + special.gammaln(ks + 1.0) + log_lam)
    r = np.abs(zs)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r = np.where(r > 0, np.log(np.maximum(r, 1e-300)), -np.inf)
        log_mag = ks[None, :] * log_r[:, None] - (r**2)[:, None] / 2 - log_norm[None, :]
        phase = np.exp(1j * ks[None, :] * np.angle(zs)[:, None])
        mag = np.exp(log_mag)
    mag[np.isneginf(log_mag)] = 0.0
    # k = 0 at the origin: 0 * log 0 needs an explicit value
    if np.any(r == 0):
        mag[r == 0, :] = 0.0
        if ks.shape[0] and ks[0] == 0:
            mag[r == 0, 0] = np.exp(-log_norm[0])
    return mag * phase


def _sample_ginibre(spec, w, rng):
    if w.dim != 2:
        raise ValueError("Ginibre requires d = 2")
    check_window("the non-stationary Ginibre process", w, "euclidean")
    n_rank = spec.get("n_rank")
    radius = spec.get("radius")
    lambdas = ginibre_eigenvalues(n_rank, radius)
    ks = np.arange(n_rank)[rng.random(n_rank) < lambdas]
    n = ks.shape[0]
    if n == 0:
        return np.empty((0, 2))

    # Radial envelope of |v(z)|^2 = sum_k |psi_k(z)|^2 for rejection sampling.
    r_grid = np.linspace(0.0, radius, 4096)
    f = np.sum(np.abs(_ginibre_basis(r_grid.astype(complex), ks, radius)) ** 2, axis=1)
    envelope = float(f.max()) * 1.05

    chunk = 128
    basis = np.zeros((0, n), dtype=complex)  # orthonormalized v(z_i) rows
    points = []
    for _ in range(n):
        accepted = None
        for _ in range(2000):  # chunks; envelope keeps acceptance far higher
            rr = radius * np.sqrt(rng.random(chunk))
            theta = 2 * math.pi * rng.random(chunk)
            zs = rr * np.exp(1j * theta)
            vs = _ginibre_basis(zs, ks, radius)
            targets = np.sum(np.abs(vs) ** 2, axis=1)
            if basis.shape[0]:
                proj = vs @ basis.conj().T
                targets = targets - np.sum(np.abs(proj) ** 2, axis=1)
            if np.any(targets > envelope):
                raise RuntimeError("rejection envelope violated")
            hits = np.nonzero(rng.random(chunk) * envelope < targets)[0]
            if hits.size:
                accepted = (zs[hits[0]], vs[hits[0]])
                break
        if accepted is None:
            raise RuntimeError("rejection sampling failed to accept")
        z, v = accepted
        points.append([z.real, z.imag])
        u = v.astype(complex)
        for e in basis:
            u = u - np.vdot(e, u) * e
        norm = np.linalg.norm(u)
        if norm > 1e-12:
            basis = np.vstack([basis, u / norm])
    return np.array(points)


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


# ---------------------------------------------------------------------------
# Intensity


def intensity(spec: GeneratorSpec, d: int = 2, w: Window | None = None) -> IntensityReport:
    """Mean points per unit volume; exact closed form for every family.

    d matters for lattice families (1/spacing^d); binomial_process needs the
    window to turn a fixed count into a rate.
    """
    if w is not None:
        d = w.dim
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
        return IntensityReport(1.0 / math.pi)
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
