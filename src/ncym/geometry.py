"""Charts, grids, finite differences, and quadrature on the base manifold.

A manifold is a list of rectangular coordinate charts plus partition-of-unity
weights and overlap data.  Each directed overlap carries its point map, its
bundle transition function, and its sample set: the source grid points it
covers, their images in the destination chart and the coordinate Jacobians
there, decided once where the manifold is built.  Every cross-chart
diagnostic reads that one set.  Shipped builders: flat d-torus on a single
periodic chart, and round S^2 / S^4 on two stereographic charts glued by
inversion ``x -> x r^2 / |x|^2``.

Derivatives are second-order central finite differences (optional fourth
order), realized as small dense one-dimensional matrices applied along an
axis; this makes the exact adjoint of every stencil available as the
transposed matrix.  All reductions go through ``numpy``'s pairwise
summation, which is deterministic for a fixed shape and order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import GluingError, ShapeError, SingularMetric

__all__ = [
    "ChartGrid",
    "Overlap",
    "Manifold",
    "BaseMetric",
    "diff_matrix",
    "partial_derivative",
    "adjoint_partial_derivative",
    "integrate",
    "build_torus",
    "build_sphere_two_charts",
    "flat_metric",
    "round_sphere_metric",
    "grid_points",
    "overlap_round_trip",
    "transition_conjugate",
]


@dataclass(frozen=True)
class ChartGrid:
    """Uniform rectangular grid for one coordinate chart.

    ``coords[axis]`` holds the 1-d coordinate values along that axis
    (node-centered for periodic charts, cell-centered for bounded ones).
    ``orientation`` is +1 or -1 relative to the manifold orientation.
    """

    name: str
    dim: int
    shape: tuple
    spacing: tuple
    coords: tuple
    periodic: tuple
    orientation: int = 1

    def __post_init__(self):
        if self.dim < 1 or len(self.shape) != self.dim:
            raise ShapeError("chart dim/shape mismatch")
        if any(s < 4 for s in self.shape):
            raise ShapeError("need at least 4 grid points per axis")
        if any(h <= 0 for h in self.spacing):
            raise ShapeError("grid spacing must be positive")

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))


@dataclass(frozen=True, eq=False)
class Overlap:
    """Directed overlap data from chart ``src`` to chart ``dst``.

    ``point_map`` sends src coordinates to dst coordinates, and
    ``transition`` (optional) returns the structure-group element t(x) in the
    defining n x n matrices, such that destination-chart sections are
    s_dst = rho(t) s_src rho(t)^-1.

    The sample set: ``mask`` (shape of the src grid) selects the src grid
    points in the overlap whose image lies inside the dst grid's hull, so
    that dst fields can be interpolated there; ``x`` (p, d) are those points,
    ``y = point_map(x)`` their images, and ``jac`` (p, d, d) the Jacobian
    d y^i / d x^j at them.  The arrays are read-only and may be shared
    between overlaps, so the data class compares by identity.
    """

    src: str
    dst: str
    point_map: Callable
    mask: np.ndarray
    x: np.ndarray
    y: np.ndarray
    jac: np.ndarray
    transition: Callable | None = None


@dataclass(frozen=True)
class Manifold:
    charts: tuple
    weights: dict
    overlaps: tuple = ()
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for ch in self.charts:
            w = self.weights[ch.name]
            if w.shape != ch.shape:
                raise ShapeError("weight array shape mismatch")
            if np.any(w < -1e-15):
                raise ShapeError("partition-of-unity weights must be non-negative")

    @property
    def dim(self) -> int:
        return self.charts[0].dim

    def chart(self, name: str) -> ChartGrid:
        for ch in self.charts:
            if ch.name == name:
                return ch
        raise KeyError(name)

    def overlap(self, src: str, dst: str) -> Overlap:
        for ov in self.overlaps:
            if ov.src == src and ov.dst == dst:
                return ov
        raise GluingError(f"no overlap {src} -> {dst}")


def grid_points(chart: ChartGrid) -> np.ndarray:
    """Coordinates of every grid point, shape ``chart.shape + (dim,)``."""
    mesh = np.meshgrid(*chart.coords, indexing="ij")
    return np.stack(mesh, axis=-1)


def overlap_round_trip(man: Manifold) -> float:
    """Worst coordinate error of mapping each overlap's sample points across
    and back through both point maps; 0.0 on a one-chart manifold, NaN if any
    error is NaN."""
    worst = 0.0
    for ov in man.overlaps:
        back = man.overlap(ov.dst, ov.src)
        err = np.max(np.abs(back.point_map(ov.point_map(ov.x)) - ov.x))
        worst = float(np.maximum(worst, err))
    return worst


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

_DIFF_CACHE: dict = {}


def diff_matrix(npts: int, h: float, periodic: bool, order: int = 2) -> np.ndarray:
    """Dense (npts, npts) first-derivative matrix along one axis."""
    key = (npts, float(h), bool(periodic), int(order))
    if key in _DIFF_CACHE:
        return _DIFF_CACHE[key]
    if order not in (2, 4):
        raise ShapeError("supported stencil orders: 2, 4")
    d = np.zeros((npts, npts))
    if order == 2:
        for i in range(npts):
            d[i, (i + 1) % npts] += 1.0
            d[i, (i - 1) % npts] -= 1.0
        d /= 2.0 * h
        if not periodic:
            d[0, :] = 0.0
            d[0, 0:3] = np.array([-3.0, 4.0, -1.0]) / (2.0 * h)
            d[-1, :] = 0.0
            d[-1, -3:] = np.array([1.0, -4.0, 3.0]) / (2.0 * h)
    else:
        if npts < 6:
            raise ShapeError("order-4 stencil needs at least 6 points")
        for i in range(npts):
            d[i, (i - 2) % npts] += 1.0
            d[i, (i - 1) % npts] -= 8.0
            d[i, (i + 1) % npts] += 8.0
            d[i, (i + 2) % npts] -= 1.0
        d /= 12.0 * h
        if not periodic:
            one_sided0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * h)
            one_sided1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12.0 * h)
            d[0, :] = 0.0
            d[0, :5] = one_sided0
            d[1, :] = 0.0
            d[1, :5] = one_sided1
            d[-1, :] = 0.0
            d[-1, -5:] = -one_sided0[::-1]
            d[-2, :] = 0.0
            d[-2, -5:] = -one_sided1[::-1]
    d.setflags(write=False)
    _DIFF_CACHE[key] = d
    return d


def _apply_along_axis(mat: np.ndarray, arr: np.ndarray, axis: int) -> np.ndarray:
    moved = np.moveaxis(arr, axis, 0)
    out = np.tensordot(mat, moved, axes=([1], [0]))
    return np.moveaxis(out, 0, axis)


def partial_derivative(
    arr: np.ndarray, chart: ChartGrid, axis: int, order: int = 2
) -> np.ndarray:
    """d(arr)/dx^axis on the chart grid.

    ``arr`` has the grid axes first (shape ``chart.shape + extra``); any
    trailing axes (matrix indices, component indices) ride along.
    """
    if axis < 0 or axis >= chart.dim:
        raise ShapeError(f"axis {axis} out of range for dim {chart.dim}")
    if arr.shape[: chart.dim] != chart.shape:
        raise ShapeError("field shape does not match the chart grid")
    d = diff_matrix(chart.shape[axis], chart.spacing[axis], chart.periodic[axis], order)
    return _apply_along_axis(d, arr, axis)


def adjoint_partial_derivative(
    arr: np.ndarray, chart: ChartGrid, axis: int, order: int = 2
) -> np.ndarray:
    """Exact adjoint of :func:`partial_derivative` in the flat grid product."""
    d = diff_matrix(chart.shape[axis], chart.spacing[axis], chart.periodic[axis], order)
    return _apply_along_axis(d.T, arr, axis)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


_COND_WARN = 1e8


def _spd_inverse(name: str, block: np.ndarray, what: str) -> tuple:
    """Inverse and square-root determinant of symmetric positive-definite
    (..., k, k) blocks on chart ``name``; raises SingularMetric naming the
    chart (and the grid index) otherwise, warns on a condition number above
    1e8.

    One eigendecomposition B = V diag(lam) V^T per block serves the check,
    the inverse V diag(1/lam) V^T and sqrt(det) = sqrt(prod lam); on c * I
    blocks the inverse is exactly I / c.
    """
    if np.max(np.abs(block - np.swapaxes(block, -1, -2))) > 1e-12:
        raise SingularMetric(f"{what} on {name} must be symmetric")
    ev, vec = np.linalg.eigh(block)
    if np.min(ev) <= 0:
        idx = np.unravel_index(int(np.argmin(ev[..., 0])), ev[..., 0].shape)
        where = f" at {tuple(map(int, idx))}" if idx else ""
        raise SingularMetric(f"{what} on {name} not positive definite{where}")
    cond = float(np.max(ev) / np.min(ev))
    if cond > _COND_WARN:
        warnings.warn(f"{what} on {name}: condition number {cond:.3e}")
    inv = (vec / ev[..., None, :]) @ np.swapaxes(vec, -1, -2)
    return inv, np.sqrt(np.prod(ev, axis=-1))


class BaseMetric:
    """Base-manifold metric g^M as per-chart (..., d, d) arrays, checked
    symmetric positive definite, with cached inverse and sqrt(det)."""

    def __init__(self, man: Manifold, g: dict):
        self.man = man
        self.g = g
        self.inv = {}
        self.sqrt_det = {}
        for ch in man.charts:
            gm = g[ch.name]
            if gm.shape != ch.shape + (ch.dim, ch.dim):
                raise ShapeError("metric block shape mismatch")
            self.inv[ch.name], self.sqrt_det[ch.name] = _spd_inverse(
                ch.name, gm, "base metric"
            )


def integrate(man: Manifold, metric: BaseMetric, f: dict):
    """Quadrature of the scalar field f dx over the manifold.

    Per chart: sum of weight * f * sqrt(det g) times the coordinate cell
    volume; charts are visited in declaration order, sums are numpy pairwise.
    """
    total = 0.0
    for ch in man.charts:
        w = man.weights[ch.name]
        total = total + np.sum(w * f[ch.name] * metric.sqrt_det[ch.name]) * ch.cell_volume
    return total


def flat_metric(man: Manifold) -> BaseMetric:
    g = {}
    for ch in man.charts:
        g[ch.name] = np.broadcast_to(
            np.eye(ch.dim), ch.shape + (ch.dim, ch.dim)
        ).copy()
    return BaseMetric(man, g)


def round_sphere_metric(man: Manifold, radius: float | None = None) -> BaseMetric:
    """Stereographic-chart round metric g = 4 r^4 / (r^2 + |x|^2)^2 delta."""
    r = float(radius if radius is not None else man.params.get("radius", 1.0))
    g = {}
    for ch in man.charts:
        x = grid_points(ch)
        rho2 = np.sum(x * x, axis=-1)
        conf = 4.0 * r**4 / (r**2 + rho2) ** 2
        g[ch.name] = conf[..., None, None] * np.eye(man.dim)
    return BaseMetric(man, g)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_torus(dim: int, npts: int, side: float = 2.0 * np.pi) -> Manifold:
    """Flat d-torus, one periodic chart, nodes at i * side / N."""
    if npts < 8:
        raise ShapeError("need at least 8 points per axis")
    h = side / npts
    coords = tuple(np.arange(npts) * h for _ in range(dim))
    chart = ChartGrid(
        name="t0",
        dim=dim,
        shape=(npts,) * dim,
        spacing=(h,) * dim,
        coords=coords,
        periodic=(True,) * dim,
    )
    weights = {"t0": np.ones(chart.shape)}
    return Manifold(
        charts=(chart,),
        weights=weights,
        overlaps=(),
        kind="torus",
        params={"dim": dim, "npts": npts, "side": side},
    )


def _bump_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, strictly monotone between."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        fa = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        fb = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return fa / (fa + fb)


def _radial_profile(rho: np.ndarray, radius: float, margin: float) -> np.ndarray:
    """1 inside rho <= r/margin, 0 outside rho >= r*margin, smooth between."""
    safe = np.maximum(rho, 1e-300)
    u = np.log(safe / radius) / np.log(margin)  # -1 at r/margin, +1 at r*margin
    return 1.0 - _bump_step((u + 1.0) / 2.0)


def build_sphere_two_charts(
    dim: int,
    npts: int,
    radius: float = 1.0,
    margin: float = 1.6,
    transition: Callable | None = None,
) -> Manifold:
    """Round S^2 or S^4 on two stereographic charts.

    Charts ``north`` and ``south`` are cell-centered squares of half-side
    ``margin * radius``; the point map between them is the inversion
    ``x -> x r^2 / |x|^2`` (orientation-reversing, so the south chart carries
    orientation -1).  Partition-of-unity weights are smooth radial bumps
    normalized to sum to one at every physical point.
    """
    if dim not in (2, 4):
        raise ShapeError("shipped sphere builders cover dim 2 and 4")
    if npts < 8:
        raise ShapeError("need at least 8 points per axis")
    r = float(radius)
    half = margin * r
    h = 2.0 * half / npts
    coords1d = -half + (np.arange(npts) + 0.5) * h

    def make_chart(name, orient):
        return ChartGrid(
            name=name,
            dim=dim,
            shape=(npts,) * dim,
            spacing=(h,) * dim,
            coords=tuple(coords1d for _ in range(dim)),
            periodic=(False,) * dim,
            orientation=orient,
        )

    # Global orientation: the inversion between the charts reverses it, so
    # exactly one chart carries -1.  Putting -1 on the north chart makes the
    # shipped self-dual and monopole bundles integrate to positive charges.
    north = make_chart("north", -1)
    south = make_chart("south", +1)

    def point_map(x):
        x = np.asarray(x, dtype=float)
        rho2 = np.sum(x * x, axis=-1, keepdims=True)
        return x * (r * r) / rho2

    # Both charts have the same grid and the inversion is its own inverse, so
    # the charts share their weights and both directions share one sample
    # set: the grid points in the annulus r/margin < rho < r*margin whose
    # image lies inside the destination grid's hull.
    x = grid_points(north)
    rho = np.sqrt(np.sum(x * x, axis=-1))
    own = _radial_profile(rho, r, margin)
    other = _radial_profile(r * r / np.maximum(rho, 1e-300), r, margin)
    tot = own + other
    weight = np.where(tot > 0, own / np.where(tot > 0, tot, 1.0), 0.0)
    weights = {"north": weight, "south": weight.copy()}

    mask = (rho > r / margin) & (rho < r * margin)
    y = point_map(x[mask])
    inside = np.all((y >= coords1d[0]) & (y <= coords1d[-1]), axis=-1)
    mask[mask] = inside
    x, y = x[mask], y[inside]
    rho2 = np.sum(x * x, axis=-1)
    xhat = x / np.sqrt(rho2)[..., None]
    proj = np.eye(dim) - 2.0 * xhat[..., :, None] * xhat[..., None, :]
    jac = (r * r / rho2)[..., None, None] * proj
    for arr in (mask, x, y, jac):
        arr.setflags(write=False)

    if transition is None:
        inv_transition = None
    else:
        # the reverse overlap carries the same group element, expressed in the
        # other chart's coordinates and inverted (values are unitary)
        def inv_transition(y):
            return np.conj(np.swapaxes(transition(point_map(y)), -1, -2))

    overlaps = (
        Overlap("north", "south", point_map, mask, x, y, jac, transition),
        Overlap("south", "north", point_map, mask, x, y, jac, inv_transition),
    )
    return Manifold(
        charts=(north, south),
        weights=weights,
        overlaps=overlaps,
        kind="sphere",
        params={"dim": dim, "npts": npts, "radius": r, "margin": margin},
    )


# ---------------------------------------------------------------------------
# structure-group action on fields
# ---------------------------------------------------------------------------


def interp_chart(chart: ChartGrid, arr: np.ndarray, pts: np.ndarray):
    """Sample a per-chart array at arbitrary coordinates, multilinearly.

    ``arr`` has shape ``chart.shape + extra``; ``pts`` is (..., dim).  Extra
    axes are interpolated independently.  Each call builds one sparse
    sampling matrix, a row of 2^dim corner weights per point, and applies it
    to ``arr`` flattened to (grid points, extra); the corners and the weight
    products are taken in the order of scipy's regular-grid interpolator.
    A point outside the grid hull, NaN or infinite, raises ValueError.
    """
    from scipy.sparse import csr_matrix

    pts = np.asarray(pts, dtype=float)
    if pts.shape[-1] != chart.dim:
        raise ValueError(f"points of dimension {pts.shape[-1]} on a {chart.dim}-d chart")
    flat = pts.reshape(-1, chart.dim)
    cols = np.zeros((len(flat), 1), dtype=np.intp)
    weights = np.ones((len(flat), 1))
    for axis, grid in enumerate(chart.coords):
        x = flat[:, axis]
        if not np.all((grid[0] <= x) & (x <= grid[-1])):
            raise ValueError(f"a point lies outside chart {chart.name} in dimension {axis}")
        i = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, len(grid) - 2)
        t = (x - grid[i]) / (grid[i + 1] - grid[i])
        # corner offsets 0 then 1 along this axis, inner to the axes before
        cols = cols[:, :, None] * len(grid) + np.stack([i, i + 1], axis=-1)[:, None]
        weights = weights[:, :, None] * np.stack([1 - t, t], axis=-1)[:, None]
        cols, weights = cols.reshape(len(flat), -1), weights.reshape(len(flat), -1)
    sample = csr_matrix(
        (weights.ravel(), cols.ravel(), np.arange(0, cols.size + 1, cols.shape[1])),
        shape=(len(flat), int(np.prod(chart.shape))),
    )
    out = sample @ arr.reshape(sample.shape[1], -1)
    return out.reshape(pts.shape[:-1] + arr.shape[chart.dim :])


def expm_antihermitian(x: np.ndarray) -> np.ndarray:
    """Batched matrix exponential of anti-hermitian matrices via eigh."""
    herm = 1j * x
    ev, vec = np.linalg.eigh(herm)
    phase = np.exp(-1j * ev)
    return np.einsum("...ij,...j,...kj->...ik", vec, phase, np.conj(vec))


def su_log(t: np.ndarray) -> np.ndarray:
    """Principal logarithm of special-unitary matrices, landed in su(n).

    Branches are adjusted so the eigenvalue logs sum to zero, keeping
    exp(log t) = t while making the result traceless anti-hermitian.
    """
    w, v = np.linalg.eig(t)
    lw = np.log(w)
    total = np.sum(lw.imag, axis=-1)
    k = np.rint(total / (2.0 * np.pi)).astype(int)
    idx = np.argmax(lw.imag, axis=-1)
    lw_flat = lw.reshape(-1, lw.shape[-1])
    for row, (kk, ii) in enumerate(zip(k.reshape(-1), idx.reshape(-1))):
        if kk:
            lw_flat[row, ii] -= 2.0j * np.pi * kk
    lw = lw_flat.reshape(lw.shape)
    vinv = np.linalg.inv(v)
    out = np.einsum("...ij,...j,...jk->...ik", v, lw, vinv)
    return 0.5 * (out - np.conj(np.swapaxes(out, -1, -2)))


def rep_of_group(lb, rep, t: np.ndarray) -> np.ndarray:
    """Image rho_R(t) of group elements t (stacked n x n special unitaries)."""
    from .lie_core import component_in_basis

    xi = component_in_basis(lb, su_log(t))
    return expm_antihermitian(rep.contract(xi))


def transition_conjugate(lb, rep, t: np.ndarray, s: np.ndarray, inverse: bool = False):
    """Conjugate endomorphism-valued samples: s -> rho(t) s rho(t)^-1."""
    rt = rep_of_group(lb, rep, t)
    rti = np.conj(np.swapaxes(rt, -1, -2))
    if inverse:
        rt, rti = rti, rt
    return rt @ s @ rti
