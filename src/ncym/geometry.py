"""Charts and grids on the base manifold, and the three grid operations
every field goes through: differentiate, sample, integrate.

A manifold is a list of rectangular coordinate charts plus partition-of-unity
weights and overlap data.  Each directed overlap carries its point map, its
bundle transition function, and its sample set: the source grid points it
covers, their images in the destination chart and the coordinate Jacobians
there, decided once where the manifold is built and never empty.  Every
cross-chart diagnostic reads that one set.  Shipped builders: flat d-torus
on a single periodic chart, and round S^2 / S^4 on two stereographic charts
glued by inversion ``x -> x r^2 / |x|^2``; the sphere builder refuses a
chart margin that leaves no grid point in the overlap.

Differentiate: the finite-difference stencils, of order 2 (or 4), are written
once, in ``_STENCILS``, and built once per axis both as a dense matrix, a
product along any axis whose transpose is the exact adjoint, and as a
:class:`SamplingOperator` along the first axis, which :func:`row_slabs` uses
to differentiate one block of rows at a time.  Sample: a
:class:`SamplingOperator` is any fixed-width row operator, each output row a
weighted sum of a fixed number of first-axis rows of a field;
:func:`sampling_operator` samples a chart field multilinearly off its grid.
Integrate: :func:`integrate` is the one quadrature over the partition of
unity.  Reductions are numpy's pairwise sums, deterministic for a fixed shape
and order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
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
    "derivatives",
    "row_slabs",
    "adjoint_partial_derivative",
    "integrate",
    "build_torus",
    "build_sphere_two_charts",
    "flat_metric",
    "round_sphere_metric",
    "grid_points",
    "SamplingOperator",
    "sampling_operator",
    "overlap_round_trip",
    "interp_chart",
    "relative",
    "expm_antihermitian",
    "sup",
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
        if not all(h > 0 for h in self.spacing):
            raise ShapeError("grid spacing must be positive")
        with np.errstate(over="ignore"):  # refuses underflow only, silent on overflow
            if not self.cell_volume > 0:
                raise ShapeError(f"grid cell volume underflows to 0 (spacing {self.spacing})")

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
    d y^i / d x^j at them.  The sphere builder never leaves the set empty.
    The arrays are read-only and may be shared between overlaps, so the data
    class compares by identity.
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
    rho2: dict = field(default_factory=dict)  # |x|^2 per chart; one read-only array per grid

    def __post_init__(self):
        for ch in self.charts:
            w = self.weights[ch.name]
            if w.shape != ch.shape:
                raise ShapeError("weight array shape mismatch")
            if not np.all(w >= -1e-15):
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


def grid_points(chart: ChartGrid, rows=slice(None)) -> np.ndarray:
    """Coordinates of every grid point, shape ``chart.shape + (dim,)``, or of
    those on the first-axis ``rows`` only (a slice or an index array)."""
    axes = (chart.coords[0][rows],) + chart.coords[1:]
    out = np.empty(tuple(map(len, axes)) + (chart.dim,))
    for axis, coords in enumerate(axes):
        out[..., axis] = coords.reshape((-1,) + (1,) * (chart.dim - 1 - axis))
    return out


def sup(arrays) -> float:
    """max |x| over an array, or over an iterable of arrays or numbers reduced
    one item at a time; NaN if any entry is NaN, 0.0 if there is nothing to
    reduce.  A guard written ``not sup(x) <= tol`` refuses NaN."""
    if isinstance(arrays, np.ndarray) or np.isscalar(arrays):
        arrays = (arrays,)
    worst = 0.0
    for arr in arrays:
        worst = np.maximum(worst, np.max(np.abs(arr), initial=0.0))
    return float(worst)


def relative(residual: float, scale: float) -> float:
    """A residual over the peak it is measured against; unscaled where that
    peak is exactly 0, and NaN if either is NaN."""
    return residual / max(scale, 1e-30) if scale != 0 else residual


def overlap_round_trip(man: Manifold) -> float:
    """Worst coordinate error of mapping each overlap's sample points across
    and back through both point maps; 0.0 on a one-chart manifold, NaN if any
    error is NaN."""
    return sup(man.overlap(ov.dst, ov.src).point_map(ov.point_map(ov.x)) - ov.x
               for ov in man.overlaps)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

# order -> (interior offsets, their weights, the one-sided rows at the lower
# edge, the denominator in units of the spacing); the rows at the upper edge
# are those at the lower edge reversed and negated
_STENCILS = {
    2: ((-1, 1), (-1.0, 1.0), ((-3.0, 4.0, -1.0),), 2.0),
    4: ((-2, -1, 1, 2), (1.0, -8.0, 8.0, -1.0),
        ((-25.0, 48.0, -36.0, 16.0, -3.0), (-3.0, -10.0, 18.0, -6.0, 1.0)), 12.0),
}
_DIFF_CACHE: dict = {}


def _stencil(npts: int, h: float, periodic: bool, order: int) -> tuple:
    """The first-derivative stencil along one axis from ``_STENCILS``, built
    once per key: its dense (npts, npts) matrix, and the same stencil as a
    read-only :class:`SamplingOperator` of each row's non-zero columns."""
    key = (npts, float(h), bool(periodic), int(order))
    if key in _DIFF_CACHE:
        return _DIFF_CACHE[key]
    if order not in _STENCILS:
        raise ShapeError("supported stencil orders: 2, 4")
    offsets, interior, edge, denom = _STENCILS[order]
    if npts < 2 * max(offsets) + 2:
        raise ShapeError(f"order-{order} stencil needs at least {2 * max(offsets) + 2} points")
    d = np.zeros((npts, npts))
    i = np.arange(npts)
    for offset, weight in zip(offsets, interior):
        d[i, (i + offset) % npts] = weight / (denom * h)
    if not periodic:
        for k, row in enumerate(np.array(edge) / (denom * h)):
            d[k], d[-1 - k] = 0.0, 0.0
            d[k, : len(row)], d[-1 - k, -len(row) :] = row, -row[::-1]
    nonzero = d != 0.0
    cols = np.argsort(~nonzero, axis=1, kind="stable")[:, : nonzero.sum(axis=1).max()]
    op = SamplingOperator(cols.T.copy(), np.take_along_axis(d, cols, axis=1).T.copy(), npts)
    for arr in (d, op.cols, op.weights):
        arr.setflags(write=False)
    _DIFF_CACHE[key] = d, op
    return d, op


def diff_matrix(npts: int, h: float, periodic: bool, order: int = 2) -> np.ndarray:
    """Dense (npts, npts) first-derivative matrix along one axis."""
    return _stencil(npts, h, periodic, order)[0]


def _apply_along_axis(mat: np.ndarray, arr: np.ndarray, axis: int) -> np.ndarray:
    """``mat`` along ``axis``: one batched product over ``arr`` viewed as
    (axes before, axis, axes after), with no transposed copy.  Its bits
    depend on how many components ride along (BLAS gemv for one, gemm for
    more: 4.4e-15 apart along the last axis of a (3, 12, 12, 12) field),
    so regrouping the fields a derivative carries moves them at rounding."""
    pre = int(np.prod(arr.shape[:axis]))
    return np.matmul(mat, arr.reshape(pre, arr.shape[axis], -1)).reshape(arr.shape)


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


def derivatives(arr: np.ndarray, chart: ChartGrid, order: int = 2) -> np.ndarray:
    """The :func:`partial_derivative` along every chart axis, stacked on a new
    axis right after the grid axes: shape ``chart.shape + (dim,) + extra``."""
    return np.stack(
        [partial_derivative(arr, chart, mu, order=order) for mu in range(chart.dim)],
        axis=chart.dim,
    )


SLAB_POINTS = 1024  # grid points per slab of `row_slabs`


def _points_last(arr: np.ndarray, dim: int) -> np.ndarray:
    """A grid-first block with its ``dim`` grid axes flattened to one point
    axis, moved last."""
    return np.moveaxis(arr.reshape((-1,) + arr.shape[dim:]), 0, -1)


def row_slabs(chart: ChartGrid, fields: dict, diff=()):
    """Walk ``chart`` in slabs of at most SLAB_POINTS grid points, in order,
    and yield ``(pts, slab)`` per slab: ``pts`` is the slice of its flat
    C-order grid-point indices, and ``slab`` holds, points last (index axes
    first, then the slab's grid points),

    - ``slab[key]``, the grid-first field ``fields[key]`` at those points;
    - ``slab[key, order]`` for each ``(key, order)`` pair of ``diff``, the
      stencil derivative of ``fields[key]`` at ``order`` along every chart
      axis, stacked on a leading axis.

    Each slab is a view of a block of whole first-axis rows, as many as fit
    in SLAB_POINTS points and at least one; one block is held at a time.
    Along the first axis a derivative is the stencil's row operator on the
    block's rows, ``op @ field``: it reads the field's halo rows only, and
    has the same bits whatever the block bounds.  Along the other axes it is
    a product on the block.  It agrees with :func:`derivatives` to rounding.

    A field may also be a function that returns the grid-first field on an
    ascending array of first-axis rows (an analytic potential's rows, say).
    It is called once on each row of a block and of its stencils' halo that
    the last block did not read, and only the rows a block reads are held
    (:class:`_HeldRows`, which index like the array), so no whole-chart copy
    of the field exists.  A pointwise function gives the bits of the
    whole-chart array.
    """
    row = int(np.prod(chart.shape[1:]))
    step = max(1, SLAB_POINTS // row)
    held = {key: _HeldRows(arr, chart.shape[0]) for key, arr in fields.items() if callable(arr)}
    for start in range(0, chart.shape[0], step):
        rows = slice(start, min(start + step, chart.shape[0]))
        block = _row_block(chart, fields, diff, rows, held)
        lo, hi = rows.start * row, rows.stop * row
        for first in range(lo, hi, SLAB_POINTS):
            pts = slice(first, min(first + SLAB_POINTS, hi))
            yield pts, {key: arr[..., pts.start - lo:pts.stop - lo] for key, arr in block.items()}
        del block  # before the next block is formed


class _HeldRows:
    """The rows of a function field on ``length`` first-axis rows that the
    current block of :func:`row_slabs` reads, by row in ``row``, indexed like
    the array: ``held[rows]`` (a slice or an index array of held rows) is a
    row's view or the rows stacked, and ``shape`` and ``dtype``, set by
    :meth:`read`, are the whole field's.  A held row is the array its
    evaluation returned, dropped once no block reads it."""

    def __init__(self, rows_of, length: int):
        self.rows_of, self.length, self.row = rows_of, length, {}

    def __getitem__(self, rows) -> np.ndarray:
        rows = range(self.length)[rows] if isinstance(rows, slice) else rows
        return self.row[rows[0]][None] if len(rows) == 1 else np.stack([self.row[r] for r in rows])

    def read(self, need: set) -> None:
        """Hold exactly the rows ``need``: evaluate, one call each and in
        ascending order, those not held already."""
        self.row = {r: value for r, value in self.row.items() if r in need}
        for r in sorted(need - self.row.keys()):
            self.row[r] = self.rows_of(np.array([r]))[0]
        first = next(iter(self.row.values()))
        self.shape, self.dtype = (self.length,) + first.shape, first.dtype


def _row_block(chart: ChartGrid, fields: dict, diff, rows: slice, held: dict) -> dict:
    """The block of :func:`row_slabs` at ``rows``.  ``held[key]`` holds the
    rows of a function field that this block reads, and keeps them for the
    next; every other array is freed on return.  The slab values are
    C-contiguous copies, points last."""
    first = {order: _stencil(chart.shape[0], chart.spacing[0], chart.periodic[0], order)[1][rows]
             for _, order in diff}
    for key, arr in held.items():
        arr.read(set(range(rows.start, rows.stop)).union(
            *(first[order].cols.flat for k, order in diff if k == key)))
    source = {**fields, **held}
    block = {key: arr[rows] for key, arr in source.items()}
    slab = {key: np.array(_points_last(arr, chart.dim), order="C") for key, arr in block.items()}
    for key, order in diff:
        along = first[order] @ source[key]
        # each axis's derivative is written in place as soon as it is formed
        out = slab[key, order] = np.empty((chart.dim,) + slab[key].shape, along.dtype)
        out[0] = _points_last(along, chart.dim)
        del along
        for axis in range(1, chart.dim):
            out[axis] = _points_last(_apply_along_axis(
                _stencil(chart.shape[axis], chart.spacing[axis], chart.periodic[axis], order)[0],
                block[key], axis), chart.dim)
    return slab


def adjoint_partial_derivative(arr: np.ndarray, chart: ChartGrid, axis: int) -> np.ndarray:
    """Exact adjoint of the order-2 :func:`partial_derivative` in the flat
    grid product."""
    d = diff_matrix(chart.shape[axis], chart.spacing[axis], chart.periodic[axis])
    return _apply_along_axis(d.T, arr, axis)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


_COND_WARN = 1e8


def _require(ok: np.ndarray, message: str) -> None:
    """Raise SingularMetric with ``message`` and, on a stack, the grid index
    of the first point where ``ok`` is False, if there is one."""
    if not np.all(ok):
        idx = np.unravel_index(int(np.argmin(ok)), np.shape(ok))
        raise SingularMetric(message + (f" at {tuple(map(int, idx))}" if idx else ""))


def _check_spectrum(name: str, low: np.ndarray, high: np.ndarray, what: str) -> None:
    """Refuse a metric whose smallest eigenvalue ``low`` is not positive at
    some point; warn on a condition number max(high) / min(low) above 1e8."""
    _require(low > 0, f"{what} on {name} not positive definite")
    cond = float(np.max(high) / np.min(low))
    if cond > _COND_WARN:
        warnings.warn(f"{what} on {name}: condition number {cond:.3e}")


def _spd_inverse(name: str, block: np.ndarray, what: str) -> tuple:
    """Inverse and square-root determinant of symmetric positive-definite
    (..., k, k) blocks on chart ``name``; raises SingularMetric naming the
    chart (and the grid index) for a non-finite, non-symmetric or not
    positive-definite stack, warns on a condition number above 1e8.

    A diagonal stack (as many non-zero entries as its diagonal has) is
    inverted in closed form, bitwise as the general path: lam is the
    diagonal in ascending order, as ``eigh`` returns it, the inverse
    diag(1 / lam) and sqrt(det) = sqrt(prod lam).  It spares the default
    (identity) fiber metric one ``eigh`` per build and LAPACK's eigh pages:
    without it a torus set-up took 0.575 ms, not 0.53 (median of 2,000;
    2 cores, one BLAS thread), and peak RSS rose 0.3-0.6 MB.  Any other
    stack takes one eigendecomposition B = V diag(lam) V^T per block for
    the check, the inverse V diag(1/lam) V^T and sqrt(prod lam).
    """
    _require(np.isfinite(block).all(axis=(-2, -1)), f"{what} on {name} not finite")
    diag = np.diagonal(block, axis1=-2, axis2=-1)
    closed = np.count_nonzero(block) == np.count_nonzero(diag)
    if closed:
        # a stack already in ascending order (c * I blocks) is its own sort
        ascending = (diag[..., 1:] >= diag[..., :-1]).all()
        ev = np.ascontiguousarray(diag) if ascending else np.sort(diag, axis=-1)
    else:
        if not sup(block - np.swapaxes(block, -1, -2)) <= 1e-12:
            raise SingularMetric(f"{what} on {name} must be symmetric")
        ev, vec = np.linalg.eigh(block)
    _check_spectrum(name, ev[..., 0], ev[..., -1], what)  # ev is ascending in both paths
    if closed:
        inv = np.zeros(block.shape)
        np.einsum("...ii->...i", inv)[...] = 1.0 / diag
    else:
        inv = (vec / ev[..., None, :]) @ np.swapaxes(vec, -1, -2)
    return inv, np.sqrt(np.prod(ev, axis=-1))


class BaseMetric:
    """Conformally flat base metric g^M = c delta, held as the conformal
    factor: ``conf[name]`` is a read-only array of the chart's grid shape,
    checked finite and positive; charts holding one array share it and one
    read-only ``sqrt_det[name]``, sqrt of the product of d copies of c (the
    bits :func:`_spd_inverse` gives on c delta).  :meth:`dense` and
    :meth:`dense_inverse` form the blocks c delta and delta / c per call."""

    def __init__(self, man: Manifold, conf: dict):
        self.man = man
        self.conf = {}
        self.sqrt_det = {}
        done = {}
        for ch in man.charts:
            c = conf[ch.name]
            if c.shape != ch.shape:
                raise ShapeError(f"conformal factor on {ch.name}: shape {c.shape}, want {ch.shape}")
            if id(c) not in done:
                _require(np.isfinite(c), f"base metric on {ch.name} not finite")
                _check_spectrum(ch.name, c, c, "base metric")
                done[id(c)] = c.view(), np.sqrt(np.prod(np.stack([c] * ch.dim, axis=-1), axis=-1))
                for arr in done[id(c)]:
                    arr.setflags(write=False)
            self.conf[ch.name], self.sqrt_det[ch.name] = done[id(c)]

    def dense(self, name: str) -> np.ndarray:
        """The blocks c delta of chart ``name``, shape + (d, d)."""
        return self.conf[name][..., None, None] * np.eye(self.man.dim)

    def dense_inverse(self, name: str) -> np.ndarray:
        """The blocks delta / c of chart ``name``, shape + (d, d)."""
        return (1.0 / self.conf[name])[..., None, None] * np.eye(self.man.dim)


def integrate(man: Manifold, f: dict):
    """The quadrature over the manifold: per chart, ``np.sum(weight * f)``
    times the coordinate cell volume, summed over the charts in declaration
    order.  ``f[name]`` is a grid array or a scalar; a metric density or a
    chart orientation is a factor the caller puts into it, so
    ``integrate(man, riem.base.sqrt_det)`` is the volume."""
    total = 0.0
    for ch in man.charts:
        total = total + np.sum(man.weights[ch.name] * f[ch.name]) * ch.cell_volume
    return total


def flat_metric(man: Manifold) -> BaseMetric:
    """g = delta: the conformal factor 1.0 at every point."""
    return BaseMetric(man, {ch.name: np.ones(ch.shape) for ch in man.charts})


def round_sphere_metric(man: Manifold) -> BaseMetric:
    """Stereographic-chart round metric g = c delta with c = 4 r^4 /
    (r^2 + |x|^2)^2, r the sphere's radius, from the builder's ``rho2``;
    charts on the same grid share one read-only c (see :class:`BaseMetric`)."""
    r = man.params["radius"]
    try:
        scale = 4.0 * r**4
    except OverflowError:
        raise SingularMetric(f"round-sphere metric: radius {r!r} overflows 4 r^4") from None
    by_grid = {}
    for rho2 in man.rho2.values():
        if id(rho2) not in by_grid:
            by_grid[id(rho2)] = scale / (r**2 + rho2) ** 2
    return BaseMetric(man, {name: by_grid[id(rho2)] for name, rho2 in man.rho2.items()})


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
    ``x -> x r^2 / |x|^2`` (orientation-reversing, so the north chart carries
    orientation -1).  Partition-of-unity weights are smooth radial bumps
    normalized to sum to one at every physical point.  A margin that leaves
    no grid point in the overlap raises GluingError, and with a transition
    so does one that puts the origin in a sample point's stencil.
    """
    if dim not in (2, 4):
        raise ShapeError("shipped sphere builders cover dim 2 and 4")
    if npts < 8:
        raise ShapeError("need at least 8 points per axis")
    r = float(radius)
    half = margin * r
    h = 2.0 * half / npts
    # the inversion squares the radius, the corner distance and the half-spacing
    squares = np.array([r * r, dim * half * half, 0.25 * h * h])
    if not np.all(np.isfinite(squares) & (squares >= np.finfo(float).tiny)):
        raise ShapeError(
            f"sphere of radius {radius!r} with chart margin {margin!r}: "
            "the chart extent overflows or underflows a float"
        )
    coords1d = -half + (np.arange(npts) + 0.5) * h
    # Global orientation: the inversion between the charts reverses it, so
    # exactly one chart carries -1.  Putting -1 on the north chart makes the
    # shipped self-dual and monopole bundles integrate to positive charges.
    north = ChartGrid(name="north", dim=dim, shape=(npts,) * dim, spacing=(h,) * dim,
                      coords=(coords1d,) * dim, periodic=(False,) * dim, orientation=-1)
    south = replace(north, name="south", orientation=+1)

    def point_map(x):
        x = np.asarray(x, dtype=float)
        rho2 = np.sum(x * x, axis=-1, keepdims=True)
        return x * (r * r) / rho2

    # Both charts have the same grid and the inversion is its own inverse, so
    # the charts share their weights and both directions share one sample
    # set: the grid points in the annulus r/margin < rho < r*margin whose
    # image lies inside the destination grid's hull.
    x = grid_points(north)
    rho2 = np.sum(x * x, axis=-1)
    rho = np.sqrt(rho2)
    own = _radial_profile(rho, r, margin)
    other = _radial_profile(r * r / np.maximum(rho, 1e-300), r, margin)
    # own + other is 1 to rounding, as the bump steps at t and 1 - t add to 1
    # (at least 1 - 2e-14 on every grid measured), so the weights need no guard
    weight = own / (own + other)
    weight.setflags(write=False)
    weights = {"north": weight, "south": weight}

    mask = (rho > r / margin) & (rho < r * margin)
    y = point_map(x[mask])
    inside = np.all((y >= coords1d[0]) & (y <= coords1d[-1]), axis=-1)
    mask[mask] = inside
    if not mask.any():
        raise GluingError(f"sphere charts share no grid point: chart margin {margin!r} at "
                          f"npts {npts} leaves their overlap without sample points")
    # the origin, a grid point at odd npts, is read by its axis neighbours (rho = h)
    if transition is not None and npts % 2 and np.any(mask & (rho < 1.2 * h)):
        raise GluingError(f"chart margin {margin!r} at npts {npts} puts the chart origin, where "
                          "the transition is singular, in a sample point's stencil")
    x, y = x[mask], y[inside]
    xhat = x / rho[mask][..., None]
    proj = np.eye(dim) - 2.0 * xhat[..., :, None] * xhat[..., None, :]
    jac = (r * r / rho2[mask])[..., None, None] * proj
    for arr in (mask, x, y, jac, rho2):
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
        rho2={"north": rho2, "south": rho2},
    )


# ---------------------------------------------------------------------------
# fixed-width row operators, sampling off the grid, the matrix exponential
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SamplingOperator:
    """A (rows, grid points) matrix with a fixed number of entries per row,
    stored by row: ``cols[k, i]`` is the column of row i's k-th entry and
    ``weights[k, i]`` its weight (a zero weight pads a shorter row).  It is
    the multilinear sampling of :func:`sampling_operator` (entries: a point's
    2^dim corners) and the first-axis stencil of :func:`row_slabs` (entries:
    a row's non-zero columns, ascending).
    ``S @ field`` applies it along the first axis of a grid-first field of
    any shape, an array or the held rows of :func:`row_slabs`, and
    ``S[rows]`` is the operator of a slice of the rows.  The arrays are
    read-only and shared by row slices.
    """

    cols: np.ndarray
    weights: np.ndarray
    grid_points: int

    @property
    def shape(self) -> tuple:
        return (self.cols.shape[1], self.grid_points)

    def __getitem__(self, rows: slice) -> SamplingOperator:
        return SamplingOperator(self.cols[:, rows], self.weights[:, rows], self.grid_points)

    def __matmul__(self, field) -> np.ndarray:
        """Each row's entries gathered along the first axis, weighted and
        added in order onto zero, as a CSR product adds a row's entries, so
        the sums carry its bits.  A gather reads only the rows it names, so
        a broadcast field is never copied whole."""
        if field.shape[0] != self.grid_points:
            raise ShapeError(f"a field on {field.shape[0]} grid points, want {self.grid_points}")
        # 2-d buffers, so each product runs along a whole gathered row
        out = np.zeros((self.shape[0], math.prod(field.shape[1:])),
                       np.result_type(field.dtype, float))
        term = np.empty_like(out)
        for cols, weights in zip(self.cols, self.weights):
            np.multiply(field[cols].reshape(term.shape), weights[:, None], out=term)
            out += term
        return out.reshape(self.shape[:1] + field.shape[1:])


def sampling_operator(chart: ChartGrid, pts: np.ndarray) -> SamplingOperator:
    """The :class:`SamplingOperator` that samples a chart field at ``pts``
    (..., dim), flattened to one point axis, multilinearly: each point has
    2^dim corners, the corners and the weight products taken in the order
    of scipy's regular-grid interpolator.  A point outside the grid hull,
    NaN or infinite, raises ValueError.  A row slice of it samples the
    slice's points with the same bits.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.shape[-1] != chart.dim:
        raise ValueError(f"points of dimension {pts.shape[-1]} on a {chart.dim}-d chart")
    flat = pts.reshape(-1, chart.dim)
    cols = np.zeros((1, len(flat)), dtype=np.intp)
    weights = np.ones((1, len(flat)))
    for axis, grid in enumerate(chart.coords):
        x = flat[:, axis]
        if not np.all((grid[0] <= x) & (x <= grid[-1])):
            raise ValueError(f"a point lies outside chart {chart.name} in dimension {axis}")
        i = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, len(grid) - 2)
        t = (x - grid[i]) / (grid[i + 1] - grid[i])
        # corner offsets 0 then 1 along this axis, inner to the axes before
        cols = (cols[:, None] * len(grid) + np.stack([i, i + 1])).reshape(-1, len(flat))
        weights = (weights[:, None] * np.stack([1 - t, t])).reshape(-1, len(flat))
    cols.flags.writeable = weights.flags.writeable = False
    return SamplingOperator(cols, weights, int(np.prod(chart.shape)))


def interp_chart(chart: ChartGrid, arr: np.ndarray, pts: np.ndarray):
    """Sample ``arr`` (shape ``chart.shape + extra``) at ``pts`` (..., dim),
    multilinearly: the :func:`sampling_operator` of ``pts`` applied to ``arr``
    with its grid axes flattened to one, so extra axes are independent; the
    operator is formed one row slice of at most SLAB_POINTS points at a time."""
    extra, flat = arr.shape[chart.dim :], np.reshape(pts, (-1, np.shape(pts)[-1]))
    out = np.empty((len(flat),) + extra, np.result_type(arr, float))
    for run in (slice(i, i + SLAB_POINTS) for i in range(0, len(flat), SLAB_POINTS)):
        out[run] = sampling_operator(chart, flat[run]) @ arr.reshape((-1,) + extra)
    return out.reshape(np.shape(pts)[:-1] + extra)


def expm_antihermitian(x: np.ndarray) -> np.ndarray:
    """Batched matrix exponential of anti-hermitian matrices via eigh."""
    herm = 1j * x
    ev, vec = np.linalg.eigh(herm)
    phase = np.exp(-1j * ev)
    return np.einsum("...ij,...j,...kj->...ik", vec, phase, np.conj(vec))
