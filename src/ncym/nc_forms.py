"""Differential forms valued in endomorphism fields, over a mixed frame.

A form of degree r on a chart is stored by components on strictly sorted
multi-indices drawn from a combined alphabet of d + m letters: letters
0..d-1 label the horizontal covectors dx^mu dual to the covariant frame
derivations nabla_mu = partial_mu + ad(A_mu), and letters d..d+m-1 label the
vertical covectors -alpha^a dual to the inner derivations ad(E_a).  Storing
components in this connection-adapted coframe keeps the metric block-diagonal
and makes the horizontal/vertical split of any form literal: selecting keys
is the split.

Each component is a complex array of shape chart.shape + (k, k), with k the
dimension of the representation carried by the reference connection; the
basis covectors are central, so wedge products only order the matrix values.

The differential is a frame Koszul formula over the basis derivations.  Its
structure functions are

    [nabla_mu, nabla_nu]  = F^b_mu_nu ad(E_b)
    [nabla_mu, ad(E_b)]   = A^e_mu C_eb^c ad(E_c)
    [ad(E_a), ad(E_b)]    = C_ab^c ad(E_c)

and the frame derivations act on values by L_mu v = partial_mu v +
[R(A_mu), v] and L_a v = [R(E_a), v].  All base derivatives are the shared
finite-difference stencils of :mod:`ncym.geometry`, so algebraic identities
that hold for the continuum calculus hold here up to (at worst) the
second-order product-rule error of the stencils, and exactly on
x-independent data.

Metric operations (Hodge star, pairings, integrals) take any object exposing
``base.dense_inverse(name)`` (inverse base metric blocks, shape + (d, d),
formed per call) and per-chart arrays ``hint[name]`` (inverse fiber metric,
shape + (m, m)), ``sqrtg[name]`` (sqrt(det g^M * det g_ab)) and
``sqrt_det_int[name]``; the concrete provider lives in :mod:`ncym.metric`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ShapeError
from .geometry import ChartGrid, Manifold, grid_points, integrate, partial_derivative, sup

__all__ = [
    "MixedForm",
    "zero_form",
    "form_from_components",
    "random_form",
    "wedge",
    "differential",
    "covariant_differential",
    "interior_vertical",
    "dagger_form",
    "horizontal_part",
    "vertical_part",
    "hodge_star",
    "metric_pairing",
    "fiber_integrate",
    "total_integral",
    "scalar_product",
    "form_norm",
]


# ---------------------------------------------------------------------------
# sign bookkeeping on sorted multi-indices
# ---------------------------------------------------------------------------


def _merge_sign(k1: tuple, k2: tuple) -> int:
    """Sign of sorting the concatenation of two sorted disjoint tuples."""
    inv = sum(1 for a in k1 for b in k2 if a > b)
    return -1 if inv % 2 else 1


def _insert(letter: int, key: tuple) -> tuple[int, tuple]:
    """Insert a letter into a sorted key; return (sign, new key)."""
    pos = sum(1 for x in key if x < letter)
    sign = -1 if pos % 2 else 1
    return sign, key[:pos] + (letter,) + key[pos:]


def _perm_sign(seq) -> int:
    """Sign of the permutation taking seq to sorted(seq)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# the form container
# ---------------------------------------------------------------------------


@dataclass
class MixedForm:
    """Endomorphism-valued form of fixed degree on a single chart.

    ``ref`` is the ordinary connection fixing the coframe (dx^mu, -alpha^a);
    forms belonging to different references must not be combined.
    """

    degree: int
    chart: ChartGrid
    ref: Any
    comps: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return self.chart.dim

    @property
    def m(self) -> int:
        return self.ref.basis.dim

    @property
    def rep(self):
        return self.ref.rep

    @property
    def k(self) -> int:
        return self.ref.rep.k

    @property
    def letters(self) -> int:
        return self.d + self.m

    def _shape(self):
        return self.chart.shape + (self.k, self.k)

    def get(self, key: tuple) -> np.ndarray:
        key = tuple(key)
        if key in self.comps:
            return self.comps[key]
        return np.zeros(self._shape(), dtype=complex)

    def set(self, key, value) -> "MixedForm":
        """Store a component; unsorted keys are sorted with the implied sign."""
        key = tuple(key)
        if len(key) != self.degree:
            raise ShapeError(f"key length {len(key)} != degree {self.degree}")
        if len(set(key)) != len(key):
            return self  # repeated covector: identically zero
        if any(not 0 <= x < self.letters for x in key):
            raise ShapeError(f"letter out of range in {key}")
        sign = _perm_sign(key)
        skey = tuple(sorted(key))
        value = np.broadcast_to(np.asarray(value, dtype=complex), self._shape())
        self.comps[skey] = sign * value
        return self

    def add_to(self, key: tuple, value: np.ndarray):
        if key in self.comps:
            self.comps[key] = self.comps[key] + value
        else:
            self.comps[key] = np.array(value, dtype=complex)

    def prune(self) -> "MixedForm":
        """Drop stored components that are identically zero (a component
        holding a NaN is kept)."""
        self.comps = {
            k: v for k, v in self.comps.items() if sup(v) != 0.0
        }
        return self

    def copy(self) -> "MixedForm":
        return MixedForm(
            self.degree, self.chart, self.ref,
            {k: v.copy() for k, v in self.comps.items()},
        )

    def _check_mate(self, other: "MixedForm"):
        if other.ref is not self.ref:
            raise ShapeError("forms combine only over a shared reference connection")
        if other.chart is not self.chart:
            raise ShapeError("forms combine only on a shared chart")

    def __add__(self, other: "MixedForm") -> "MixedForm":
        self._check_mate(other)
        if other.degree != self.degree:
            raise ShapeError("degree mismatch in form addition")
        out = self.copy()
        for k, v in other.comps.items():
            out.add_to(k, v)
        return out

    def __sub__(self, other: "MixedForm") -> "MixedForm":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "MixedForm":
        return MixedForm(
            self.degree, self.chart, self.ref,
            {k: scalar * v for k, v in self.comps.items()},
        )

    __rmul__ = __mul__


def zero_form(ref, chart: ChartGrid, degree: int) -> MixedForm:
    return MixedForm(degree, chart, ref, {})


def form_from_components(ref, chart: ChartGrid, degree: int, comps: dict) -> MixedForm:
    w = zero_form(ref, chart, degree)
    for key, val in comps.items():
        w.set(key, val)
    return w


def random_form(ref, chart: ChartGrid, degree: int, seed: int,
                x_dependent: bool = False, amplitude: float = 1.0) -> MixedForm:
    """Dense random form: every key populated, optionally with smooth
    x-dependence (a low-frequency cosine profile per component)."""
    rng = np.random.default_rng(seed)
    w = zero_form(ref, chart, degree)
    k = w.k
    x = grid_points(chart)
    for key in itertools.combinations(range(w.letters), degree):
        val = amplitude * (rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
        val = np.broadcast_to(val, w._shape()).copy()
        if x_dependent:
            freq = rng.integers(1, 3, size=chart.dim)
            phase = rng.uniform(0, 2 * np.pi)
            prof = np.cos(np.tensordot(x, freq, axes=([-1], [0])) + phase)
            val = val * prof[..., None, None]
        w.comps[key] = val
    return w


def form_norm(w: MixedForm) -> float:
    """Max absolute value over all stored components; NaN if any is NaN."""
    return sup(w.comps.values())


# ---------------------------------------------------------------------------
# graded product
# ---------------------------------------------------------------------------


def wedge(w: MixedForm, e: MixedForm) -> MixedForm:
    """Graded product: covectors anticommute, matrix values multiply in order."""
    w._check_mate(e)
    out = zero_form(w.ref, w.chart, w.degree + e.degree)
    if out.degree > out.letters:
        return out
    for k1, v1 in w.comps.items():
        s1 = set(k1)
        for k2, v2 in e.comps.items():
            if s1 & set(k2):
                continue
            sign = _merge_sign(k1, k2)
            out.add_to(tuple(sorted(k1 + k2)), sign * (v1 @ v2))
    return out


def dagger_form(w: MixedForm) -> MixedForm:
    """Componentwise hermitian conjugate of the matrix values."""
    return MixedForm(
        w.degree, w.chart, w.ref,
        {k: np.conj(np.swapaxes(v, -1, -2)) for k, v in w.comps.items()},
    )


def horizontal_part(w: MixedForm) -> MixedForm:
    """Components whose multi-index is purely horizontal (pullback sector)."""
    d = w.d
    return MixedForm(
        w.degree, w.chart, w.ref,
        {k: v.copy() for k, v in w.comps.items() if all(x < d for x in k)},
    )


def vertical_part(w: MixedForm) -> MixedForm:
    """Components with at least one vertical letter (the complement of the
    horizontal part, so that reassembling the two halves is the identity)."""
    d = w.d
    return MixedForm(
        w.degree, w.chart, w.ref,
        {k: v.copy() for k, v in w.comps.items() if any(x >= d for x in k)},
    )


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------


def _frame_action(w: MixedForm, letter: int, value: np.ndarray) -> np.ndarray:
    """Action of the frame derivation labelled by a letter on a matrix field."""
    d = w.d
    if letter < d:
        ra = w.ref.rep_potential(w.chart.name)[..., letter, :, :]
        return partial_derivative(value, w.chart, letter) + ra @ value - value @ ra
    rmat = w.rep.matrices[letter - d]
    return rmat @ value - value @ rmat


def _structure_field(w: MixedForm, b: int, c: int):
    """Structure functions c_{bc}^e of the frame, as (target letter, field)
    pairs; fields broadcast against chart-shaped arrays."""
    d, m = w.d, w.m
    name = w.chart.name
    C = w.ref.basis.structure
    out = []
    if b < d and c < d:
        F = w.ref.curvature()[name]  # shape + (d, d, m)
        for a in range(m):
            out.append((d + a, F[..., b, c, a]))
    elif b < d <= c:
        A = w.ref.A[name]  # shape + (d, m)
        coef = np.tensordot(A[..., b, :], C[:, c - d, :], axes=([-1], [0]))
        for a in range(m):
            out.append((d + a, coef[..., a]))
    else:
        for a in range(m):
            val = C[b - d, c - d, a]
            if val != 0.0:
                out.append((d + a, val))
    return out


def _koszul(w: MixedForm, horizontal_out: bool) -> MixedForm:
    out = zero_form(w.ref, w.chart, w.degree + 1)
    d = w.d
    struct = {
        (b, c): _structure_field(w, b, c)
        for b in range(w.letters)
        for c in range(b + 1, w.letters)
    }
    for key, val in w.comps.items():
        # derivation terms: insert a letter, apply its frame action
        for b in range(w.letters):
            if b in key:
                continue
            if horizontal_out and (b >= d or any(x >= d for x in key)):
                continue
            sign, new = _insert(b, key)
            out.add_to(new, sign * _frame_action(w, b, val))
        # structure terms: remove one letter e from the key, insert a pair
        for p, e in enumerate(key):
            rest = key[:p] + key[p + 1:]
            sign_e = -1 if sum(1 for x in rest if x < e) % 2 else 1
            for b in range(w.letters):
                if b in rest:
                    continue
                for c in range(b + 1, w.letters):
                    if c in rest:
                        continue
                    new = tuple(sorted(rest + (b, c)))
                    if horizontal_out and any(x >= d for x in new):
                        continue
                    pb = new.index(b)
                    pc = new.index(c)
                    sign_pair = -1 if (pb + pc) % 2 else 1
                    for target, cf in struct[(b, c)]:
                        if target != e:
                            continue
                        term = sign_pair * sign_e * cf
                        if np.isscalar(term) or term.ndim == 0:
                            out.add_to(new, term * val)
                        else:
                            out.add_to(new, term[..., None, None] * val)
    return out.prune()


def differential(w: MixedForm) -> MixedForm:
    """Koszul differential over the frame derivations (degree +1)."""
    return _koszul(w, horizontal_out=False)


def covariant_differential(w: MixedForm) -> MixedForm:
    """Differential evaluated on covariant frame arguments only: the result
    has purely horizontal components and all vertical components vanish."""
    return _koszul(w, horizontal_out=True)


def interior_vertical(w: MixedForm, gamma: np.ndarray) -> MixedForm:
    """Contraction with the inner derivation of components gamma^a.

    ``gamma`` has shape (m,) or chart.shape + (m,), real.
    """
    gamma = np.asarray(gamma)
    out = zero_form(w.ref, w.chart, w.degree - 1)
    if w.degree == 0:
        return out
    d = w.d
    for key, val in w.comps.items():
        for p, letter in enumerate(key):
            if letter < d:
                continue
            g = gamma[..., letter - d]
            coef = g if np.isscalar(g) or g.ndim == 0 else g[..., None, None]
            sign = -1 if p % 2 else 1
            out.add_to(key[:p] + key[p + 1:], sign * coef * val)
    return out.prune()


# ---------------------------------------------------------------------------
# metric operations
# ---------------------------------------------------------------------------


def _split_key(key: tuple, d: int):
    return tuple(x for x in key if x < d), tuple(x - d for x in key if x >= d)


def _block_det(h: np.ndarray, rows: tuple, cols: tuple):
    """det of the (rows, cols) minor of a pointwise matrix field; 1 if empty."""
    if not rows:
        return 1.0
    sub = h[..., rows, :][..., :, cols]
    if len(rows) == 1:
        return sub[..., 0, 0]
    return np.linalg.det(sub)


def _raised(w: MixedForm, riem, key_out: tuple):
    """Component of w with indices raised by the block inverse metric."""
    d = w.d
    name = w.chart.name
    hb = riem.base.dense_inverse(name)
    hi = riem.hint[name]
    oh, ov = _split_key(key_out, d)
    total = None
    for key, val in w.comps.items():
        kh, kv = _split_key(key, d)
        if len(kh) != len(oh):
            continue
        det = _block_det(hb, oh, kh) * _block_det(hi, ov, kv)
        term = det * val if np.isscalar(det) else det[..., None, None] * val
        total = term if total is None else total + term
    if total is None:
        return np.zeros(w._shape(), dtype=complex)
    return total


def hodge_star(w: MixedForm, riem) -> MixedForm:
    """Hodge dual of degree d + m - r, built from the block inverse metric,
    the combined density sqrt(det g^M det g_ab) and the chart orientation."""
    N = w.letters
    out = zero_form(w.ref, w.chart, N - w.degree)
    dens = riem.sqrtg[w.chart.name] * w.chart.orientation
    full = tuple(range(N))
    touched = set()
    for key in w.comps:
        kh, kv = _split_key(key, w.d)
        for oh in itertools.combinations(range(w.d), len(kh)):
            for ov in itertools.combinations(range(w.m), len(kv)):
                touched.add(tuple(oh) + tuple(x + w.d for x in ov))
    for key_up in touched:
        comp = tuple(x for x in full if x not in key_up)
        eps = _perm_sign(key_up + comp) if key_up else 1
        raised = _raised(w, riem, key_up)
        out.add_to(comp, eps * dens[..., None, None] * raised)
    return out.prune()


def metric_pairing(w: MixedForm, e: MixedForm, riem) -> np.ndarray:
    """Block pairing h(w, e): sum over index pairs of w_K (raised e)_K.

    Values multiply as matrices in the given order; unequal degrees pair to
    the zero field.
    """
    w._check_mate(e)
    out = np.zeros(w._shape(), dtype=complex)
    if w.degree != e.degree:
        return out
    for key in w.comps:
        out = out + w.comps[key] @ _raised(e, riem, key)
    return out


def fiber_integrate(w: MixedForm, riem) -> dict:
    """Integrate over the vertical directions: keep components carrying the
    full vertical multi-index, trace the matrix values, weight by
    sqrt(det g_ab).  Returns {horizontal key: complex scalar field}."""
    d, m = w.d, w.m
    dens = riem.sqrt_det_int[w.chart.name]
    full_v = tuple(range(d, d + m))
    out = {}
    for key, val in w.comps.items():
        kh = tuple(x for x in key if x < d)
        kv = tuple(x for x in key if x >= d)
        if kv != full_v:
            continue
        out[kh] = dens * np.trace(val, axis1=-2, axis2=-1)
    return out


def _as_field(man: Manifold, w) -> dict:
    if isinstance(w, MixedForm):
        if len(man.charts) != 1:
            raise ShapeError("a bare form covers only single-chart manifolds")
        return {man.charts[0].name: w}
    return w


def total_integral(w, man: Manifold, riem) -> complex:
    """The closed integral: fiber integration followed by the base integral.

    Only the top-degree component (full horizontal and full vertical index)
    contributes; lower degrees integrate to zero.  Top horizontal components
    are coordinate densities, so :func:`geometry.integrate` takes them times
    the chart orientation, with no further metric factor.
    """
    forms = _as_field(man, w)
    full_h = tuple(range(man.dim))
    top = {ch.name: ch.orientation * fiber_integrate(forms[ch.name], riem).get(full_h, 0.0)
           if ch.name in forms else 0.0 for ch in man.charts}
    return complex(integrate(man, top))


def scalar_product(w, e, man: Manifold, riem) -> complex:
    """Hermitian product (w, e): the closed integral of <w, star e>, evaluated
    in block-contraction form: integral of w tr(w_K^dagger e^K) against the
    combined density.  Positive on the diagonal, hermitian in its arguments."""
    wf = _as_field(man, w)
    ef = _as_field(man, e)
    dens = dict.fromkeys(man.weights, 0.0)
    for ch in man.charts:
        if ch.name not in wf or ch.name not in ef:
            continue
        wc, ec = wf[ch.name], ef[ch.name]
        wc._check_mate(ec)
        if wc.degree != ec.degree:
            continue
        acc = np.zeros(ch.shape, dtype=complex)
        for key, val in wc.comps.items():
            raised = _raised(ec, riem, key)
            acc = acc + np.einsum("...ij,...ij->...", np.conj(val), raised)
        dens[ch.name] = riem.sqrtg[ch.name] * acc
    return complex(integrate(man, dens))
