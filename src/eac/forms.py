"""Exterior algebra on the lattice chart and the intersection certificate.

Forms live on R^(2g) with the coordinate covectors ordered
(da_1, db_1, ..., da_g, db_g), indexed 1..2g. Coefficients are exact
(Fraction or MultiQuadElem) whenever the inputs are exact and float
otherwise; mixing an exact coefficient with a float demotes to float. The
lattice chart gives the real torus covolume 1, so integrating a top form
over the torus just reads off the coefficient of e_(1..2g).

The certificate for a pair (L, W) wedges the class of W, fixed by its
fiber degrees (hypersurface_form), with the rational volume form of the
hull T of L and a complementary form built from the realified complex
equations of L. A nonzero value is the homological non-vanishing that
licenses the intersection solver; zeros_per_cell reads the pairing with
L's realified equations as the mean zero count of each cell it walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .exactlinalg import rank_exact
from .hull import HullResult
from .multiquad import ComplexMQ, MultiQuadElem, render_mq
from .variety import ExactSubspace, ProductVariety


class DegreeMismatch(ValueError):
    pass


class CertificateError(ValueError):
    pass


def _scal_is_zero(x) -> bool:
    if isinstance(x, MultiQuadElem):
        return x.is_zero()
    return x == 0


def _vanishes(x) -> bool:
    """Exact zero, or a float within 1e-12 of zero: the certificate's rule."""
    if isinstance(x, float):
        return abs(x) <= 1e-12
    return _scal_is_zero(x)


def _scal_add(x, y):
    if isinstance(x, float) or isinstance(y, float):
        return float(x) + float(y)
    return x + y


def _scal_mul(x, y):
    if isinstance(x, float) or isinstance(y, float):
        return float(x) * float(y)
    return x * y


def _coerce_scalar(x):
    if isinstance(x, (MultiQuadElem, float)):
        return x
    if isinstance(x, Rational):
        return Fraction(x)
    raise TypeError(f"unsupported form coefficient {type(x).__name__}")


def _perm_sign_merge(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Sign and sorted key for concatenating two sorted index tuples.

    Returns None when the tuples share an index (the wedge dies). The sign is
    the parity of the number of transpositions sorting a + b.
    """
    if set(a) & set(b):
        return None
    merged = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            merged.append(b[j])
            # b[j] hops over the remaining entries of a
            if (len(a) - i) % 2 == 1:
                sign = -sign
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return sign, tuple(merged)


class ExteriorForm:
    """Alternating form of fixed degree with a sparse coefficient table."""

    __slots__ = ("degree", "ambient", "coeffs")

    def __init__(self, degree: int, ambient: int, coeffs: dict | None = None):
        if not 0 <= degree <= ambient:
            raise DegreeMismatch(f"degree {degree} outside [0, {ambient}]")
        self.degree = degree
        self.ambient = ambient
        table: dict[tuple[int, ...], object] = {}
        for key, val in (coeffs or {}).items():
            key = tuple(key)
            if len(key) != degree:
                raise DegreeMismatch(f"key {key} has wrong length for degree {degree}")
            if list(key) != sorted(set(key)):
                raise ValueError(f"key {key} must be strictly increasing")
            if key and (key[0] < 1 or key[-1] > ambient):
                raise ValueError(f"key {key} outside 1..{ambient}")
            val = _coerce_scalar(val)
            if not _scal_is_zero(val):
                table[key] = val
        self.coeffs = table

    @classmethod
    def zero(cls, degree: int, ambient: int) -> ExteriorForm:
        return cls(degree, ambient, {})

    @classmethod
    def constant(cls, value, ambient: int) -> ExteriorForm:
        return cls(0, ambient, {(): value})

    @classmethod
    def covector(cls, coeffs_vector, ambient: int | None = None) -> ExteriorForm:
        vec = list(coeffs_vector)
        n = ambient if ambient is not None else len(vec)
        return cls(1, n, {(i + 1,): c for i, c in enumerate(vec)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: ExteriorForm) -> ExteriorForm:
        if self.degree != other.degree or self.ambient != other.ambient:
            raise DegreeMismatch("cannot add forms of different degree or ambient")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            if k in out:
                s = _scal_add(out[k], v)
                if _scal_is_zero(s):
                    del out[k]
                else:
                    out[k] = s
            else:
                out[k] = v
        f = ExteriorForm(self.degree, self.ambient)
        f.coeffs = out
        return f

    def __neg__(self) -> ExteriorForm:
        return self.scale(-1)

    def __sub__(self, other: ExteriorForm) -> ExteriorForm:
        return self + other.scale(-1)

    def scale(self, s) -> ExteriorForm:
        s = _coerce_scalar(s)
        out = {}
        for k, v in self.coeffs.items():
            p = _scal_mul(s, v)
            if not _scal_is_zero(p):
                out[k] = p
        f = ExteriorForm(self.degree, self.ambient)
        f.coeffs = out
        return f

    def wedge(self, other: ExteriorForm) -> ExteriorForm:
        if self.ambient != other.ambient:
            raise DegreeMismatch("ambient dimensions differ")
        deg = self.degree + other.degree
        if deg > self.ambient:
            raise DegreeMismatch(
                f"wedge degree {deg} exceeds ambient {self.ambient}")
        out: dict[tuple[int, ...], object] = {}
        for ka, va in self.coeffs.items():
            for kb, vb in other.coeffs.items():
                sm = _perm_sign_merge(ka, kb)
                if sm is None:
                    continue
                sign, key = sm
                term = _scal_mul(va, vb)
                if sign < 0:
                    term = _scal_mul(-1, term)
                if key in out:
                    s = _scal_add(out[key], term)
                    if _scal_is_zero(s):
                        del out[key]
                    else:
                        out[key] = s
                elif not _scal_is_zero(term):
                    out[key] = term
        f = ExteriorForm(deg, self.ambient)
        f.coeffs = out
        return f

    def leading(self):
        """Lexicographically first key and its coefficient, or None."""
        if not self.coeffs:
            return None
        k = min(self.coeffs)
        return k, self.coeffs[k]

    def normalized(self) -> ExteriorForm:
        """Scale so the lexicographically leading coefficient is 1."""
        lead = self.leading()
        if lead is None:
            return self
        _, c = lead
        if isinstance(c, float):
            return self.scale(1.0 / c)
        if isinstance(c, MultiQuadElem):
            return self.scale(c.inv())
        return self.scale(Fraction(1) / Fraction(c))

    def proportional_to(self, other: ExteriorForm, tol: float = 0.0):
        """Ratio self = r * other if proportional, else None. tol for floats."""
        if other.is_zero():
            return None if not self.is_zero() else 0
        lead = other.leading()
        k, c = lead
        if k not in self.coeffs:
            return None
        if isinstance(c, float) or any(isinstance(v, float) for v in self.coeffs.values()):
            r = float(self.coeffs[k]) / float(c)
            diff = self - other.scale(r)
            scale = max(abs(float(v)) for v in other.coeffs.values())
            bound = tol * max(1.0, abs(r) * scale)
            ok = all(abs(float(v)) <= bound for v in diff.coeffs.values())
            return r if ok else None
        c_inv = c.inv() if isinstance(c, MultiQuadElem) else Fraction(1) / Fraction(c)
        r = _scal_mul(self.coeffs[k], c_inv)
        return r if (self - other.scale(r)).is_zero() else None

    def as_float(self) -> ExteriorForm:
        f = ExteriorForm(self.degree, self.ambient)
        f.coeffs = {k: float(v) for k, v in self.coeffs.items()}
        return f

    def __eq__(self, other):
        if not isinstance(other, ExteriorForm):
            return NotImplemented
        return (self.degree == other.degree and self.ambient == other.ambient
                and self.coeffs == other.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return f"ExteriorForm(deg={self.degree}, 0)"
        parts = []
        for k in sorted(self.coeffs):
            v = self.coeffs[k]
            vs = render_mq(v) if isinstance(v, MultiQuadElem) else str(v)
            parts.append(f"({vs})e{''.join(map(str, k))}" if k else f"({vs})")
        return f"ExteriorForm(deg={self.degree}, " + " + ".join(parts) + ")"


def wedge_covectors(rows, ambient: int) -> ExteriorForm:
    """The wedge row_1 ^ ... ^ row_k of covector rows; no rows give the constant 1."""
    form = ExteriorForm.constant(Fraction(1), ambient)
    for row in rows:
        form = form.wedge(ExteriorForm.covector(row, ambient))
    return form


def integrate_top(form: ExteriorForm, g: int):
    """Integral over the unit-covolume torus: the coefficient of e_(1..2g)."""
    if form.degree != 2 * g or form.ambient != 2 * g:
        raise DegreeMismatch(
            f"integrand must be a top form of degree {2 * g}, got degree {form.degree}")
    top = tuple(range(1, 2 * g + 1))
    return form.coeffs.get(top, Fraction(0))


def realify_covector(lam: list[ComplexMQ], A: ProductVariety
                     ) -> tuple[list[MultiQuadElem], list[MultiQuadElem]]:
    """Real and imaginary parts of z -> sum lam_j z_j in the lattice chart.

    With z_j = a_j + b_j tau_j, the linear functional splits as
      Re: sum Re(lam_j) a_j + Re(lam_j tau_j) b_j,
      Im: sum Im(lam_j) a_j + Im(lam_j tau_j) b_j.
    """
    if len(lam) != A.g:
        raise ValueError("covector length does not match the variety")
    re_row: list[MultiQuadElem] = []
    im_row: list[MultiQuadElem] = []
    for lj, f in zip(lam, A.factors):
        lt = lj * f.tau_exact()
        re_row.extend((lj.re, lt.re))
        im_row.extend((lj.im, lt.im))
    return re_row, im_row


def realified_equations(L: ExactSubspace, A: ProductVariety) -> list[list[MultiQuadElem]]:
    """R_1, ..., R_d, I_1, ..., I_d: the realified complex equations of L."""
    pairs = [realify_covector(lam, A) for lam in L.complex_equations()]
    return [r for r, _ in pairs] + [i for _, i in pairs]


def holomorphic_form_realized(L: ExactSubspace, A: ProductVariety) -> ExteriorForm:
    """Realified volume form of the complex equations of L, lex-normalized.

    For L of complex codimension d this is the normalized wedge
    R_1 ^ ... ^ R_d ^ I_1 ^ ... ^ I_d of the realified equation covectors. It
    is proportional to the realification of the holomorphic conormal volume
    of L, so its vanishing pattern against cycle classes is basis-free.
    """
    if L.kind != "complex":
        raise ValueError("holomorphic_form_realized needs a complex subspace")
    rows = realified_equations(L, A)
    form = wedge_covectors(rows, 2 * A.g)
    if form.is_zero() and rows:
        raise AssertionError("realified equation covectors were dependent")
    return form.normalized()


def hypersurface_form(*degrees: int) -> ExteriorForm:
    """The class of a hypersurface W with fiber degrees d_1, ..., d_g, as a 2-form.

    W meets a fiber of factor j in d_j points, so its class is dual to
    sum_j d_j da_j ^ db_j = sum_j d_j e_(2j-1, 2j): the integral of
    alpha ^ eta over the torus pairs a 2g-2 form alpha with W.
    """
    return ExteriorForm(2, 2 * len(degrees),
                        {(2 * j + 1, 2 * j + 2): d for j, d in enumerate(degrees)})


@dataclass(frozen=True)
class Certificate:
    """Outcome of the non-vanishing check for a pair (L, W).

    value is the pairing of the W class against omega_T ^ omega_T', with
    omega_T the wedge of the primitive integer equations of the hull T and
    omega_T' the wedge of realified equations of L that stay independent
    modulo T. cross_value pairs against the full realified equation volume of
    L instead; the two must vanish together.
    """

    value: object
    value_str: str
    value_float: float
    cross_value: object
    cross_float: float

    @property
    def nonzero(self) -> bool:
        return not _vanishes(self.value)


def residual_covectors(L: ExactSubspace, hull: HullResult, A: ProductVariety,
                       rows: list[list[MultiQuadElem]] | None = None
                       ) -> list[list[MultiQuadElem]]:
    """Realified equations of L that are independent modulo the hull equations.

    Scans R_1..R_d then I_1..I_d, the rows of realified_equations unless
    given, and keeps a covector iff it enlarges the span of the hull
    equations plus those already kept. Exactly 2d - codim(T) survive;
    anything else means the hull disagreed with the equations.
    """
    if rows is None:
        rows = realified_equations(L, A)
    base = [[MultiQuadElem.from_rational(c) for c in e] for e in hull.equations]
    need = len(rows) - len(base)
    kept: list[list[MultiQuadElem]] = []
    span = list(base)
    r0 = rank_exact(span)
    for row in rows:
        if rank_exact(span + [row]) > r0:
            kept.append(row)
            span.append(row)
            r0 += 1
    if len(kept) != need:
        raise CertificateError(
            f"complementary equations: expected {need}, found {len(kept)}")
    return kept


def eac_certificate(eta_W: ExteriorForm, L: ExactSubspace, A: ProductVariety,
                    hull: HullResult) -> Certificate:
    """Pair the W class form against omega_T ^ omega_T' on the torus.

    eta_W must have degree 2 dim_C(L) so the product is a top form. hull is
    rational_hull(L, A), which the caller has already computed (decide's
    hull chain starts with it). Exact inputs give an exact multiquadratic
    value and its canonical rendering.
    """
    g = A.g
    n = 2 * g
    if L.kind != "complex" or L.ambient != g:
        raise CertificateError("certificate needs a complex subspace of C^g")
    d = g - L.dim
    if eta_W.degree != 2 * L.dim:
        raise DegreeMismatch(
            f"class form degree {eta_W.degree} does not complement codim {d}")
    omega_T = wedge_covectors(hull.equations, n)
    rows = realified_equations(L, A)
    kept = residual_covectors(L, hull, A, rows)
    omega_Tp = wedge_covectors(kept, n)
    # the combined system must cut out exactly the realification of L
    combined = [[MultiQuadElem.from_rational(c) for c in e] for e in hull.equations]
    combined += kept
    if rank_exact(combined) != 2 * d:
        raise CertificateError("hull and complementary equations are degenerate")
    value = integrate_top(eta_W.wedge(omega_T).wedge(omega_Tp), g)
    cross = integrate_top(eta_W.wedge(wedge_covectors(rows, n)), g)
    if _vanishes(value) != _vanishes(cross):
        raise CertificateError(
            "certificate and realified-equation pairing disagree on vanishing")
    if isinstance(value, MultiQuadElem):
        vstr = render_mq(value)
    else:
        vstr = str(value)
    return Certificate(
        value=value,
        value_str=vstr,
        value_float=float(value),
        cross_value=cross,
        cross_float=float(cross),
    )


def zeros_per_cell(cert: Certificate, L: ExactSubspace, A: ProductVariety) -> float:
    """The certificate read as the harvest's mean zero count per cell along v = L.basis[0].

    On two curves cross_value is |s|^2 Im tau_1 Im tau_2 rho, with rho the
    zeros per unit area of the l-plane and L's echelon equation s (v_2, -v_1),
    so s = 1 / v_b for b not the anchor a; a cell has area Im tau_a / |v_a|^2.
    On one curve the mean is cross_value = d_1. Exact until the final float.
    """
    mean = cert.cross_value
    if A.g == 2:
        v = L.basis[0]
        a = next(j for j, c in enumerate(v) if not c.is_zero())
        va, vb = v[a], v[1 - a]
        mean = (mean * (vb.re * vb.re + vb.im * vb.im)
                / ((va.re * va.re + va.im * va.im) * A.factors[1 - a].tau_im))
    return float(mean)
