import math
import random
from fractions import Fraction

import pytest

from eac.forms import (CertificateError, DegreeMismatch, ExteriorForm,
                       eac_certificate, holomorphic_form_realized, hypersurface_form,
                       integrate_top, realify_covector, residual_covectors)
from eac.hull import rational_hull
from eac.multiquad import ComplexMQ, MultiQuadElem
from eac.variety import ExactSubspace


# Independent dense exterior algebra on bitmasks. Keys are subsets of
# {0..n-1}; the sign of e_A ^ e_B counts how many elements of B hop over
# larger elements of A. Shares nothing with the sparse implementation.

def _mask_sign(ma: int, mb: int) -> int:
    inversions = 0
    j = 0
    mb_left = mb
    while mb_left:
        if mb_left & 1:
            inversions += bin(ma >> (j + 1)).count("1")
        mb_left >>= 1
        j += 1
    return -1 if inversions % 2 else 1


def brute_wedge_covectors(covectors, n, zero):
    """Wedge of 1-forms by direct expansion, as {bitmask: coefficient}."""
    table = {0: zero + 1}
    for vec in covectors:
        new = {}
        for mask, coef in table.items():
            for j, c in enumerate(vec):
                bit = 1 << j
                if mask & bit:
                    continue
                term = coef * c
                s = _mask_sign(mask, bit)
                if s < 0:
                    term = -term
                new[mask | bit] = new.get(mask | bit, zero) + term
        table = new
    return table


def brute_wedge_forms(fa, fb, zero):
    out = {}
    for ma, ca in fa.items():
        for mb, cb in fb.items():
            if ma & mb:
                continue
            term = ca * cb
            if _mask_sign(ma, mb) < 0:
                term = -term
            out[ma | mb] = out.get(ma | mb, zero) + term
    return out


def to_mask_form(form: ExteriorForm, zero):
    return {sum(1 << (i - 1) for i in k): zero + v for k, v in form.coeffs.items()}


def random_form(rng, degree, ambient, nterms=3):
    import itertools
    keys = list(itertools.combinations(range(1, ambient + 1), degree))
    table = {}
    for k in rng.sample(keys, min(nterms, len(keys))):
        table[k] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return ExteriorForm(degree, ambient, table)


def test_wedge_matches_brute_force_oracle():
    rng = random.Random(42)
    zero = Fraction(0)
    for _ in range(40):
        n = rng.randint(2, 6)
        k = rng.randint(1, min(4, n))
        vecs = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(k)]
        form = ExteriorForm.constant(Fraction(1), n)
        for v in vecs:
            form = form.wedge(ExteriorForm.covector(v, n))
        want = brute_wedge_covectors(vecs, n, zero)
        got = to_mask_form(form, zero)
        want = {m: c for m, c in want.items() if c != 0}
        got = {m: c for m, c in got.items() if c != 0}
        assert got == want


def test_graded_commutativity():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 6)
        p = rng.randint(0, n)
        q = rng.randint(0, n - p)
        a = random_form(rng, p, n)
        b = random_form(rng, q, n)
        lhs = a.wedge(b)
        rhs = b.wedge(a).scale(Fraction((-1) ** (p * q)))
        assert lhs == rhs


def test_wedge_associativity_and_bilinearity():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(3, 6)
        a = random_form(rng, 1, n)
        b = random_form(rng, 1, n)
        c = random_form(rng, min(2, n - 2), n)
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
        d = random_form(rng, 1, n)
        assert (a + d).wedge(b) == a.wedge(b) + d.wedge(b)


def test_wedge_of_dependent_covectors_vanishes():
    v = [Fraction(1), Fraction(2), Fraction(-1)]
    a = ExteriorForm.covector(v, 3)
    assert a.wedge(a).is_zero()
    b = ExteriorForm.covector([2 * x for x in v], 3)
    assert a.wedge(b).is_zero()


def test_degree_and_key_validation():
    with pytest.raises(DegreeMismatch):
        ExteriorForm(3, 2)
    with pytest.raises(ValueError):
        ExteriorForm(2, 4, {(2, 1): 1})
    with pytest.raises(ValueError):
        ExteriorForm(2, 4, {(0, 1): 1})
    a = ExteriorForm(2, 4, {(1, 2): 1})
    b = ExteriorForm(3, 4, {(1, 2, 3): 1})
    with pytest.raises(DegreeMismatch):
        a.wedge(b)  # degree 5 > ambient 4
    with pytest.raises(DegreeMismatch):
        a + b


def test_integrate_top_reads_leading_cell():
    f = ExteriorForm(4, 4, {(1, 2, 3, 4): Fraction(5, 2)})
    assert integrate_top(f, 2) == Fraction(5, 2)
    assert integrate_top(ExteriorForm.zero(4, 4), 2) == 0
    with pytest.raises(DegreeMismatch):
        integrate_top(ExteriorForm(2, 4, {(1, 2): 1}), 2)
    # one-factor products integrate degree-2 forms
    assert integrate_top(ExteriorForm(2, 2, {(1, 2): 3}), 1) == 3


def test_proportionality_exact_and_float():
    base = ExteriorForm(2, 4, {(1, 2): Fraction(2), (3, 4): Fraction(-3)})
    scaled = base.scale(Fraction(7, 3))
    assert scaled.proportional_to(base) == Fraction(7, 3)
    assert base.proportional_to(ExteriorForm(2, 4, {(1, 2): 1})) is None
    fa = base.as_float()
    fb = base.scale(Fraction(1, 7)).as_float()
    r = fa.proportional_to(fb, tol=1e-12)
    assert r is not None and abs(r - 7.0) < 1e-9
    s2 = MultiQuadElem.sqrt_of(2)
    mq = base.scale(s2)
    assert mq.proportional_to(base) == s2


def test_duality_pairing_consistency():
    # W of fiber degrees (2, 3) is 2 [{pt} x E_2] + 3 [E_1 x {pt}]: a 2-form
    # alpha pairs with it as 2 alpha_34 + 3 alpha_12
    rng = random.Random(3)
    eta = hypersurface_form(2, 3)
    for _ in range(20):
        alpha = random_form(rng, 2, 4)
        want = (2 * alpha.coeffs.get((3, 4), Fraction(0))
                + 3 * alpha.coeffs.get((1, 2), Fraction(0)))
        assert integrate_top(alpha.wedge(eta), 2) == want


def test_hypersurface_class_validation():
    assert hypersurface_form(2, 2).coeffs == {(1, 2): Fraction(2), (3, 4): Fraction(2)}
    # fiber-type classes keep only one cell
    assert hypersurface_form(0, 2).coeffs == {(3, 4): Fraction(2)}
    assert hypersurface_form(3, 0).coeffs == {(1, 2): Fraction(3)}
    # on one curve the class of d points is d e12
    one = hypersurface_form(3)
    assert (one.degree, one.ambient, one.coeffs) == (2, 2, {(1, 2): Fraction(3)})


def test_realify_covector_splits_re_im(A2):
    lam = [ComplexMQ(1), ComplexMQ(0, MultiQuadElem.from_rational(-1))]
    re, im = realify_covector(lam, A2)
    # lam . z = z1 - i z2; with tau_2 = i sqrt(5), -i * tau_2 = sqrt(5)
    s5 = MultiQuadElem.sqrt_of(5)
    assert re == [MultiQuadElem.one(), MultiQuadElem(),
                  MultiQuadElem(), s5]
    assert im == [MultiQuadElem(), MultiQuadElem.sqrt_of(2),
                  MultiQuadElem.from_rational(-1), MultiQuadElem()]


def test_holomorphic_form_flagship_pinned(A2, diagonal_line):
    h = holomorphic_form_realized(diagonal_line, A2)
    half_r10 = MultiQuadElem.sqrt_of(10, scale=Fraction(1, 2))
    assert h.coeffs[(1, 2)] == Fraction(1)
    assert h.coeffs[(2, 3)] == Fraction(1)
    assert h.coeffs[(1, 4)] == -half_r10
    assert h.coeffs[(3, 4)] == half_r10
    assert set(h.coeffs) == {(1, 2), (2, 3), (1, 4), (3, 4)}


def test_flagship_certificate_exact_value(A2, diagonal_line):
    cert = eac_certificate(hypersurface_form(2, 2), diagonal_line, A2,
                           rational_hull(diagonal_line, A2))
    want = MultiQuadElem({5: 2, 2: 2})
    assert cert.value == want
    assert cert.value_str == "2*sqrt(5)+2*sqrt(2)"
    assert cert.nonzero
    assert cert.cross_value == want
    assert abs(cert.value_float - float(want)) < 1e-15


def test_flagship_certificate_against_brute_force_expansion(A2, diagonal_line):
    # rebuild eta_W ^ omega_T ^ omega_T' with the mask-based oracle and
    # integrate by reading the full-mask cell
    hull = rational_hull(diagonal_line, A2)
    cert = eac_certificate(hypersurface_form(2, 2), diagonal_line, A2, hull)
    zero = MultiQuadElem()
    omega_T = brute_wedge_covectors(
        [[MultiQuadElem.from_rational(c) for c in e] for e in hull.equations], 4, zero)
    omega_Tp = brute_wedge_covectors(residual_covectors(diagonal_line, hull, A2), 4, zero)
    eta = to_mask_form(hypersurface_form(2, 2), zero)
    prod = brute_wedge_forms(eta, brute_wedge_forms(omega_T, omega_Tp, zero), zero)
    oracle = prod.get(0b1111, zero)
    assert oracle == cert.value
    assert abs(float(oracle) - cert.value_float) < 1e-12


def test_certificate_rational_and_irrational_slopes(A2):
    L = ExactSubspace.complex_span([[1, 2]], 2)
    cert = eac_certificate(hypersurface_form(2, 2), L, A2, rational_hull(L, A2))
    assert cert.value == MultiQuadElem({5: 1, 2: 4})
    assert cert.value_str == "sqrt(5)+4*sqrt(2)"
    s2 = MultiQuadElem.sqrt_of(2)
    Li = ExactSubspace.complex_span([[MultiQuadElem.one(), s2]], 2)
    cert2 = eac_certificate(hypersurface_form(2, 2), Li, A2, rational_hull(Li, A2))
    assert cert2.value == MultiQuadElem({5: 1, 2: 2})
    assert cert2.value_str == "sqrt(5)+2*sqrt(2)"
    assert rational_hull(Li, A2).equations == ()  # hull is everything, no rational equations


def test_certificate_rejects_bad_inputs(A2, diagonal_line):
    hull = rational_hull(diagonal_line, A2)
    with pytest.raises(DegreeMismatch):
        eac_certificate(ExteriorForm(4, 4, {(1, 2, 3, 4): 1}), diagonal_line, A2, hull)
    with pytest.raises(CertificateError):
        eac_certificate(hypersurface_form(2, 2), diagonal_line.realified(A2), A2, hull)


def test_certificate_zero_when_class_misses_the_torus(A2):
    # the axis line is not free, but the pairing machinery still runs;
    # a class concentrated on the same factor pairs to zero
    L = ExactSubspace.complex_span([[1, 0]], 2)
    cert = eac_certificate(ExteriorForm(2, 4, {(3, 4): 1}), L, A2, rational_hull(L, A2))
    assert not cert.nonzero
    assert cert.value_str == "0"


def _recombine_check(L, A, rng, exact):
    lams = L.complex_equations()
    d = len(lams)
    n = 2 * A.g
    base = holomorphic_form_realized(L, A)
    # random invertible d x d matrix over the Gaussian rationals
    while True:
        M = [[ComplexMQ(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
              for _ in range(d)] for _ in range(d)]
        probe = [[complex(x) for x in row] for row in M]
        det = probe[0][0] if d == 1 else (
            probe[0][0] * probe[1][1] - probe[0][1] * probe[1][0])
        if abs(det) > 1e-9:
            break
    new_lams = []
    for row in M:
        acc = [ComplexMQ(0)] * len(lams[0])
        for c, lam in zip(row, lams):
            acc = [a + c * x for a, x in zip(acc, lam)]
        new_lams.append(acc)
    res, ims = [], []
    for lam in new_lams:
        r, i = realify_covector(lam, A)
        res.append(r)
        ims.append(i)
    form = ExteriorForm.constant(Fraction(1), n)
    for row in res + ims:
        if not exact:
            row = [float(x) for x in row]
        form = form.wedge(ExteriorForm.covector(row, n))
    if exact:
        ratio = form.proportional_to(base)
        assert ratio is not None and not (
            ratio.is_zero() if isinstance(ratio, MultiQuadElem) else ratio == 0)
    else:
        ratio = form.proportional_to(base.as_float(), tol=1e-12)
        assert ratio is not None and abs(ratio) > 1e-9


def test_recombined_equations_give_proportional_forms(A2, A3, diagonal_line):
    rng = random.Random(123)
    spaces = [
        (diagonal_line, A2),
        (ExactSubspace.complex_span([[1, 2]], 2), A2),
        (ExactSubspace.complex_span([[1, 1, 1]], 3), A3),  # codim 2
        (ExactSubspace.complex_span([[1, 1, 0], [0, 1, 1]], 3), A3),
    ]
    count = 0
    while count < 200:
        L, A = spaces[count % len(spaces)]
        _recombine_check(L, A, rng, exact=(count % 2 == 0))
        count += 1
