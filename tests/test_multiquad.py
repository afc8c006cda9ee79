import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eac.multiquad import ComplexMQ, MultiQuadElem, parse_mq, render_mq, squarefree_split

RADICANDS = [1, 2, 3, 5, 7, 10]

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=12)
elems = st.dictionaries(st.sampled_from(RADICANDS), coeffs, max_size=4).map(MultiQuadElem)
nonzero_elems = elems.filter(lambda x: not x.is_zero())


def test_squarefree_split_oracle():
    for n in range(1, 500):
        s, f = squarefree_split(n)
        assert s * s * f == n
        for d in range(2, int(math.isqrt(f)) + 1):
            assert f % (d * d) != 0
    with pytest.raises(ValueError):
        squarefree_split(0)


def test_constructor_normalizes_radicands():
    # sqrt(8) = 2 sqrt(2), sqrt(4) = 2
    x = MultiQuadElem.sqrt_of(8)
    assert x.coeffs == {2: 2}
    assert MultiQuadElem({4: 1}) == MultiQuadElem.from_rational(2)
    assert MultiQuadElem({12: Fraction(1, 2)}) == MultiQuadElem.sqrt_of(3)
    assert MultiQuadElem({2: 1, 8: -1}) == MultiQuadElem.sqrt_of(2, scale=-1)


@given(elems, elems)
def test_addition_commutes(x, y):
    assert x + y == y + x


@given(elems, elems, elems)
@settings(max_examples=60)
def test_multiplication_associates_and_distributes(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(elems)
def test_additive_and_multiplicative_units(x):
    assert x + MultiQuadElem() == x
    assert x * MultiQuadElem.one() == x
    assert x - x == MultiQuadElem()
    assert x * 0 == MultiQuadElem()


@given(nonzero_elems)
@settings(max_examples=60)
def test_inverse_round_trip(x):
    assert x * x.inv() == MultiQuadElem.one()
    assert (1 / x) * x == MultiQuadElem.one()


@given(elems, elems)
def test_float_embedding_is_a_homomorphism(x, y):
    scale = max(1.0, abs(float(x)), abs(float(y)))
    assert abs(float(x + y) - (float(x) + float(y))) < 1e-9 * scale
    assert abs(float(x * y) - float(x) * float(y)) < 1e-9 * scale * scale


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        MultiQuadElem().inv()


def test_sqrt_products_reduce_by_gcd():
    s6 = MultiQuadElem.sqrt_of(6)
    s10 = MultiQuadElem.sqrt_of(10)
    # sqrt(6) * sqrt(10) = 2 sqrt(15)
    assert s6 * s10 == MultiQuadElem.sqrt_of(15, scale=2)
    s2 = MultiQuadElem.sqrt_of(2)
    assert s2 * s2 == MultiQuadElem.from_rational(2)


def test_render_pinned_strings():
    s2 = MultiQuadElem.sqrt_of(2)
    s5 = MultiQuadElem.sqrt_of(5)
    assert render_mq(2 * s5 + 2 * s2) == "2*sqrt(5)+2*sqrt(2)"
    assert render_mq(MultiQuadElem.sqrt_of(10, scale=Fraction(1, 2))) == "1/2*sqrt(10)"
    assert render_mq(MultiQuadElem.from_rational(Fraction(-3, 4))) == "-3/4"
    assert render_mq(MultiQuadElem()) == "0"
    assert render_mq(s5 - s2 + 1) == "sqrt(5)-sqrt(2)+1"
    assert render_mq(-s2) == "-sqrt(2)"


@given(elems)
@settings(max_examples=80)
def test_parse_render_round_trip(x):
    assert parse_mq(render_mq(x)) == x


def test_parse_variants_and_errors():
    assert parse_mq(" 3/2 * sqrt( 5 ) - 1 ") == MultiQuadElem({5: Fraction(3, 2), 1: -1})
    assert parse_mq("sqrt(8)") == MultiQuadElem.sqrt_of(2, scale=2)
    for bad in ("", "sqrt()", "2**sqrt(2)", "1 sqrt(2)", "x+1"):
        with pytest.raises(ValueError):
            parse_mq(bad)


def test_hash_consistent_with_equality():
    a = MultiQuadElem({2: 1, 1: 3})
    b = MultiQuadElem({8: Fraction(1, 2), 1: 3})
    assert a == b and hash(a) == hash(b)
    assert a == 3 + MultiQuadElem.sqrt_of(2)


def test_complexmq_field_operations():
    z = ComplexMQ(MultiQuadElem.sqrt_of(2), MultiQuadElem.from_rational(1))
    w = ComplexMQ(1, MultiQuadElem.sqrt_of(3))
    assert (z * w) / w == z
    assert z * z.inv() == ComplexMQ(1)
    prod = complex(z) * complex(w)
    assert abs(complex(z * w) - prod) < 1e-12
    with pytest.raises(ZeroDivisionError):
        ComplexMQ(0).inv()


def test_complexmq_norm_is_real():
    z = ComplexMQ(MultiQuadElem.sqrt_of(5), MultiQuadElem.sqrt_of(2))
    n = z * ComplexMQ(z.re, -z.im)
    assert n.im.is_zero()
    assert n.re == MultiQuadElem.from_rational(7)


# the canonical invariant: arithmetic never needs the normalizing constructor

WIDE_RADICANDS = [1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 18, 30]
wide_elems = st.dictionaries(st.sampled_from(WIDE_RADICANDS), coeffs,
                             max_size=4).map(MultiQuadElem)
complex_elems = st.builds(ComplexMQ, wide_elems, wide_elems)


def assert_canonical(x):
    parts = (x.re, x.im) if isinstance(x, ComplexMQ) else (x,)
    for part in parts:
        assert isinstance(part, MultiQuadElem)
        c = part.coeffs
        assert all(squarefree_split(d)[0] == 1 for d in c)
        assert all(type(q) is Fraction and q != 0 for q in c.values())
        assert c == MultiQuadElem(c).coeffs


def field_results(x, y, q):
    out = [x + y, x - y, x * y, -x, x + q, q - x, q * x]
    if y:
        out += [x / y, y.inv(), q / y]
    return out


@given(wide_elems, wide_elems, coeffs)
@settings(max_examples=80)
def test_multiquad_arithmetic_stays_canonical(x, y, q):
    for r in field_results(x, y, q):
        assert_canonical(r)


@given(complex_elems, complex_elems, coeffs)
@settings(max_examples=40)
def test_complexmq_arithmetic_stays_canonical(x, y, q):
    for r in field_results(x, y, q):
        assert_canonical(r)
