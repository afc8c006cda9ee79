import cmath
import math
import random
from fractions import Fraction

import pytest

from eac import fixed
from eac.fixed import FIX_BITS, ONE, PI, Fixed
from eac.weierstrass import WpFixed
from tests.reference import mp_of, wp_pair_reference
from tests.test_weierstrass import reduced_probe_points

ULP = Fraction(1, 1 << FIX_BITS)


def exact(x: Fixed) -> tuple[Fraction, Fraction]:
    return Fraction(x.re, 1 << FIX_BITS), Fraction(x.im, 1 << FIX_BITS)


def as_complex(x: Fixed) -> complex:
    return complex(x.re / (1 << FIX_BITS), x.im / (1 << FIX_BITS))


def within(x: Fixed, want: complex | tuple, ulps: float) -> bool:
    re, im = want if isinstance(want, tuple) else (Fraction(want.real), Fraction(want.imag))
    got = exact(x)
    return abs(got[0] - re) <= ulps * ULP and abs(got[1] - im) <= ulps * ULP


def test_lift_is_exact_for_ints_floats_and_complex():
    for x in (0, 7, -3, 0.1, -2.5e-14, 1e16, 0.3 - 1.7j, complex(-1e-9, 4.0)):
        assert within(Fixed.lift(x), complex(x), 0)
    # below the grid a float is rounded, not truncated to zero
    assert Fixed.lift(0.75 * 2.0 ** -FIX_BITS).re == 1


def test_complex_rounds_to_the_nearest_double():
    rng = random.Random(3)
    for _ in range(200):
        x = Fixed(rng.randrange(-1 << 140, 1 << 140), rng.randrange(-1 << 60, 1 << 60))
        re, im = exact(x)
        assert complex(x) == complex(float(re), float(im))
        assert complex(Fixed.lift(complex(x))) == complex(x)


def test_pi_is_the_nearest_grid_point():
    from mpmath import mp

    with mp.workdps(60):
        assert PI.re == int(mp.nint(mp.pi * 2 ** FIX_BITS)) and PI.im == 0


def test_exp_matches_60_digits():
    from mpmath import mp

    rng = random.Random(19)
    # |x| from 1e-12 to 40, log-uniform, in every direction, and the real axis
    xs = [cmath.rect(10 ** rng.uniform(-12, math.log10(40)), rng.uniform(-math.pi, math.pi))
          for _ in range(300)]
    xs += [40.0, -40.0, 40j, 1e-12, -1e-12j]
    got = Fixed.stack([Fixed.lift(x) for x in xs]).exp()
    with mp.workdps(60):
        for k, x in enumerate(xs):
            want = mp.exp(mp.mpc(x.real, x.imag))
            assert abs(mp_of(got, k) - want) <= 1e-35 * max(1, abs(want)), x
    assert exact(Fixed(0).exp()) == (1, 0)


def test_products_and_quotients_round_once():
    rng = random.Random(5)
    span = 3 << FIX_BITS
    for _ in range(200):
        # every bit of the grid in use, so products and quotients fall off it
        fa, fb = (Fixed(rng.randrange(-span, span), rng.randrange(-span, span)) for _ in range(2))
        a = as_complex(fa)
        (ar, ai), (br, bi) = exact(fa), exact(fb)
        assert within(fa * fb, (ar * br - ai * bi, ar * bi + ai * br), 0.5)
        n = br * br + bi * bi
        assert within(fa / fb, ((ar * br + ai * bi) / n, (ai * br - ar * bi) / n), 0.5)
        assert within(fa + fb, (ar + br, ai + bi), 0)
        assert within(fa - fb, (ar - br, ai - bi), 0)
        assert within(fa ** 3, exact(fa * fa * fa), 0)
        assert abs(abs(fa) - abs(a)) <= 1e-15 * abs(a)


def test_object_arrays_round_each_element_as_a_scalar():
    rng = random.Random(7)
    span = 3 << FIX_BITS
    xs, ys = ([Fixed(rng.randrange(-span, span), rng.randrange(-span, span)) for _ in range(40)]
              for _ in range(2))
    xa, ya = Fixed.stack(xs), Fixed.stack(ys)
    cases = [(xa + ya, [x + y for x, y in zip(xs, ys)]),
             (xa - ya, [x - y for x, y in zip(xs, ys)]),
             (xa * ya, [x * y for x, y in zip(xs, ys)]),
             (xa / ya, [x / y for x, y in zip(xs, ys)]),
             (xa ** 3, [x ** 3 for x in xs]),
             (ONE / xa, [ONE / x for x in xs]),
             ((1 - 2j) * xa, [(1 - 2j) * x for x in xs]),
             (xa / 12, [x / 12 for x in xs])]
    for got, want in cases:
        assert list(got.re) == [w.re for w in want]
        assert list(got.im) == [w.im for w in want]
        assert all(type(v) is int for v in (*got.re, *got.im))
    assert list(abs(xa)) == [abs(x) for x in xs]
    # a zero element of a divisor raises, as a scalar zero does
    ys[17] = Fixed(0)
    with pytest.raises(ZeroDivisionError):
        xa / Fixed.stack(ys)


def test_python_numbers_mix_in():
    x = Fixed.lift(0.3 + 0.7j)
    for got, want in ((2 * x, 0.6 + 1.4j), (x * 2, 0.6 + 1.4j), ((1 - 2j) * x, 1.7 + 0.1j),
                      (x - 1, -0.7 + 0.7j), (0.5 + x, 0.8 + 0.7j), (x / 12, (0.3 + 0.7j) / 12),
                      (x / (2 + 1j), (0.3 + 0.7j) / (2 + 1j)), (x ** 0, 1 + 0j)):
        assert type(got) is Fixed
        assert abs(as_complex(got) - want) <= 1e-15
    assert as_complex(ONE) == 1.0
    with pytest.raises(ZeroDivisionError):
        ONE / Fixed(0)
    with pytest.raises(TypeError):
        x ** -1


@pytest.mark.parametrize("tau", [0.3j, 1j, 1j * math.sqrt(2), 1j * math.sqrt(5), 0.5 + 0.866j])
def test_fixed_theta_sums_match_60_digits(tau):
    # the 30-digit series' (wp, wp') against the q-series summed at 60 digits,
    # on the scale of wp and wp' themselves: the tail bound is set on them
    from mpmath import mp

    zs = reduced_probe_points(tau, random.Random(13))
    # points close to the pole take V - 1/V from sinh
    zs += [r * cmath.exp(1j * t) for r in (1e-4, 1e-6, 1e-8) for t in (0.3, 1.9, -2.6)]
    batch = WpFixed(tau).wp_pair_grid(zs)
    with mp.workdps(60):
        for k, z in enumerate(zs):
            for got, want in zip(batch, wp_pair_reference(tau, z)):
                diff = abs(mp.mpc(got.re[k], got.im[k]) / 2 ** FIX_BITS - want)
                assert diff <= 1e-30 * max(1, abs(want)), (tau, z)


@pytest.mark.parametrize("tau", [1j * math.sqrt(2), 0.5 + 0.866j])
def test_fixed_points_evaluate_as_their_doubles(tau):
    # a batch of grid values gives the doubles' wp and wp' bit for bit,
    # lattice translates and points near a pole included
    rng = random.Random(23)
    zs = [z + rng.randint(-9, 9) + rng.randint(-9, 9) * tau
          for z in reduced_probe_points(tau, rng)]
    series = WpFixed(tau)
    for got, want in zip(series.wp_pair_grid([Fixed.lift(z) for z in zs]),
                         series.wp_pair_grid(zs)):
        assert list(got.re) == list(want.re) and list(got.im) == list(want.im)


def test_powers_square_and_multiply(monkeypatch):
    calls = []
    real = fixed._MUL

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(fixed, "_MUL", counting)
    x = Fixed.lift(0.6 + 0.8j)
    for e in (2, 3, 43, 1000):
        calls.clear()
        got = as_complex(x ** e)
        assert len(calls) <= 2 * e.bit_length() - 2, e
        assert abs(got - complex(0.6 + 0.8j) ** e) <= 1e-12
    # an evaluator's Eisenstein terms grow 3.1 times from tau = 0.3i to 0.1i:
    # its products 4 times, where n products per q^n made them 9 times
    counts = []
    for tau in (0.3j, 0.1j):
        calls.clear()
        WpFixed(tau)
        counts.append(len(calls))
    assert counts[1] < 5 * counts[0]
