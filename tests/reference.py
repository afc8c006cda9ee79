"""The q-series of wp and wp': the tests' reference for the theta_1 series of eac.weierstrass.

theta_sums sums wp = (2 pi i)^2 S and wp' = (2 pi i)^3 S' in u = exp(2 pi i z)
and q = exp(2 pi i tau) (DLMF 23.8.1), with terms of size |q|^n. It shares no
formula with the theta_1 series, so at 60 digits it is an independent
reference for both of its arithmetics.
"""

from eac.fixed import FIX_BITS, Fixed
from eac.segre import _qseries_terms
from eac.weierstrass import lattice_shift


def theta_sums(u, q, nterms: int, one, one_minus_u=None):
    """The q-series S, S' with wp = (2 pi i)^2 S and wp' = (2 pi i)^3 S'.

    Summed to nterms powers of q with + - * / alone, in any number type
    whose unit is one, for a reduced z. one_minus_u, when given, is 1 - u
    as -expm1(2 pi i z): near a pole 1 - u cancels.
    """
    const = one / 12
    qn = one
    for _ in range(nterms):
        qn = qn * q
        rq = one / (one - qn)
        const = const - 2 * qn * rq * rq
    iu = one / u
    r = one / (one - u if one_minus_u is None else one_minus_u)
    s = u * r * r
    sp = s * (one + u) * r
    qn = one
    for _ in range(nterms):
        qn = qn * q
        w = qn * u
        x = qn * iu
        rw = one / (one - w)
        rx = one / (one - x)
        tw = w * rw * rw
        tx = x * rx * rx
        s = s + tw + tx
        sp = sp + tw * (one + w) * rw - tx * (one + x) * rx
    return s + const, sp


def wp_pair_reference(tau: complex, z, dps: int = 60):
    """(wp(z), wp'(z)) on Z + tau Z as mpmath numbers, to dps digits.

    z, a complex or mpmath number, is reduced at dps digits by the lattice
    point weierstrass.lattice_shift gives in doubles; 1 - u is taken by
    expm1 and the series runs to a tail of 10^-dps.
    """
    from mpmath import mp

    with mp.workdps(dps):
        t = mp.mpc(tau.real, tau.imag)
        m, n = lattice_shift(complex(z), tau)
        w = 2j * mp.pi * (mp.mpc(z) - m - n * t)
        s, sp = theta_sums(mp.exp(w), mp.exp(2j * mp.pi * t), _qseries_terms(tau, 10.0 ** -dps),
                           mp.mpf(1), -mp.expm1(w))
        return (2j * mp.pi) ** 2 * s, (2j * mp.pi) ** 3 * sp


def lift_mp(x) -> Fixed:
    """An mpmath number rounded to the nearest point of the eac.fixed grid."""
    from mpmath import mp

    return Fixed(*(int(mp.nint(part * 2 ** FIX_BITS)) for part in (mp.re(x), mp.im(x))))


def mp_of(x: Fixed, k: int):
    """Element k of an array Fixed as an mpmath number at working precision."""
    from mpmath import mp

    return mp.mpc(x.re[k], x.im[k]) / 2 ** FIX_BITS
