"""The Fraction routes of a divisor's exact scale, the oracles of the integer
pairs in absarith.arakelov: prod p^(a_p) as a product of Fraction powers,
exp(deg) as that product times the archimedean rational, the lattice
generator as its reciprocal, t = exp(-2 deg) as a float of 1 / exp(deg)^2,
and the radius floor(xi / c) of pi_1 and count_E_xi as the floor of a
Fraction quotient."""

import math
from fractions import Fraction

from absarith.arakelov import ArakelovDivisor, ScaleValue


def finite_exp(d: ArakelovDivisor) -> Fraction:
    """prod p^(a_p) as one product of Fraction powers."""
    return math.prod((Fraction(p) ** a for p, a in d.finite), start=Fraction(1))


def lattice_generator(d: ArakelovDivisor) -> Fraction:
    return 1 / finite_exp(d)


def degree_scale(d: ArakelovDivisor) -> ScaleValue:
    """exp(deg d): the archimedean rational times finite_exp, through
    ScaleValue.exact_exp, or the float log of both."""
    prod = finite_exp(d)
    if d.arch.is_exact:
        return ScaleValue.exact_exp(d.arch.exact * prod)
    return ScaleValue.from_log(d.arch.log + math.log(prod.numerator) - math.log(prod.denominator))


def theta_t(d: ArakelovDivisor) -> float:
    """t = exp(-2 deg) as float(1 / (e e)) on an exact scale, else from the
    log; an OverflowError where t is above the largest float."""
    scale = degree_scale(d)
    if scale.is_exact:
        return float(1 / (scale.exact * scale.exact))
    return math.exp(-2.0 * scale.log)


def radius(xi_norm, c: Fraction) -> int:
    """floor(xi_norm / c) through a Fraction quotient."""
    return math.floor(Fraction(xi_norm) / c)

