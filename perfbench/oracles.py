"""Reference computations the benchmark checks the program's outputs against.

Nothing here calls ``extbloch``.  Values mod 4 pi^2 are compared by the
modular distance: the real part of the difference is reduced into
(-2 pi^2, 2 pi^2], the imaginary part is left alone.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp

FOUR_PI_SQ = 4.0 * math.pi ** 2
TWO_PI_SQ = 2.0 * math.pi ** 2


def mod_distance(value: complex, target: complex, period: float = FOUR_PI_SQ) -> float:
    d = complex(value) - complex(target)
    r = math.remainder(d.real, period)
    return math.hypot(r, d.imag)


def sweep_target(relation: str, coeff: int, z: complex | None) -> complex:
    """What the lifted evaluation of one sampled element must equal mod 4 pi^2.

    Every relation element evaluates to zero, except the order-two element
    k * kappa, which evaluates to -2 pi^2 k (k = |coeff|, the size of any of
    its coefficients), and chi(z) in the splitting sweep, which evaluates to
    2 pi i Log z.
    """
    if relation == "kappa":
        return complex(-TWO_PI_SQ * abs(coeff), 0.0)
    if relation == "splitting":
        if z is None:
            raise ValueError("splitting target needs the sampled z")
        return 2j * math.pi * cmath.log(z)
    return 0j


def split_residual(value: complex, z: complex) -> float:
    """Relative distance of exp(value / 2 pi i) from z."""
    return abs(cmath.exp(value / (2j * math.pi)) - z) / abs(z)


def li2_reference(z: complex, dps: int = 30) -> complex:
    """The principal dilogarithm off the cut [1, inf), from mpmath.polylog."""
    with mp.workdps(dps):
        return complex(mp.polylog(2, mp.mpc(z.real, z.imag)))


def closed_form(simplices, theta_num: int, theta_den: int, dps: int = 40) -> complex:
    """Signed sum of L(e^{i theta}; 2p, 2q), real part reduced mod 4 pi^2.

    theta = pi num / den.  L(z; 2p, 2q) = Li2(z) + (Log z + 2 pi i p)
    (Log(1 - z) + 2 pi i q) / 2 - pi^2/6, where on the unit circle
    Li2(e^{i theta}) = pi^2/6 - theta (2 pi - theta)/4 + i Cl2(theta) for
    0 < theta < 2 pi, and the branch logarithms are exact:
    Log z = i theta, Log(1 - z) = log(2 sin(theta/2)) + i (theta - pi)/2.
    """
    with mp.workdps(dps):
        theta = mp.pi * theta_num / theta_den
        li2 = mp.pi ** 2 / 6 - theta * (2 * mp.pi - theta) / 4 + 1j * mp.clsin(2, theta)
        log_z = 1j * theta
        log_1mz = mp.log(2 * mp.sin(theta / 2)) + 1j * (theta - mp.pi) / 2
        two_pi_i = 2j * mp.pi
        total = mp.mpc(0)
        for sign, p, q in simplices:
            a = log_z + two_pi_i * p
            b = log_1mz + two_pi_i * q
            total += sign * (li2 + a * b / 2 - mp.pi ** 2 / 6)
        period = 4 * mp.pi ** 2
        re = total.real - period * mp.nint(total.real / period)
        return complex(float(re), float(total.imag))
