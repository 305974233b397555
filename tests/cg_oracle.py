"""Independent Clebsch-Gordan oracle for the tests.

Racah sum formula with exact rational intermediates.  The package builds
its tensor operators and lower-symbol factors by recurrences; the tests
compare both against these coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, sqrt

# process-wide cache; keys are doubled-integer tuples
_CG_TABLE: dict[tuple[int, int, int, int, int, int], float] = {}


def _as_two(x) -> int:
    two = 2 * x
    itwo = int(round(two))
    if abs(two - itwo) > 1e-9:
        raise ValueError(f"{x} is not a half-integer")
    return itwo


def _cg_exact(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> Fraction:
    """Signed square of the CG coefficient as an exact rational.

    Racah sum formula; the returned Fraction is sign(C) * C^2 so that the
    float conversion C = sign * sqrt(|.|) loses no precision to cancellation.
    """
    if tM != tm1 + tm2:
        return Fraction(0)
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tM) > tJ:
        return Fraction(0)
    if tJ > tj1 + tj2 or tJ < abs(tj1 - tj2) or (tj1 + tj2 - tJ) % 2 != 0:
        return Fraction(0)
    if (tj1 + tm1) % 2 != 0 or (tj2 + tm2) % 2 != 0 or (tJ + tM) % 2 != 0:
        return Fraction(0)

    def f(two_n: int) -> int:
        if two_n % 2 != 0 or two_n < 0:
            raise ValueError("factorial of non-integer in CG")
        return factorial(two_n // 2)

    pref = Fraction(tJ + 1, 1) * Fraction(
        f(tj1 + tj2 - tJ) * f(tj1 - tj2 + tJ) * f(-tj1 + tj2 + tJ),
        f(tj1 + tj2 + tJ + 2),
    )
    pref *= Fraction(
        f(tJ + tM) * f(tJ - tM) * f(tj1 - tm1) * f(tj1 + tm1) * f(tj2 - tm2) * f(tj2 + tm2)
    )

    s = Fraction(0)
    kmin = max(0, -(tJ - tj2 + tm1) // 2, -(tJ - tj1 - tm2) // 2)
    kmax = min((tj1 + tj2 - tJ) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    for k in range(kmin, kmax + 1):
        den = (
            factorial(k)
            * f(tj1 + tj2 - tJ - 2 * k)
            * f(tj1 - tm1 - 2 * k)
            * f(tj2 + tm2 - 2 * k)
            * f(tJ - tj2 + tm1 + 2 * k)
            * f(tJ - tj1 - tm2 + 2 * k)
        )
        s += Fraction((-1) ** k, den)
    if s == 0:
        return Fraction(0)
    sign = 1 if s > 0 else -1
    return sign * pref * s * s


def clebsch_gordan(j1, m1, j2, m2, J, M) -> float:
    """<j1 m1; j2 m2 | J M> in the Condon-Shortley convention.

    Arguments may be integers or half-integers.  Invalid couplings return 0.
    """
    key = (_as_two(j1), _as_two(m1), _as_two(j2), _as_two(m2), _as_two(J), _as_two(M))
    val = _CG_TABLE.get(key)
    if val is None:
        sq = _cg_exact(*key)
        sign = 1.0 if sq >= 0 else -1.0
        val = sign * sqrt(abs(float(sq)))
        _CG_TABLE[key] = val
    return val
