"""Built-in battery over the forced cases: constructor errors, arithmetic
identities, monomial colon/saturation chains, both nu_e frontier scans, and
the nu_e closed form for ideals generated by variables against the scan.
Fast; used by `froblab selftest`.
"""

from __future__ import annotations

from .errors import BudgetExceeded
from .frobenius import Ie_maximal, nu_e
from .groebner import Ideal, ideal_equal, ideal_member, last_escaping_power, normal_form
from .idealops import ideal_colon, ideal_intersect, ideal_power, ideal_product, saturate
from .parsing import parse_poly
from .quotient import HypersurfaceRing, q_ideal
from .rings import Polynomial, format_poly, make_ring


def _checks():
    r = make_ring(5, ["x", "y", "z"])
    x, y, z = (Polynomial.variable(r, v) for v in "xyz")

    yield "composite modulus rejected", lambda: _raises(lambda: make_ring(4, ["x"]))
    yield "duplicate variable rejected", lambda: _raises(lambda: make_ring(7, ["x", "x"]))
    yield "unknown variable rejected", lambda: _raises(lambda: parse_poly(r, "x + w"))
    yield "x + (-x) = 0", lambda: not (x - x)
    yield "(x+y)^5 = x^5 + y^5 over F_5", lambda: (x + y) ** 5 == x**5 + y**5
    yield "frobenius of 2x is 2x^5", lambda: (2 * x).frobenius(1) == 2 * x**5
    yield "(xy - z^2)(xy + z^2) = x^2y^2 - z^4", lambda: (
        (x * y - z**2) * (x * y + z**2) == x**2 * y**2 - z**4
    )
    yield "d/dx(xy - z^3) = y", lambda: (x * y - z**3).derivative("x") == y
    yield "d/dx(x^5) = 0 over F_5", lambda: not (x**5).derivative("x")
    yield "parse/format round trip", lambda: parse_poly(
        r, format_poly(x * y - z**3)
    ) == x * y - z**3

    I_xy = Ideal(r, [x, y])
    yield "x in (x, y)", lambda: ideal_member(x, I_xy)
    yield "normal_form(x^2, {x}) = 0", lambda: not normal_form(x**2, [x])
    yield "(x).(y) = (xy)", lambda: ideal_equal(
        ideal_product(Ideal(r, [x]), Ideal(r, [y])), Ideal(r, [x * y])
    )
    yield "(x, y)^0 = (1)", lambda: ideal_power(I_xy, 0).groebner_basis().is_unit()
    yield "(x) ∩ (y) = (xy)", lambda: ideal_equal(
        ideal_intersect(Ideal(r, [x]), Ideal(r, [y])), Ideal(r, [x * y])
    )
    yield "((x^2, xy) : x) = (x, y)", lambda: ideal_equal(
        ideal_colon(Ideal(r, [x**2, x * y]), x), I_xy
    )
    yield "((x^2) : x^inf) = (1) at exponent 2", lambda: _sat_check(r, x)
    yield "((xy, xz) : y^inf) = (x) at exponent 1", lambda: _sat_check2(r, x, y, z)
    R = HypersurfaceRing(r, x * y - z**2)
    yield "nu_1((x, y)) = 8 over F_5 (closed form)", lambda: nu_e(I_xy, 1) == 8
    yield "nu_1((xy, xz, yz)) = 6 over F_5 (monomial scan)", lambda: nu_e(
        Ideal(r, [x * y, x * z, y * z]), 1) == 6
    yield "nu_1((x, yz, z^2)) = 2 in F_5[x,y,z]/(xy - z^2) (trace-colon scan)", lambda: nu_e(
        q_ideal(R, [x, y * z, z**2]), 1) == 2
    yield "nu_1(m) = 4 in F_5[x,y,z]/(xy - z^2), closed form = trace-colon scan", lambda: nu_e(
        q_ideal(R, [x, y, z]), 1) == last_escaping_power((x, y, z), Ie_maximal(R, 1), 14) == 4


def _sat_check(r, x):
    sat, s = saturate(Ideal(r, [x**2]), x)
    return sat.groebner_basis().is_unit() and s == 2


def _sat_check2(r, x, y, z):
    sat, s = saturate(Ideal(r, [x * y, x * z]), y)
    return ideal_equal(sat, Ideal(r, [x])) and s == 1


def _raises(fn):
    try:
        fn()
    except (ValueError, OverflowError):
        return True
    return False


def run(out):
    """One line per check on out; the number failed. An exhausted budget is
    not a failed check: BudgetExceeded propagates, as from every command."""
    failures = 0
    for name, check in _checks():
        try:
            ok = bool(check())
        except BudgetExceeded:
            raise
        except Exception as exc:  # a selftest must report, not crash
            ok = False
            name = f"{name} (raised {exc!r})"
        out.write(f"{'ok  ' if ok else 'FAIL'}  {name}\n")
        failures += 0 if ok else 1
    out.write(f"selftest: {failures} failure(s)\n")
    return failures
