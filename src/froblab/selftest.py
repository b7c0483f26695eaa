"""Built-in battery over the forced cases: constructor errors, arithmetic
identities, monomial colon/saturation chains, the nu_e frontier scan over S
and S/(f), and nu_e's integer program for monomial ideals against the scan.
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
    yield "((x^2) : x^inf) = (1) at exponent 2", lambda: _saturates(
        Ideal(r, [x**2]), x, Ideal.unit(r), 2)
    yield "((xy, xz) : y^inf) = (x) at exponent 1", lambda: _saturates(
        Ideal(r, [x * y, x * z]), y, Ideal(r, [x]), 1)
    R = HypersurfaceRing(r, x * y - z**2)
    yield "nu_1((x, y)) = 8 over F_5 (integer program)", lambda: nu_e(I_xy, 1) == 8
    yield "nu_1((xy + z^2, xz, yz)) = 6 over F_5 (frontier scan)", lambda: nu_e(
        Ideal(r, [x * y + z**2, x * z, y * z]), 1) == 6
    yield "nu_1((x + yz, z^2)) = 2 in F_5[x,y,z]/(xy - z^2) (trace-colon scan)", lambda: nu_e(
        q_ideal(R, [x + y * z, z**2]), 1) == 2
    yield "nu_1(m) = 4 in F_5[x,y,z]/(xy - z^2), integer program = trace-colon scan", lambda: nu_e(
        q_ideal(R, [x, y, z]), 1) == last_escaping_power((x, y, z), Ie_maximal(R, 1), 14) == 4


def _saturates(I, by, sat, s):
    got, steps = saturate(I, by)
    return ideal_equal(got, sat) and steps == s


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
