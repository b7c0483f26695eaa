"""Input checks across the layers, each with its exception and message, and
the results of the edge paths of polynomial arithmetic, generator parsing and
matrix shapes."""

import pytest

from froblab import (
    HypersurfaceRing,
    Ideal,
    PolyMatrix,
    Polynomial,
    PrimeData,
    RingDescriptor,
    RingMismatch,
    check_fpt_containment,
    check_symbolic_into_Ie,
    fedder_is_fpure,
    hypersurface_Ie,
    ideal_equal,
    ideal_member,
    ideal_subset,
    jacobian_ideal,
    jacobian_power_product,
    make_ring,
    nu_e,
    parse_gens,
    parse_poly,
    poly_divide_exact,
    xy_zk_setup,
)

R5 = make_ring(5, ["x", "y"])
R7 = make_ring(7, ["x", "y"])
X, Y = (Polynomial.variable(R5, v) for v in "xy")
X7 = Polynomial.variable(R7, "x")
ZERO = Polynomial.zero(R5)


def _fpt_without_radical():
    I = Ideal(R5, [X])
    return check_fpt_containment(I, PrimeData(primes=(I,)), 1)


def _symbolic_into_Ie(e):
    _, Q, pd = xy_zk_setup(5, 2)
    return check_symbolic_into_Ie(Q, pd, 1, e=e)


def _negative_jacobian_power():
    R, Q, _ = xy_zk_setup(5, 2)
    return jacobian_power_product(jacobian_ideal(R), -1, Q)


@pytest.mark.parametrize("call, exc, message", [
    (lambda: RingDescriptor(2147483659, ["x"]), ValueError, "modulus too large"),
    (lambda: RingDescriptor(5, []), ValueError, "ring needs at least one variable"),
    (lambda: RingDescriptor(5, ["x"], order="revlex"), ValueError, "unknown monomial order"),
    (lambda: RingDescriptor(5, ["x"], order="block"), ValueError,
     "block order needs a block partition"),
    (lambda: RingDescriptor(5, ["x"], blocks=[["x"]]), ValueError,
     "blocks only make sense with the block order"),
    (lambda: ZERO.lead_monomial(), ValueError, "zero polynomial has no leading monomial"),
    (lambda: ZERO.lead_coeff(), ValueError, "zero polynomial has no leading coefficient"),
    (lambda: X ** -1, ValueError, "exponent must be a non-negative integer"),
    (lambda: X.frobenius(0), ValueError, "Frobenius exponent must be >= 1"),
    (lambda: poly_divide_exact(X, X7), RingMismatch, "polynomials from different rings"),
    (lambda: poly_divide_exact(X, ZERO), ZeroDivisionError, "division by the zero polynomial"),
    (lambda: ideal_member(X7, Ideal(R5, [X])), RingMismatch, "polynomial from a different ring"),
    (lambda: ideal_subset(Ideal(R5, [X]), Ideal(R7, [X7])), RingMismatch,
     "ideals from different rings"),
    (lambda: ideal_equal(Ideal(R5, [X]), Ideal(R7, [X7])), RingMismatch,
     "ideals from different rings"),
    (lambda: HypersurfaceRing(R5, X7), RingMismatch, "defining polynomial from a different ring"),
    (lambda: PrimeData(primes=(Ideal(R5, [X]),), separators=()).validate_separators(),
     ValueError, "one separator per listed prime is required"),
    (lambda: PrimeData(primes=(Ideal(R5, [X]),), separators=(Y,),
                       power_embedded=(Ideal(R5, [X]),)).validate_separators(),
     ValueError, "separator y misses a listed embedded prime"),
    (_negative_jacobian_power, ValueError, "jacobian power needs a >= 0"),
    (lambda: fedder_is_fpure(Ideal(R5, [ZERO])), ValueError, "ideal must be nonzero"),
    (lambda: hypersurface_Ie(Ideal(R5, [X]), 0), ValueError, "I_e needs e >= 1"),
    # a monomial ideal takes no I_e, so nu_e checks e before it picks a path
    (lambda: nu_e(Ideal(R5, [X]), 0), ValueError, "I_e needs e >= 1"),
    (lambda: nu_e(Ideal(R5, [X]), -1), ValueError, "I_e needs e >= 1"),
    # before q = p^e and the two symbolic powers
    (lambda: _symbolic_into_Ie(0), ValueError, "I_e needs e >= 1"),
    (lambda: _symbolic_into_Ie(-1), ValueError, "I_e needs e >= 1"),
    (_fpt_without_radical, ValueError, "the fpt containments need an asserted-radical ideal"),
], ids=[
    "modulus-too-large", "no-variables", "unknown-order", "block-without-blocks",
    "blocks-without-block-order", "lead-monomial-of-zero", "lead-coeff-of-zero",
    "negative-power", "frobenius-e0", "divide-ring-mismatch", "divide-by-zero",
    "member-ring-mismatch", "subset-ring-mismatch", "equal-ring-mismatch",
    "hypersurface-ring-mismatch", "separator-count", "separator-misses-embedded",
    "negative-jacobian-power", "fedder-zero-ideal", "Ie-e0", "nu-e0", "nu-negative-e",
    "symbolic-ie-e0", "symbolic-ie-negative-e", "fpt-not-radical",
])
def test_rejects(call, exc, message):
    with pytest.raises(exc, match=message):
        call()


@pytest.mark.parametrize("got, want", [
    (lambda: 1 + X, parse_poly(R5, "x + 1")),
    (lambda: X - 1, parse_poly(R5, "x - 1")),
    (lambda: 1 - X, parse_poly(R5, "1 - x")),
    (lambda: X * 10, ZERO),
    (lambda: parse_gens(R5, ""), []),
    (lambda: parse_gens(R5, " ( ) "), []),
    (lambda: PolyMatrix(R5, []).shape, (0, 0)),
], ids=["int-plus-poly", "poly-minus-int", "int-minus-poly", "times-multiple-of-p",
        "empty-gens", "empty-parenthesized-gens", "empty-matrix-shape"])
def test_edge_results(got, want):
    assert got() == want
