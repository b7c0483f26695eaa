"""Ring-core: exact arithmetic, Frobenius powers, derivatives, text round trips."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from froblab import (
    ExponentOverflow,
    Polynomial,
    RingMismatch,
    format_poly,
    make_ring,
    parse_poly,
)
from froblab.rings import EXPONENT_LIMIT, mono_mul
from froblab.parsing import _Tokens
from conftest import mono_divides, random_poly, tokens_reference


class TestMakeRing:
    def test_valid_constructor(self):
        r = make_ring(5, ["x", "y", "z"], order="grevlex")
        assert r.p == 5 and r.variables == ("x", "y", "z")

    def test_composite_modulus(self):
        with pytest.raises(ValueError, match="not prime"):
            make_ring(4, ["x"], order="lex")

    def test_duplicate_variable(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_ring(7, ["x", "x"], order="lex")

    def test_block_order_partition_enforced(self):
        with pytest.raises(ValueError):
            make_ring(5, ["x", "y"], order="block", blocks=[["x"], ["x", "y"]])


class TestParse:
    def test_example_61_equation(self, F5xyz):
        f = parse_poly(F5xyz, "x*y - z^3")
        z3 = Polynomial.variable(F5xyz, "z") ** 3
        xy = Polynomial.variable(F5xyz, "x") * Polynomial.variable(F5xyz, "y")
        assert f == xy - z3
        # minus becomes the canonical residue 4
        assert format_poly(f) == "4*z^3 + x*y"

    def test_fermat_cubic(self):
        r = make_ring(7, ["x", "y", "z"])
        f = parse_poly(r, "x^3+y^3+z^3")
        assert len(f.terms) == 3 and f.degree() == 3

    def test_unknown_variable(self, F5xyz):
        with pytest.raises(ValueError, match="unknown variable w"):
            parse_poly(F5xyz, "x + w")

    def test_error_carries_position(self, F5xyz):
        with pytest.raises(ValueError, match="line 1"):
            parse_poly(F5xyz, "x + + ^")

    def test_grouped_products(self, F5xyz):
        f = parse_poly(F5xyz, "(x + y) * (x - y)")
        x, y = Polynomial.variable(F5xyz, "x"), Polynomial.variable(F5xyz, "y")
        assert f == x**2 - y**2

    def test_three_grouped_factors_rejected(self, F5xyz):
        with pytest.raises(ValueError, match="grouped factors"):
            parse_poly(F5xyz, "(x+y)*(x-y)*(x+1)")

    def test_group_power(self, F5xyz):
        x, y = Polynomial.variable(F5xyz, "x"), Polynomial.variable(F5xyz, "y")
        assert parse_poly(F5xyz, "(x+y)^2") == x**2 + 2 * x * y + y**2

    def test_exponent_overflow(self, F5xyz):
        with pytest.raises(OverflowError):
            parse_poly(F5xyz, "x^99999999999")

    def test_token_positions_match_reference(self):
        # line and column from the match offset, against the whitespace walk
        alphabet = "09xy_Z+-*^(),;é" + " \n\t\r\x0b\u2028"
        rng = random.Random(11)
        for _ in range(3000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(25)))
            toks = _Tokens(text)
            assert (toks.items, toks.end) == tokens_reference(text), repr(text)

    def test_roundtrip_on_random(self, F5xyz):
        rng = random.Random(7)
        for _ in range(60):
            f = random_poly(F5xyz, rng, max_deg=6, max_terms=8)
            assert parse_poly(F5xyz, format_poly(f)) == f


class TestArithmetic:
    def test_additive_inverse(self, F5xyz):
        x = Polynomial.variable(F5xyz, "x")
        assert not (x + -x)

    def test_char_p_binomial(self, F5xyz):
        x, y = Polynomial.variable(F5xyz, "x"), Polynomial.variable(F5xyz, "y")
        assert (x + y) ** 5 == x**5 + y**5

    def test_difference_of_squares(self, F5xyz):
        f = parse_poly(F5xyz, "x*y - z^2")
        g = parse_poly(F5xyz, "x*y + z^2")
        assert f * g == parse_poly(F5xyz, "x^2*y^2 - z^4")

    def test_ring_mismatch(self, F5xyz):
        other = make_ring(5, ["x", "y"])
        with pytest.raises(RingMismatch):
            Polynomial.variable(F5xyz, "x") + Polynomial.variable(other, "x")

    def test_product_degree_overflow_detected(self, F5xyz):
        x = Polynomial.variable(F5xyz, "x")
        big = Polynomial.monomial(F5xyz, (2**30, 0, 0))
        with pytest.raises(ExponentOverflow):
            big * big


@st.composite
def small_polys(draw):
    ring = make_ring(5, ["x", "y", "z"])
    n_terms = draw(st.integers(0, 5))
    terms = []
    for _ in range(n_terms):
        m = tuple(draw(st.integers(0, 4)) for _ in range(3))
        c = draw(st.integers(1, 4))
        terms.append((m, c))
    return Polynomial(ring, terms)


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(small_polys(), small_polys(), small_polys())
    def test_associativity_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(small_polys(), small_polys())
    def test_commutativity_and_inverse(self, a, b):
        assert a + b == b + a
        assert a * b == b * a
        assert not (a - a)


class TestFrobenius:
    def test_basic(self, F5xyz):
        x, y = Polynomial.variable(F5xyz, "x"), Polynomial.variable(F5xyz, "y")
        assert (x + y).frobenius(1) == x**5 + y**5

    def test_fermat_little(self, F5xyz):
        x = Polynomial.variable(F5xyz, "x")
        assert (2 * x).frobenius(1) == 2 * x**5

    def test_matches_repeated_squaring(self, F5xyz):
        f = parse_poly(F5xyz, "x*y - z^3")
        assert f.frobenius(1) == f**5
        assert f.frobenius(1) == parse_poly(F5xyz, "x^5*y^5 - z^15")

    def test_is_ring_map_and_pow_oracle(self):
        # frobenius agrees with the generic power oracle and respects + and *
        for p, e in ((2, 2), (3, 1), (5, 1)):
            ring = make_ring(p, ["x", "y"])
            rng = random.Random(p * 10 + e)
            for _ in range(25):
                a = random_poly(ring, rng, max_deg=2, max_terms=3)
                b = random_poly(ring, rng, max_deg=2, max_terms=3)
                assert (a + b).frobenius(e) == a.frobenius(e) + b.frobenius(e)
                assert (a * b).frobenius(e) == a.frobenius(e) * b.frobenius(e)
                assert a.frobenius(e) == a ** (p**e) if a else not a.frobenius(e)


class TestDerivative:
    def test_spec_examples(self, F5xyz):
        f = parse_poly(F5xyz, "x*y - z^3")
        assert f.derivative("x") == Polynomial.variable(F5xyz, "y")
        r7 = make_ring(7, ["x", "y", "z"])
        g = parse_poly(r7, "x*y - z^3")
        assert g.derivative("z") == parse_poly(r7, "4*z^2")

    def test_pth_power_kills(self, F5xyz):
        assert not parse_poly(F5xyz, "x^5").derivative("x")

    def test_leibniz(self, F5xyz):
        rng = random.Random(3)
        for _ in range(25):
            a = random_poly(F5xyz, rng)
            b = random_poly(F5xyz, rng)
            da, db = a.derivative("y"), b.derivative("y")
            assert (a * b).derivative("y") == da * b + a * db


# -- packed monomials ---------------------------------------------------------

exponents = st.one_of(
    st.integers(0, 6), st.integers(EXPONENT_LIMIT - 3, EXPONENT_LIMIT)
)


@st.composite
def rings_and_monomials(draw, count):
    nvars = draw(st.integers(1, 5))
    names = [f"x{i}" for i in range(nvars)]
    order = draw(st.sampled_from(["lex", "grevlex", "block"]))
    blocks = None
    if order == "block":
        cuts = draw(st.sets(st.integers(1, nvars - 1))) if nvars > 1 else set()
        bounds = [0, *sorted(cuts), nvars]
        blocks = [names[a:b] for a, b in zip(bounds, bounds[1:])]
    ring = make_ring(7, names, order=order, blocks=blocks)
    monos = [tuple(draw(exponents) for _ in range(nvars)) for _ in range(count)]
    return ring, monos


class TestPacking:
    @settings(max_examples=100, deadline=None)
    @given(rings_and_monomials(1))
    def test_unpack_inverts_pack(self, case):
        ring, (m,) = case
        assert ring._packing.unpack(ring._packing.pack(m)) == m

    @settings(max_examples=100, deadline=None)
    @given(rings_and_monomials(2))
    def test_add_is_multiplication_and_guards_flag_overflow(self, case):
        ring, (a, b) = case
        pk = ring._packing
        total = pk.pack(a) + pk.pack(b)
        ab = mono_mul(a, b)
        assert total == pk.pack(ab)
        overflow = max(ab) > EXPONENT_LIMIT
        assert bool(total & pk.guards) == overflow
        if overflow:
            with pytest.raises(ExponentOverflow):
                pk.check(total)
        else:
            pk.check(total)
            assert pk.unpack(total) == ab

    @settings(max_examples=150, deadline=None)
    @given(rings_and_monomials(2))
    def test_int_order_is_ring_order(self, case):
        ring, (a, b) = case
        pa, pb = ring._packing.pack(a), ring._packing.pack(b)
        assert (pa < pb) == (ring.key(a) < ring.key(b))
        assert (pa == pb) == (a == b)

    @settings(max_examples=150, deadline=None)
    @given(rings_and_monomials(2))
    def test_guard_bit_divisibility(self, case):
        ring, (a, b) = case
        pk = ring._packing
        assert pk.divides(pk.pack(a), pk.pack(b)) == mono_divides(a, b)
        # a always divides a*b when the product stays in range
        ab = mono_mul(a, b)
        if max(ab) <= EXPONENT_LIMIT:
            assert pk.divides(pk.pack(a), pk.pack(ab))
