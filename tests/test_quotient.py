"""Hypersurface quotient layer: preimage bookkeeping and colon duality."""

import random

import pytest

from froblab import (
    HypersurfaceRing,
    Ideal,
    Polynomial,
    RingMismatch,
    bracket_power,
    brute_membership_oracle,
    format_poly,
    ideal_colon,
    ideal_equal,
    ideal_member,
    ideal_power,
    ideal_product,
    ideal_subset,
    make_ring,
    parse_gens,
    parse_poly,
    q_ideal,
)
from froblab.idealops import monomials_up_to


@pytest.fixture
def cone():
    ring = make_ring(5, ["x", "y", "z"])
    return HypersurfaceRing(ring, parse_poly(ring, "x*y - z^2"), reduced=True)


class TestConstruction:
    def test_rejects_unit_and_zero_equation(self):
        ring = make_ring(5, ["x"])
        with pytest.raises(ValueError):
            HypersurfaceRing(ring, Polynomial.zero(ring))
        with pytest.raises(ValueError):
            HypersurfaceRing(ring, Polynomial.constant(ring, 2))

    def test_q_ideal_absorbs_f(self, cone):
        Q = q_ideal(cone, parse_gens(cone.ambient, "x, z"))
        # f = xy - z^2 is in (x, z), so the preimage equals (x, z)
        assert ideal_equal(Q.preimage, Ideal(cone.ambient, parse_gens(cone.ambient, "x, z")))

    def test_zero_ideal_preimage_is_f(self, cone):
        Z = q_ideal(cone, [])
        assert ideal_equal(Z.preimage, Ideal(cone.ambient, [cone.f]))
        assert Z.is_zero()

    def test_unit_ideal(self, cone):
        assert not Ideal.unit(cone).is_proper()

    def test_ring_mismatch(self, cone):
        other = make_ring(5, ["a"])
        with pytest.raises(RingMismatch):
            q_ideal(cone, [Polynomial.variable(other, "a")])


class TestPowerBracket:
    def test_square(self, cone):
        Q = q_ideal(cone, parse_gens(cone.ambient, "x, z"))
        sq = ideal_power(Q, 2)
        expected = Ideal(
            cone.ambient, parse_gens(cone.ambient, "x^2, x*z, z^2, x*y - z^2")
        )
        assert ideal_equal(sq.preimage, expected)

    def test_first_and_zeroth_power(self, cone):
        Q = q_ideal(cone, parse_gens(cone.ambient, "x, z"))
        assert ideal_equal(ideal_power(Q, 1), Q)
        assert not ideal_power(Q, 0).is_proper()

    def test_bracket(self, cone):
        Q = q_ideal(cone, parse_gens(cone.ambient, "x, z"))
        br = bracket_power(Q, 1)
        expected = Ideal(
            cone.ambient, parse_gens(cone.ambient, "x^5, z^5, x*y - z^2")
        )
        assert ideal_equal(br.preimage, expected)

    def test_bracket_of_zero(self, cone):
        Z = q_ideal(cone, [])
        assert bracket_power(Z, 1).is_zero()

    def test_bracket_char_p_identity(self, cone):
        Q = q_ideal(cone, [parse_poly(cone.ambient, "x + z")])
        br = bracket_power(Q, 1)
        assert ideal_member(parse_poly(cone.ambient, "x^5 + z^5"), br)

    def test_f_absorption_everywhere(self, cone):
        Q = q_ideal(cone, parse_gens(cone.ambient, "x, z"))
        for obj in (ideal_power(Q, 3), bracket_power(Q, 1), ideal_colon(ideal_power(Q, 2), Q)):
            assert ideal_member(cone.f, obj.preimage)

    def test_power_compatibility(self, cone):
        Q = q_ideal(cone, parse_gens(cone.ambient, "x, z"))
        prod = ideal_product(ideal_power(Q, 2), ideal_power(Q, 1))
        ok, _ = ideal_subset(prod, ideal_power(Q, 3))
        assert ok

    def test_bracket_inside_qth_power(self, cone):
        Q = q_ideal(cone, parse_gens(cone.ambient, "x, z"))
        ok, _ = ideal_subset(bracket_power(Q, 1), ideal_power(Q, 5))
        assert ok


class TestColon:
    def test_contains_Q(self, cone):
        Q = q_ideal(cone, parse_gens(cone.ambient, "x, z"))
        colon = ideal_colon(ideal_power(Q, 2), Q)
        ok, _ = ideal_subset(Q, colon)
        assert ok

    def test_zero_colon_unit(self, cone):
        Z = q_ideal(cone, [])
        colon = ideal_colon(Z, Ideal.unit(cone))
        assert colon.is_zero()

    def test_spec_x_example(self, cone):
        A = q_ideal(cone, [parse_poly(cone.ambient, "x^2")])
        B = q_ideal(cone, [parse_poly(cone.ambient, "x")])
        colon = ideal_colon(A, B)
        assert ideal_member(Polynomial.variable(cone.ambient, "x"), colon)
        # independent confirmation in the ambient ring: x*x = x^2 mod f-multiples
        assert brute_membership_oracle(
            Polynomial.variable(cone.ambient, "x") * Polynomial.variable(cone.ambient, "x"),
            A.preimage,
            3,
        )

    def test_colon_defining_property_sampled(self, cone):
        # ambient colon of preimages = quotient-ring colon: sample small t
        rng = random.Random(7)
        Q = q_ideal(cone, parse_gens(cone.ambient, "x, z"))
        A = ideal_power(Q, 2)
        colon = ideal_colon(A, Q)
        ring = cone.ambient
        for m in monomials_up_to(ring, 2):
            t = Polynomial.monomial(ring, m)
            sends = all(ideal_member(t * g, A.preimage) for g in Q.gens)
            assert sends == ideal_member(t, colon)


class TestSubsetEqual:
    def test_reflexive(self, cone):
        Q = q_ideal(cone, parse_gens(cone.ambient, "x, z"))
        ok, _ = ideal_subset(Q, Q)
        assert ok

    def test_unit_not_in_proper(self, cone):
        Q = q_ideal(cone, parse_gens(cone.ambient, "x, z"))
        ok, wit = ideal_subset(Ideal.unit(cone), Q)
        assert not ok and format_poly(wit) == "1"

    def test_symbolic_square_principal(self, cone):
        # (x) + (f) equals the preimage of Q^(2) for Q = (x, z): Example 6.1 at k=2, n=1
        from froblab.containment import xy_zk_setup
        from froblab.symbolic import symbolic_power

        R, Q, pd = xy_zk_setup(5, 2)
        sym2 = symbolic_power(Q, 2, pd)
        principal = q_ideal(R, [Polynomial.variable(R.ambient, "x")])
        assert ideal_equal(sym2, principal)
