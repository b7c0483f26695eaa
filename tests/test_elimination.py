"""The kernel's elimination step (groebner.elimination_basis) against the
t-free part of the full reduced basis on the extended ring, which is what
intersections, colons, saturations and eliminations kept before it reduced
only that part; colons and saturations of monomial ideals against their
combinatorial answer; and the packed monomial paths of products,
intersections, colons and membership against the references they replace."""

import functools
import itertools
import random

import pytest

import froblab.groebner as groebner
from froblab import (
    ExponentOverflow,
    Ideal,
    Polynomial,
    RingDescriptor,
    bracket_power,
    eliminate,
    ideal_colon,
    ideal_equal,
    ideal_intersect,
    ideal_member,
    ideal_power,
    ideal_product,
    ideal_subset,
    make_ring,
    normal_form,
    parse_gens,
    parse_poly,
    poly_divide_exact,
    saturate,
)
from froblab.idealops import _extended_ring, _saturate_rabinowitsch, _t_ring
from froblab.rings import EXPONENT_LIMIT
from conftest import (
    drop_reference,
    lcm_intersect_reference,
    lift_reference,
    mono_divides,
    permute_reference,
    random_homogeneous,
    random_ideal,
    random_ideal_in_max,
    random_monomial_ideal,
    random_poly,
    rings,
    sorted_reference,
)


def t_free(ring2, gens2):
    """The reference: the full reduced basis of (gens2) on a block ring,
    restricted to the elements in which no front-block variable occurs."""
    n = len(ring2.blocks[0])
    G = Ideal(ring2, gens2).groebner_basis()
    return tuple(g for g in G if not any(any(m[:n]) for m, _ in g.terms))


RING_IDS = ["grevlex", "lex", "cone2", "cone3"]


def intersect_reference(ring, A, B):
    """Generators of (A) ∩ (B) in S: eliminate t from t*A + (1-t)*B."""
    ring2, t = _t_ring(ring)
    gens2 = [t * lift_reference(g, ring2, 1) for g in A]
    gens2 += [(Polynomial.one(ring2) - t) * lift_reference(g, ring2, 1) for g in B]
    return sorted_reference([drop_reference(g, ring, 1) for g in t_free(ring2, gens2)])


def colon_reference(I, g):
    ring = I.ring.ambient
    return [poly_divide_exact(h, g) for h in intersect_reference(ring, I.preimage.gens, [g])]


def saturation_reference(I, g):
    """The t-free part of the reduced basis of I's preimage + (1 - t*g)."""
    ring = I.ring.ambient
    ring2, t = _t_ring(ring)
    gens2 = [lift_reference(h, ring2, 1) for h in I.preimage.gens]
    gens2.append(Polynomial.one(ring2) - t * lift_reference(g, ring2, 1))
    return [drop_reference(h, ring, 1) for h in t_free(ring2, gens2)]


class TestKernelStep:
    # (front block, rest block) of F_p[a,b | x,y,z]-style rings
    BLOCKS = [(("t",), ("x", "y", "z")), (("s", "t"), ("x", "y")), (("t",), ("x", "y"))]

    @staticmethod
    def random_gens(ring, rng, kind):
        if kind == "monomial":
            return list(random_monomial_ideal(ring, rng).gens)
        if kind == "homogeneous":  # F4 computes these bases
            return random_homogeneous(ring, rng)
        return list(random_ideal(ring, rng, max_gens=3, max_deg=3).gens)

    @pytest.mark.parametrize("kind", ["monomial", "homogeneous", "inhomogeneous"])
    @pytest.mark.parametrize("blocks", BLOCKS, ids=["t|xyz", "st|xy", "t|xy"])
    def test_equals_the_t_free_part(self, blocks, kind):
        rng = random.Random(f"eliminate {blocks} {kind}")
        kept = 0
        for trial in range(25):
            ring2 = make_ring([2, 3, 5, 7][trial % 4], blocks[0] + blocks[1], "block", blocks)
            gens = self.random_gens(ring2, rng, kind)
            got = groebner.elimination_basis(ring2, gens)
            assert got == t_free(ring2, gens), gens
            kept += len(got)
        assert kept  # some elimination ideals are nonzero

    def test_groebner_basis_on_a_block_ring_stays_full(self):
        ring2 = make_ring(5, ["t", "x", "y"], "block", (("t",), ("x", "y")))
        gens = parse_gens(ring2, "t*x - y, t*y - x, t^2 - 1")
        full = Ideal(ring2, gens).groebner_basis()
        kept = groebner.elimination_basis(ring2, gens)
        assert any(g.lead_monomial()[0] for g in full)
        assert kept == t_free(ring2, gens) and 0 < len(kept) < len(full)


@pytest.mark.parametrize("R", list(rings(3)), ids=RING_IDS)
class TestIdealOperations:
    """Each operation's generators equal the reference's, element for element."""

    def test_intersect(self, R):
        rng = random.Random(11)
        S = R.ambient
        for _ in range(6):
            I = Ideal(R, random_ideal(S, rng).gens)
            J = Ideal(R, random_ideal(S, rng).gens)
            assert list(ideal_intersect(I, J).gens) == intersect_reference(
                S, I.preimage.gens, J.preimage.gens), (I, J)

    def test_colon(self, R):
        rng = random.Random(12)
        S = R.ambient
        for _ in range(6):
            I = Ideal(R, random_ideal(S, rng).gens)
            g = random_poly(S, rng, max_deg=2, max_terms=2, nonzero=True)
            if g.is_constant():
                continue
            assert list(ideal_colon(I, g).gens) == colon_reference(I, g), (I, g)
            J = Ideal(R, [g, random_poly(S, rng, max_deg=2, max_terms=2, nonzero=True)])
            if any(h.is_constant() for h in J.gens) or len(J.gens) < 2:
                continue
            a, b = (Ideal(R, colon_reference(I, h)) for h in J.gens)
            want = intersect_reference(S, a.preimage.gens, b.preimage.gens)
            assert list(ideal_colon(I, J).gens) == want, (I, J)

    def test_saturate(self, R):
        rng = random.Random(13)
        S = R.ambient
        for _ in range(6):
            I = Ideal(R, random_ideal_in_max(S, rng).gens)
            g = random_poly(S, rng, max_deg=2, max_terms=2, nonzero=True)
            want = saturation_reference(I, g)
            sat = _saturate_rabinowitsch(I, g)
            assert list(sat.gens) == sorted_reference(want), (I, g)
            if S.order == "grevlex":
                assert sat._gb.elements == tuple(want), (I, g)
            if not (g.is_monomial() and g.degree() == 1):  # the grevlex shortcut
                assert list(saturate(I, g)[0].gens) == list(sat.gens), (I, g)

    def test_eliminate(self, R):
        rng = random.Random(14)
        S = R.ambient
        for kill in (["x"], ["z"], ["x", "y"], ["y", "z"]):
            I = Ideal(R, random_ideal(S, rng).gens)
            keep = [v for v in S.variables if v not in kill]
            ring2 = _extended_ring(RingDescriptor(S.p, keep), kill)
            to2 = [S.index(v) for v in ring2.variables]
            G = t_free(ring2, [permute_reference(g, ring2, to2) for g in I.preimage.gens])
            back = [ring2.index(v) for v in S.variables]
            assert eliminate(I, kill).gens == tuple(permute_reference(g, S, back) for g in G), (I, kill)


def monomials(I):
    return [g.lead_monomial() for g in I.gens]


def colon_by_monomial(I, u):
    """(I : u) = (m / gcd(m, u)) over the generators m of I."""
    ring = I.ring
    return Ideal(ring, [Polynomial.monomial(ring, tuple(max(a - b, 0) for a, b in zip(m, u)))
                        for m in monomials(I)])


def saturation_by_monomial(I, u):
    """(I : u^∞): each generator with the variables of u struck out."""
    ring = I.ring
    return Ideal(ring, [Polynomial.monomial(ring, tuple(0 if b else a for a, b in zip(m, u)))
                        for m in monomials(I)])


def in_monomial_ideal(m, I):
    return any(mono_divides(g, m) for g in monomials(I))


def absorbing(sat, J, I):
    """Smallest s with J^s * sat inside I, by products of generators."""
    for s in itertools.count():
        products = [tuple(map(sum, zip(v, *us)))
                    for v in monomials(sat)
                    for us in itertools.combinations_with_replacement(monomials(J), s)]
        if all(in_monomial_ideal(m, I) for m in products):
            return s


@pytest.mark.parametrize("order", ["grevlex", "lex"])
class TestMonomialCombinatorics:
    """Colon and saturation of monomial ideals, computed by elimination, match
    the combinatorial answer, the saturation's exponent included."""

    def test_colon(self, order):
        rng = random.Random(f"monomial colon {order}")
        ring = make_ring(3, ["x", "y", "z"], order=order)
        for _ in range(15):
            I, J = random_monomial_ideal(ring, rng), random_monomial_ideal(ring, rng)
            pieces = [colon_by_monomial(I, u) for u in monomials(J)]
            want = pieces[0]
            for piece in pieces[1:]:
                want = lcm_intersect_reference(want, piece)
            assert ideal_equal(ideal_colon(I, J.gens[0]), pieces[0]), (I, J)
            assert ideal_equal(ideal_colon(I, J), want), (I, J)

    def test_saturate(self, order):
        rng = random.Random(f"monomial saturate {order}")
        ring = make_ring(3, ["x", "y", "z"], order=order)
        for _ in range(15):
            I = random_monomial_ideal(ring, rng, max_deg=4)
            J = random_monomial_ideal(ring, rng, max_gens=2, max_deg=2)
            u = J.gens[0]
            sat, s = saturate(I, u)
            want = saturation_by_monomial(I, u.lead_monomial())
            assert ideal_equal(sat, want) and s == absorbing(want, Ideal(ring, [u]), I), (I, u)
            pieces = [saturation_by_monomial(I, v) for v in monomials(J)]
            want = pieces[0]
            for piece in pieces[1:]:
                want = lcm_intersect_reference(want, piece)
            sat, s = saturate(I, J)
            assert ideal_equal(sat, want) and s == absorbing(want, J, I), (I, J)


def random_monomials(ring, rng):
    """Monomials with coefficients other than 1: now and then one monomial
    twice under two coefficients, a multiple of another, or a constant."""
    gens = []
    for _ in range(rng.randrange(1, 5)):
        m = [rng.randrange(3) for _ in range(ring.nvars)]
        gens.append(Polynomial.monomial(ring, m, rng.randrange(1, ring.p)))
        if rng.random() < 0.3:
            gens.append(Polynomial.monomial(ring, m, rng.randrange(1, ring.p)))
        if rng.random() < 0.3:
            m[rng.randrange(ring.nvars)] += 1
            gens.append(Polynomial.monomial(ring, m, rng.randrange(1, ring.p)))
    if rng.random() < 0.1:
        gens.append(Polynomial.constant(ring, rng.randrange(1, ring.p)))
    rng.shuffle(gens)
    return gens


def product_reference(I, J):
    """I*J's generators as Polynomial.__mul__ gives them: exact duplicates
    dropped, ascending by leading monomial in ring order, then terms."""
    return sorted_reference({a * b for a in I.gens for b in J.gens})


MONOMIAL_RINGS = [("lex", None), ("grevlex", None), ("block", (("x", "y"), ("z", "w")))]


@pytest.mark.parametrize("order,blocks", MONOMIAL_RINGS, ids=["lex", "grevlex", "block"])
class TestMonomialPaths:
    """Monomial generators keep products, intersections, colons and
    membership on packed monomials. Each equals, element for element, the
    path it replaces: Polynomial products, the t-elimination with exact
    division, and normal forms."""

    @staticmethod
    def ring(order, blocks, trial):
        return make_ring([2, 3, 5, 7][trial % 4], ["x", "y", "z", "w"], order, blocks)

    def test_product_and_power(self, order, blocks):
        rng = random.Random(f"monomial product {order}")
        for trial in range(30):
            S = self.ring(order, blocks, trial)
            I, J = Ideal(S, random_monomials(S, rng)), Ideal(S, random_monomials(S, rng))
            assert list(ideal_product(I, J).gens) == product_reference(I, J), (I, J)
            power = I
            for n in (2, 3):
                power = Ideal(S, product_reference(power, I))
                assert ideal_power(I, n).gens == power.gens, (I, n)

    def test_intersect(self, order, blocks):
        rng = random.Random(f"monomial intersect {order}")
        for trial in range(30):
            S = self.ring(order, blocks, trial)
            I, J = Ideal(S, random_monomials(S, rng)), Ideal(S, random_monomials(S, rng))
            meet = ideal_intersect(I, J)
            assert list(meet.gens) == intersect_reference(S, I.gens, J.gens), (I, J)
            assert meet.groebner_basis() == Ideal(S, meet.gens).groebner_basis(), (I, J)

    def test_colon(self, order, blocks):
        rng = random.Random(f"monomial colon {order}")
        for trial in range(30):
            S = self.ring(order, blocks, trial)
            I = Ideal(S, random_monomials(S, rng))
            g = rng.choice(random_monomials(S, rng))
            if not g.is_constant():
                assert list(ideal_colon(I, g).gens) == colon_reference(I, g), (I, g)
        # the quotients are scaled by lc(g)^-1: over F_3, 2^-1 = 2
        S = self.ring(order, blocks, 1)
        I = Ideal(S, parse_gens(S, "1, x*y, x*y*z"))
        assert ideal_colon(I, parse_poly(S, "2*x*y")).gens == (Polynomial.constant(S, 2),)

    def test_colon_by_an_ideal(self, order, blocks):
        # the kernel's one pass against the route it replaced: each (I : g) by
        # the t-elimination with exact division, then their intersections.
        # J of one generator keeps that route, its quotients scaled by 1/lc(g)
        rng = random.Random(f"monomial colon by an ideal {order}")
        seen = {"unit": 0, "inside": 0, "principal": 0, "many": 0}
        for trial in range(40):
            S = self.ring(order, blocks, trial)
            I = Ideal(S, random_monomials(S, rng))
            gens = random_monomials(S, rng)
            if trial % 5 == 0:
                gens.append(Polynomial.constant(S, rng.randrange(1, S.p)))
            if trial % 5 == 1:
                gens = [g * rng.choice(gens) for g in I.gens]
            if trial % 5 == 2:  # a constant alone keeps I's generators, not the reference's
                gens = [next((g for g in gens if not g.is_constant()), Polynomial.variable(S, "x"))]
            J = Ideal(S, gens)
            want = colon_reference(I, J.gens[0])
            for g in J.gens[1:]:
                want = intersect_reference(S, want, colon_reference(I, g))
            got = ideal_colon(I, J)
            assert list(got.gens) == want, (I, J)
            assert got.groebner_basis() == Ideal(S, want).groebner_basis(), (I, J)
            seen["unit"] += any(g.is_constant() for g in J.gens) and len(J.gens) > 1
            seen["inside"] += ideal_subset(J, I)[0] and len(J.gens) > 1
            seen["principal"] += len(J.gens) == 1
            seen["many"] += len(J.gens) > 2
        assert min(seen.values()) >= 3, seen

    def test_fedder_colon_past_2_16(self, order, blocks):
        # (I^[q] : I) with q = 5^7, Fedder's colon, whose exponents pass 2^16,
        # against the intersections of the single colons it replaced
        rng = random.Random(f"monomial Fedder colon {order}")
        S = make_ring(5, ["x", "y", "z", "w"], order, blocks)
        for _ in range(5):
            I = random_monomial_ideal(S, rng)
            J = bracket_power(I, 7)
            pieces = [Ideal(S, colon_reference(J, g)) for g in I.gens]
            want = functools.reduce(ideal_intersect, pieces) if len(pieces) > 1 else pieces[0]
            assert ideal_colon(J, I).gens == want.gens, I

    def test_membership(self, order, blocks):
        rng = random.Random(f"monomial membership {order}")
        for trial in range(30):
            S = self.ring(order, blocks, trial)
            J = Ideal(S, random_monomials(S, rng))
            G = J.groebner_basis()
            members = [random_poly(S, rng, max_deg=2, max_terms=2, nonzero=True) * g
                       for g in J.gens]
            probes = members + [random_poly(S, rng, max_deg=5, max_terms=3) for _ in range(4)]
            for f in probes:
                assert ideal_member(f, J) == (not normal_form(f, G)), (f, J)
            rng.shuffle(probes)
            I = Ideal(S, probes)
            witness = next((f for f in I.gens if normal_form(f, G)), None)
            assert ideal_subset(I, J) == (witness is None, witness), (I, J)

    def test_exponent_past_the_limit_raises(self, order, blocks):
        S = self.ring(order, blocks, 2)
        x, y = Polynomial.variable(S, "x"), Polynomial.variable(S, "y")
        at_limit = Polynomial.monomial(S, (EXPONENT_LIMIT, 0, 0, 0))
        # no polynomial holds an exponent past the range, so no input does
        with pytest.raises(ExponentOverflow):
            Polynomial(S, [((EXPONENT_LIMIT + 1, 0, 0, 0), 1)])
        # products: x^N * x leaves the range, as Polynomial.__mul__ says. x^N * y
        # does not: the packed product checks exponents, not the total degree
        for make in (lambda: ideal_product(Ideal(S, [at_limit]), Ideal(S, [x])), lambda: at_limit * x):
            with pytest.raises(ExponentOverflow):
                make()
        x_N_y = Polynomial.monomial(S, (EXPONENT_LIMIT, 1, 0, 0))
        assert ideal_product(Ideal(S, [at_limit]), Ideal(S, [y])).gens == (x_N_y,)
        assert ideal_colon(Ideal(S, [at_limit]), x).gens == (Polynomial.monomial(S, (EXPONENT_LIMIT - 1, 0, 0, 0)),)


@pytest.mark.parametrize("R", list(rings(3))[2:], ids=RING_IDS[2:])
def test_monomial_gens_over_a_cone_take_the_general_path(R):
    """Over F_3[x,y,z]/(xy - z^k) the preimage of a monomial ideal holds the
    relation, which is not a monomial: intersections and colons must
    eliminate, not take lcms and quotients of the generators alone."""
    S = R.ambient
    rng = random.Random(f"cone {R.f}")
    for _ in range(10):
        I, J = Ideal(R, random_monomial_ideal(S, rng).gens), Ideal(R, random_monomial_ideal(S, rng).gens)
        want = intersect_reference(S, I.preimage.gens, J.preimage.gens)
        assert list(ideal_intersect(I, J).gens) == want, (I, J)
        g = J.gens[0]
        if not g.is_constant():
            assert list(ideal_colon(I, g).gens) == colon_reference(I, g), (I, g)
