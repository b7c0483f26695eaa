"""Buchberger kernel: bases, normal forms, and the decision procedures,
cross-checked against the linear-algebra membership oracle."""

import itertools
import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from froblab import (
    BudgetExceeded,
    ExponentOverflow,
    GroebnerBasis,
    GroebnerBudget,
    HypersurfaceRing,
    Ideal,
    Polynomial,
    brute_membership_oracle,
    format_poly,
    ideal_equal,
    ideal_member,
    ideal_power,
    ideal_subset,
    ideal_sum,
    make_ring,
    normal_form,
    parse_gens,
    parse_poly,
    poly_divide_exact,
)
from froblab import groebner
from froblab.frobenius import Ie_maximal, nu_e
from froblab.groebner import last_escaping_power
from froblab.rings import EXPONENT_LIMIT, mono_mul
from conftest import (
    PairsReference,
    last_escaping_monomial_reference,
    mono_div,
    mono_lcm,
    nf_reference,
    order_key,
    random_homogeneous,
    random_ideal,
    random_ideal_in_max,
    random_monomial_ideal,
    random_poly,
    reduced_pair_loop_reference,
    rings,
)


def check_pair_loop(ring, gens):
    """_pair_loop returns elements no leading monomial of another divides, and
    _reduce_basis makes of them the reference pair loop's basis."""
    basis = groebner._pair_loop(ring, gens)
    lms, guards = [b[0] for b in basis], ring._packing.guards
    assert not any(i != j and not (b - a) & guards
                   for i, a in enumerate(lms) for j, b in enumerate(lms)), gens
    reduced = groebner._reduce_basis(ring, basis)
    assert reduced == reduced_pair_loop_reference(ring, gens), gens
    return reduced


def spoly(f, g):
    lcm = mono_lcm(f.lead_monomial(), g.lead_monomial())
    uf = Polynomial.monomial(f.ring, mono_div(lcm, f.lead_monomial()))
    ug = Polynomial.monomial(g.ring, mono_div(lcm, g.lead_monomial()))
    return uf * f.monic() - ug * g.monic()


class TestBuchberger:
    def test_principal(self, F5xyz):
        I = Ideal(F5xyz, [Polynomial.variable(F5xyz, "x")])
        assert [format_poly(g) for g in I.groebner_basis()] == ["x"]

    def test_reduction(self, F5xyz):
        x, y = Polynomial.variable(F5xyz, "x"), Polynomial.variable(F5xyz, "y")
        G = Ideal(F5xyz, [x + y, y]).groebner_basis()
        assert {format_poly(g) for g in G} == {"x", "y"}

    def test_lex_example(self):
        r = make_ring(5, ["x", "y"], order="lex")
        G = Ideal(r, parse_gens(r, "x^2 - y, x*y - 1")).groebner_basis()
        assert {format_poly(g) for g in G} == {"x + 4*y^2", "y^3 + 4"}
        # both original generators reduce to zero against the basis
        for g in parse_gens(r, "x^2 - y, x*y - 1"):
            assert not normal_form(g, G)

    def test_zero_ideal(self, F5xyz):
        assert len(Ideal(F5xyz, []).groebner_basis()) == 0

    def test_all_spolys_reduce_to_zero(self):
        # the Buchberger certificate, re-checked rather than assumed
        rng = random.Random(11)
        for trial in range(15):
            ring = make_ring([2, 3, 5][trial % 3], ["x", "y", "z"])
            G = random_ideal(ring, rng).groebner_basis()
            for f, g in itertools.combinations(G, 2):
                assert not normal_form(spoly(f, g), G)

    def test_reduced_basis_unique_under_permutation(self):
        rng = random.Random(23)
        for _ in range(10):
            ring = make_ring(5, ["x", "y", "z"])
            I = random_ideal(ring, rng)
            if not I.gens:
                continue
            base = I.groebner_basis()
            perm = list(I.gens)
            rng.shuffle(perm)
            assert Ideal(ring, perm).groebner_basis() == base

    def test_basis_elements_monic_and_interreduced(self):
        rng = random.Random(5)
        ring = make_ring(7, ["x", "y", "z"])
        for _ in range(10):
            G = random_ideal(ring, rng).groebner_basis()
            lms = [g.lead_monomial() for g in G]
            for g in G:
                assert g.lead_coeff() == 1
            for a, b in itertools.permutations(lms, 2):
                assert mono_div(b, a) is None

    def test_budget_is_explicit_failure(self):
        ring = make_ring(5, ["x", "y", "z"])
        I = Ideal(ring, parse_gens(ring, "x^4*y + z^2, x*z^3 - y^2*x + 1, y^4*z - x"))
        with pytest.raises(BudgetExceeded), GroebnerBudget(max_pairs=2):
            I.groebner_basis()


class TestNormalForm:
    def test_examples(self, F5xyz):
        x = Polynomial.variable(F5xyz, "x")
        G = Ideal(F5xyz, [x]).groebner_basis()
        assert not normal_form(x**2, G)
        y1 = parse_poly(F5xyz, "y + 1")
        assert normal_form(y1, G) == y1

    def test_lex_reduction_to_constant(self):
        r = make_ring(5, ["x", "y"], order="lex")
        G = Ideal(r, parse_gens(r, "x - y^2, y^3 - 1")).groebner_basis()
        assert normal_form(parse_poly(r, "x^3"), G) == Polynomial.one(r)
        # confirmed independently: x^3 - 1 is in the ideal
        assert brute_membership_oracle(
            parse_poly(r, "x^3 - 1"), Ideal(r, parse_gens(r, "x - y^2, y^3 - 1")), 4
        )

    def test_exponent_overflow_in_reduction_raises(self):
        # y*x^N reduces by y -> x^N to x^(2N), past the limit: no silent wrap
        r = make_ring(5, ["y", "x"], order="lex")
        N = EXPONENT_LIMIT
        G = Ideal(r, [parse_poly(r, f"y - x^{N}")]).groebner_basis()
        with pytest.raises(ExponentOverflow):
            normal_form(Polynomial.monomial(r, (1, N)), G)
        # at the limit itself the reduction is exact
        assert normal_form(Polynomial.monomial(r, (1, 0)), G) == parse_poly(r, f"x^{N}")

    def test_basis_packs_its_reducers_once(self, F5xyz):
        I = Ideal(F5xyz, parse_gens(F5xyz, "x^2 - y, x*y - z"))
        reducers = I.groebner_basis()._packed_reducers()
        assert ideal_member(parse_poly(F5xyz, "x^3 - x*y"), I)
        assert not ideal_member(parse_poly(F5xyz, "x"), I)
        assert I.groebner_basis()._packed_reducers() is reducers
        # a basis built from bare elements packs them on first use, then keeps them
        G = GroebnerBasis(F5xyz, I.groebner_basis().elements)
        assert G._packed_reducers() == reducers and G._packed_reducers() is G._packed_reducers()
        f = parse_poly(F5xyz, "x^2 + z^3")
        assert normal_form(f, G) == normal_form(f, list(G)) == normal_form(f, I.groebner_basis())

    def test_idempotent(self, F5xyz):
        rng = random.Random(2)
        for _ in range(20):
            I = random_ideal(F5xyz, rng)
            G = I.groebner_basis()
            f = random_poly(F5xyz, rng, max_deg=5, max_terms=6)
            nf = normal_form(f, G)
            assert normal_form(nf, G) == nf


class TestLastEscapingPower:
    """The frontier scan against building (gens)^r and testing each power."""

    @staticmethod
    def reference(gens, J, cap):
        I = Ideal(J.ring, gens)
        for r in range(1, cap + 1):
            if ideal_subset(ideal_power(I, r), J)[0]:
                return r - 1
        return None

    @pytest.mark.parametrize("p", [2, 3])
    def test_random_ideals(self, p):
        # random J: its generators are rarely a Groebner basis; x^3, y^3
        # make most of them m-primary, and without them some powers never
        # enter J, so the scan also runs into its cap
        rng = random.Random(40 + p)
        ring = make_ring(p, ["x", "y"])
        corners = parse_gens(ring, "x^3, y^3")
        for i in range(12):
            J = Ideal(ring, list(random_ideal_in_max(ring, rng).gens) + (corners if i % 3 else []))
            gens = random_ideal_in_max(ring, rng, max_gens=2, max_deg=2).gens
            assert last_escaping_power(gens, J, 5) == self.reference(gens, J, 5), (gens, J)

    @pytest.mark.parametrize("p", [2, 3])
    def test_random_monomial_ideals(self, p):
        rng = random.Random(50 + p)
        ring = make_ring(p, ["x", "y", "z"])
        for _ in range(10):
            J = random_monomial_ideal(ring, rng)
            gens = random_monomial_ideal(ring, rng, max_deg=2).gens
            assert last_escaping_power(gens, J, 6) == self.reference(gens, J, 6), (gens, J)

    def test_overflow_raises(self):
        r = make_ring(5, ["x", "y"])
        big = Polynomial.monomial(r, (2**30, 0))
        with pytest.raises(ExponentOverflow):
            last_escaping_power([big], Ideal(r, [parse_poly(r, "y^2")]), 4)
        with pytest.raises(ExponentOverflow):
            last_escaping_power([big + parse_poly(r, "y")], Ideal(r, [parse_poly(r, "y^2")]), 4)


class TestMonomialFrontier:
    """nu_e of ideals generated by monomials, by the integer program, against
    the set version of the level scan, kept in conftest as the reference, with
    m^[q] as the targets."""

    @staticmethod
    def both(ring, factors, e):
        pack, n, q = ring._packing.pack, ring.nvars, ring.p**e
        targets = [tuple(q * (j == i) for j in range(n)) for i in range(n)]
        got = nu_e(Ideal(ring, [Polynomial.monomial(ring, m) for m in factors]), e)
        # the pigeonhole bound: no product of n(q-1)+1 factors escapes m^[q]
        want = last_escaping_monomial_reference(
            ring, [pack(m) for m in factors], [pack(t) for t in targets], n * (q - 1) + 1)
        assert got == want, (factors, e)
        return got

    @pytest.mark.parametrize("nvars", [2, 3, 4])
    def test_random(self, nvars):
        rng = random.Random(f"frontier {nvars}")
        F5, F2 = (make_ring(p, ["x", "y", "z", "w"][:nvars]) for p in (5, 2))
        seen = set()
        for _ in range(60):
            cap = rng.randrange(1, 9)
            factors = [tuple(rng.randrange(4) for _ in range(nvars))
                       for _ in range(rng.randrange(1, 4))]
            if not all(map(any, factors)):
                with pytest.raises(ValueError):
                    nu_e(Ideal(F5, [Polynomial.monomial(F5, m) for m in factors]), 1)
                continue
            seen.add(self.both(F5, factors, 1))
            seen.add(self.both(F2, factors, 1 + cap % 3))
        assert len(seen) > 4

    def test_targets_beyond_reach(self):
        # a generator with an exponent of q or more lies in m^[q] and is never used
        ring = make_ring(5, ["x", "y"])
        assert self.both(ring, [(11, 0), (0, 1)], 1) == 4
        assert self.both(ring, [(11, 0), (0, 11)], 1) == 0
        assert self.both(ring, [(1, 1), (5, 0)], 1) == 4

    def test_constant_factor(self):
        ring = make_ring(5, ["x", "y", "z"])
        pack = ring._packing.pack
        # 1 lies in every power of (1, x), so none enters m^[q]; nu_e refuses it
        assert last_escaping_monomial_reference(
            ring, [pack((0, 0, 0)), pack((1, 0, 0))], [pack((5, 0, 0))], 6) is None
        with pytest.raises(ValueError, match="proper"):
            nu_e(Ideal(ring, parse_gens(ring, "1, x")), 1)

    def test_no_factors(self):
        ring = make_ring(5, ["x", "y"])
        assert last_escaping_monomial_reference(ring, [], [ring._packing.pack((5, 0))], 5) == 0
        with pytest.raises(ValueError, match="nonzero"):
            nu_e(Ideal(ring), 1)

    def test_unit_J(self):
        # over F_2[x,y]/(x^3), f^(q-1) = x^(3(q-1)) lies in m^[q], so I_e(m)
        # is the unit ideal and nothing escapes it
        S = make_ring(2, ["x", "y"])
        R = HypersurfaceRing(S, parse_poly(S, "x^3"))
        pack = S._packing.pack
        for e in (1, 2, 3):
            assert Ie_maximal(R, e).groebner_basis().is_unit()
            for gens in ("x", "y^2", "x*y, y^3"):
                I = Ideal(R, parse_gens(S, gens))
                factors = [pack(g.lead_monomial()) for g in I.gens]
                assert nu_e(I, e) == last_escaping_monomial_reference(
                    S, factors, [pack((0, 0))], 5) == 0

    @pytest.mark.parametrize("p,nvars,factors,e,nu", [
        (7, 2, [(5, 0), (3, 3), (2, 4)], 1, 2),
        (5, 3, [(0, 1, 3), (1, 4, 0), (2, 0, 4)], 1, 2),
        (7, 3, [(2, 0, 4), (5, 2, 1), (1, 4, 5), (4, 1, 3)], 2, 16),
    ])
    def test_branch_past_the_first_child(self, p, nvars, factors, e, nu):
        # the optimum needs a second value of some c_j after the first child
        # of its node: trying only c_j = floor(x_j) down and floor(x_j) + 1 up,
        # one child each, finds nu_e - 1 on each of these
        assert self.both(make_ring(p, ["x", "y", "z"][:nvars]), factors, e) == nu

    def test_wide_fields(self):
        # x^(2^20) with q = 5^9: (q-1) // 2^20 = 1 copy of it, and q - 1 of yz
        ring = make_ring(5, ["x", "y", "z"])
        big, q = 2**20, 5**9
        I = Ideal(ring, [Polynomial.monomial(ring, (big, 0, 0)), parse_poly(ring, "y*z")])
        assert nu_e(I, 9) == (q - 1) // big + q - 1 == q
        assert nu_e(I, 8) == 5**8 - 1


class TestMembership:
    def test_examples(self, F5xyz, F2xyz):
        x, y = Polynomial.variable(F5xyz, "x"), Polynomial.variable(F5xyz, "y")
        assert ideal_member(x, Ideal(F5xyz, [x, y]))
        from froblab import ideal_power

        I = Ideal(F2xyz, parse_gens(F2xyz, "x*y, x*z, y*z"))
        assert not ideal_member(parse_poly(F2xyz, "x*y*z"), ideal_power(I, 2))
        # xz in the preimage of Q^2 for Q=(x,z) inside F5[x,y,z]/(xy-z^2)
        J = Ideal(F5xyz, parse_gens(F5xyz, "x^2, x*z, z^2, x*y - z^2"))
        assert ideal_member(parse_poly(F5xyz, "x*z"), J)

    def test_subset_examples(self, F5xyz):
        x = Polynomial.variable(F5xyz, "x")
        ok, _ = ideal_subset(Ideal(F5xyz, [x**2]), Ideal(F5xyz, [x]))
        assert ok
        ok, wit = ideal_subset(Ideal(F5xyz, [x]), Ideal(F5xyz, [x**2]))
        assert not ok and wit == x

    def test_equal_examples(self, F5xyz):
        x, y = Polynomial.variable(F5xyz, "x"), Polynomial.variable(F5xyz, "y")
        assert ideal_equal(Ideal(F5xyz, [x, y]), Ideal(F5xyz, [y, x + y]))
        assert not ideal_equal(Ideal(F5xyz, [x]), Ideal(F5xyz, [x**2]))

    def test_monotone_under_sum(self):
        rng = random.Random(31)
        ring = make_ring(3, ["x", "y", "z"])
        for _ in range(15):
            I, J = random_ideal(ring, rng), random_ideal(ring, rng)
            ok, _ = ideal_subset(I, ideal_sum(I, J))
            assert ok


class TestOracleAgreement:
    """Groebner membership vs the dense linear-algebra oracle.

    Constructed members must be certified by both routes; oracle-positive
    verdicts are authoritative for membership, Groebner-negative verdicts for
    non-membership.
    """

    def test_constructed_members_agree(self):
        rng = random.Random(101)
        count = 0
        for trial in range(40):
            ring = make_ring([2, 3, 5][trial % 3], ["x", "y", "z"])
            I = random_ideal(ring, rng, max_gens=3, max_deg=3)
            bound = 3
            f = Polynomial.zero(ring)
            for g in I.gens:
                f = f + random_poly(ring, rng, max_deg=bound, max_terms=3) * g
            assert ideal_member(f, I)
            max_cof = max(bound + 3, 1)
            assert brute_membership_oracle(f, I, max_cof)
            count += 1
        assert count == 40

    def test_random_probes_agree(self):
        rng = random.Random(202)
        checked = 0
        for trial in range(60):
            ring = make_ring([2, 3, 5][trial % 3], ["x", "y", "z"])
            I = random_ideal(ring, rng, max_gens=3, max_deg=3)
            f = random_poly(ring, rng, max_deg=4, max_terms=5)
            min_deg = min(g.degree() for g in I.gens)
            bound = max(f.degree() - min_deg, 0) + 2
            member = ideal_member(f, I)
            oracle = brute_membership_oracle(f, I, bound)
            if oracle:
                assert member  # oracle certificates are real
            if not member:
                assert not oracle  # no certificate can exist at any bound
            checked += 1
        assert checked == 60


class TestSympyAgreement:
    """Reduced bases against sympy's modular Groebner, an independent kernel."""

    @staticmethod
    def sympy_basis(I, order):
        sympy = pytest.importorskip("sympy")
        ring = I.ring
        xs = sympy.symbols(ring.variables)
        exprs = [
            sum(c * sympy.prod(x**e for x, e in zip(xs, m)) for m, c in f.terms)
            for f in I.gens
        ]
        G = sympy.groebner(exprs, *xs, modulus=ring.p, order=order)
        # sympy prints symmetric residues; map them into [0, p) and make monic
        polys = [
            Polynomial(ring, [(m, int(c) % ring.p) for m, c in g.terms()]).monic()
            for g in G.polys
        ]
        return tuple(sorted(polys, key=lambda g: order_key(ring, g.lead_monomial())))

    @pytest.mark.parametrize("order", ["lex", "grevlex"])
    def test_reduced_bases_match(self, order):
        rng = random.Random(1911 if order == "lex" else 6307)
        proper = 0
        for trial in range(30):
            p = [2, 3, 5, 7][trial % 4]
            names = ["x", "y", "z", "w"][: 3 + trial % 2]
            ring = make_ring(p, names, order=order)
            I = random_ideal(ring, rng, max_gens=3, max_deg=3, max_terms=3)
            G = I.groebner_basis()
            assert G.elements == self.sympy_basis(I, order), (order, I)
            check_pair_loop(ring, I.gens)
            proper += not G.is_unit()
        assert proper >= 10  # the sample is not all unit ideals


class TestMonomialBases:
    """Monomial generators skip the pair loop; the basis they give must be the
    one the pair loop gives, polynomials and packed reducers alike."""

    RINGS = [
        ("lex", None),
        ("grevlex", None),
        ("block", (("x", "y"), ("z", "w"))),
    ]

    @staticmethod
    def random_monomials(ring, rng):
        """Monomials with duplicates, coefficients other than 1, divisibility
        chains and, now and then, a constant."""
        gens = []
        for _ in range(rng.randrange(1, 6)):
            m = [rng.randrange(4) for _ in range(ring.nvars)]
            gens.append(Polynomial(ring, [(tuple(m), rng.randrange(1, ring.p))]))
            if rng.random() < 0.4:  # a multiple of it: a divisibility chain
                m[rng.randrange(ring.nvars)] += rng.randrange(1, 3)
                gens.append(Polynomial(ring, [(tuple(m), rng.randrange(1, ring.p))]))
        if rng.random() < 0.3:
            gens.append(rng.choice(gens))  # a duplicate
        if rng.random() < 0.1:
            gens.append(Polynomial.constant(ring, rng.randrange(1, ring.p)))
        rng.shuffle(gens)
        return gens

    @staticmethod
    def through_pair_loop(ring, gens, rng):
        """gens plus a redundant member that is not a monomial, so the basis
        of the same ideal comes out of Buchberger's pair loop."""
        variables = [Polynomial.variable(ring, v) for v in ring.variables]
        while True:
            a, b = rng.choice(gens), rng.choice(gens)
            h = a + rng.choice(variables) * b
            if not h.is_monomial():
                return Ideal(ring, gens + [h])

    @pytest.mark.parametrize("order,blocks", RINGS)
    def test_equals_the_pair_loop_basis(self, order, blocks):
        rng = random.Random(f"monomial {order}")
        for trial in range(40):
            ring = make_ring([2, 3, 5, 7][trial % 4], ["x", "y", "z", "w"], order, blocks)
            gens = self.random_monomials(ring, rng)
            G = Ideal(ring, gens).groebner_basis()
            reference = self.through_pair_loop(ring, gens, rng).groebner_basis()
            assert G.elements == reference.elements, gens
            assert G._reducers == reference._reducers, gens

    @pytest.mark.parametrize("order,blocks", RINGS)
    def test_the_ring_packed_prune_equals_the_lex_carry(self, order, blocks):
        # _pair_loop's seed prunes the ring's packed leading monomials as they
        # are; the reference is _carry's prune of the lcms with the unit ideal,
        # on the lex fields
        rng = random.Random(f"one factor {order}")
        duplicated = 0
        for trial in range(40):
            ring = make_ring([2, 3, 5, 7][trial % 4], ["x", "y", "z", "w"], order, blocks)
            gens = self.random_monomials(ring, rng)
            gens += rng.sample(gens, rng.randrange(len(gens) + 1))
            if rng.random() < 0.2:
                gens.append(Polynomial.monomial(ring, rng.sample([EXPONENT_LIMIT, 1, 0, 0], 4)))
            duplicated += len(set(gens)) < len(gens)
            mask = ring._packing._mask
            want = groebner._carry(ring, [[g._packed[0][0] & mask for g in gens]],
                                   lambda lex, kept, ms: [lex.lcm(a, b) for a in kept for b in ms])
            kept = groebner._minimal(ring._packing.guards, [g._packed[0][0] for g in gens])
            assert [(m, 1, ()) for m in kept] == want[1], gens
        assert duplicated >= 20
        assert groebner._minimal(ring._packing.guards, []) == []

    @pytest.mark.parametrize("order", ["lex", "grevlex"])
    def test_equals_sympy(self, order):
        rng = random.Random(f"monomial sympy {order}")
        for trial in range(20):
            ring = make_ring([2, 3, 5, 7][trial % 4], ["x", "y", "z"], order)
            I = Ideal(ring, self.random_monomials(ring, rng))
            assert I.groebner_basis().elements == TestSympyAgreement.sympy_basis(I, order), I

    def test_exponent_past_the_limit_raises(self):
        ring = make_ring(5, ["x", "y"])
        at_limit = Polynomial.monomial(ring, (EXPONENT_LIMIT, 0))
        assert Ideal(ring, [at_limit]).groebner_basis().elements == (at_limit,)
        with pytest.raises(ExponentOverflow):
            Polynomial(ring, [((0, EXPONENT_LIMIT + 1), 1)])


class TestF4:
    """Homogeneous generators, two or more of them not monomials, go to F4.
    Its basis must be the pair loop's, polynomials and packed reducers alike,
    and sympy's; its budgets and overflow checks must fire as the pair loop's
    do."""

    @staticmethod
    def engines(ring, gens):
        """Both engines' reduced bases, as (polynomials, packed reducers)."""
        f4 = groebner._f4(ring, gens)
        pair_loop = check_pair_loop(ring, gens)
        return [(groebner._basis_polys(ring, b), b) for b in (f4, pair_loop)]

    @staticmethod
    def triangle(rng):
        """Quadrics of F_5[x,y,z,w] leading at xy, yz and xz, so that all
        three pairwise lcms are xyz; random tails below yz."""
        ring = make_ring(5, ["x", "y", "z", "w"])
        below = [(0, 0, 2, 0), (1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 2)]
        gens = [
            Polynomial(ring, [(lead, 1)] + [(m, rng.randrange(1, 5)) for m in below
                                            if rng.random() < 0.6])
            for lead in [(1, 1, 0, 0), (0, 1, 1, 0), (1, 0, 1, 0)]
        ]
        return ring, gens

    def test_triangle(self):
        rng = random.Random("triangle")
        past_degree_2 = 0
        for _ in range(30):
            ring, gens = self.triangle(rng)
            (polys, reducers), (ref_polys, ref_reducers) = self.engines(ring, gens)
            assert polys == ref_polys and reducers == ref_reducers, gens
            assert Ideal(ring, gens).groebner_basis().elements == polys
            past_degree_2 += any(g.degree() > 2 for g in polys)
        assert past_degree_2 >= 20  # the pairs of lcm xyz matter

    def test_triangle_equals_sympy(self):
        rng = random.Random("triangle sympy")
        for _ in range(6):
            ring, gens = self.triangle(rng)
            polys = groebner._basis_polys(ring, groebner._f4(ring, gens))
            assert polys == TestSympyAgreement.sympy_basis(Ideal(ring, gens), "grevlex"), gens

    # 101 is the determinantal registry's prime; 2^31 - 1, the largest, takes
    # F4's widest slots
    PRIMES = [2, 3, 5, 7, 101, 2**31 - 1]

    @pytest.mark.parametrize("order,blocks", TestMonomialBases.RINGS)
    def test_random_homogeneous_equals_the_pair_loop(self, order, blocks):
        rng = random.Random(f"f4 {order}")
        for trial in range(42):
            ring = make_ring(self.PRIMES[trial % 6], ["x", "y", "z", "w"], order, blocks)
            gens = random_homogeneous(ring, rng)
            (polys, reducers), (ref_polys, ref_reducers) = self.engines(ring, gens)
            assert polys == ref_polys and reducers == ref_reducers, gens

    @pytest.mark.parametrize("order", ["lex", "grevlex"])
    def test_random_homogeneous_equals_sympy(self, order):
        rng = random.Random(f"f4 sympy {order}")
        for trial in range(18):
            ring = make_ring(self.PRIMES[trial % 6], ["x", "y", "z", "w"], order)
            gens = random_homogeneous(ring, rng)
            polys = groebner._basis_polys(ring, groebner._f4(ring, gens))
            assert polys == TestSympyAgreement.sympy_basis(Ideal(ring, gens), order), gens

    def test_engine_rule(self, monkeypatch):
        ran = []
        for name in ("_f4", "_pair_loop"):
            engine = getattr(groebner, name)
            monkeypatch.setattr(groebner, name, lambda r, g, *known, n=name, e=engine:
                                ran.append(n) or e(r, g, *known))
        ring = make_ring(5, ["x", "y", "z"])
        cases = [
            ("x*y - z^2, x*z + y^2", "_f4"),
            ("x*y - z^2, x^3, y*z^2", "_pair_loop"),  # one generator not a monomial
            ("x*y - z, x*z + y^2", "_pair_loop"),  # not homogeneous
        ]
        for text, engine in cases:
            ran.clear()
            Ideal(ring, parse_gens(ring, text)).groebner_basis()
            assert ran == [engine], text

    def test_budgets_fire(self):
        # the quadrics alone fill a matrix of at least 4 columns, and the
        # basis needs more than one pair
        ring, gens = self.triangle(random.Random(0))
        with pytest.raises(BudgetExceeded, match="1 S-pairs"), GroebnerBudget(max_pairs=1):
            Ideal(ring, gens).groebner_basis()
        with pytest.raises(BudgetExceeded, match="3 columns"), GroebnerBudget(max_poly_terms=3):
            Ideal(ring, gens).groebner_basis()

    def test_exponent_past_the_limit_raises(self):
        # the pair's multiple y * (x*y^N) leaves the exponent range
        N = EXPONENT_LIMIT
        ring = make_ring(5, ["x", "y"])
        gens = [Polynomial(ring, [((N, 1), 1), ((1, N), 1)]),
                Polynomial(ring, [((N - 1, 2), 1), ((2, N - 1), 1)])]
        for engine in (groebner._f4, groebner._pair_loop):
            with pytest.raises(ExponentOverflow):
                engine(ring, gens)

    # F4 keeps its monomial ids in one table per packing and thread, across
    # runs; the tests below start from an empty one

    @staticmethod
    def table(ring):
        """This thread's F4 monomial table of ring's packing, checked: every
        id maps back to its monomial, and each product recorded is the
        monomial times that variable."""
        table = vars(groebner._local)["tables"][ring._packing]
        assert table.packed[0] is None and len(table.packed) == len(table) + 1
        assert all(table[m] == i for i, m in enumerate(table.packed) if i)
        for t, unit in zip(table.times, ring._packing.units):
            assert len(t) == len(table.packed)
            assert all(table.packed[j] == table.packed[i] + unit for i, j in enumerate(t) if j)
        return table

    @pytest.mark.parametrize("order,blocks", TestMonomialBases.RINGS)
    def test_a_filled_table_gives_the_reference_bases(self, order, blocks, monkeypatch):
        monkeypatch.setattr(groebner, "_local", threading.local())
        rng = random.Random(f"f4 table {order}")
        ring = make_ring(101, ["x", "y", "z", "w"], order, blocks)
        first, sizes = None, []
        for _ in range(12):  # the first run fills the table, the others reuse it
            gens = random_homogeneous(ring, rng)
            assert groebner._f4(ring, gens) == reduced_pair_loop_reference(ring, gens), gens
            first = first or self.table(ring)
            assert self.table(ring) is first
            sizes.append(len(first))
        assert 0 < sizes[0] < sizes[-1]

    def test_an_overflow_enters_nothing_cold_or_warm(self, monkeypatch):
        # the pair's multiple y * (x*y^N) leaves the exponent range: the
        # first run meets it in an empty table, the second in a filled one
        monkeypatch.setattr(groebner, "_local", threading.local())
        N = EXPONENT_LIMIT
        ring = make_ring(5, ["x", "y"])
        gens = [Polynomial(ring, [((N, 1), 1), ((1, N), 1)]),
                Polynomial(ring, [((N - 1, 2), 1), ((2, N - 1), 1)])]
        messages, sizes = [], []
        for _ in range(2):
            with pytest.raises(ExponentOverflow) as raised:
                groebner._f4(ring, gens)
            messages.append(str(raised.value))
            table = self.table(ring)
            assert not any(m & ring._packing.guards for m in table.packed[1:])
            sizes.append(len(table))
        with pytest.raises(ExponentOverflow) as raised:
            groebner._pair_loop(ring, gens)
        assert messages == [str(raised.value)] * 2
        assert sizes[0] == sizes[1] > 0

    def test_a_table_past_the_bound_is_dropped(self, monkeypatch):
        monkeypatch.setattr(groebner, "_local", threading.local())
        ring, gens = self.triangle(random.Random("f4 bound"))
        want = groebner._f4(ring, gens)
        full = self.table(ring)
        with GroebnerBudget(max_poly_terms=len(full)):
            assert groebner._f4(ring, gens) == want
        assert self.table(ring) is full  # at the bound it stays
        with GroebnerBudget(max_poly_terms=len(full) - 1):
            assert groebner._f4(ring, gens) == want
        assert self.table(ring) is not full

    def test_a_run_renumbers_its_basis_past_the_bound(self, monkeypatch):
        # from an empty table, a bound below the monomials a run enters but
        # not below any degree's columns drops the table during the run
        rng = random.Random("f4 renumber")
        ring = make_ring(101, ["x", "y", "z", "w"])
        renumbered = 0
        for _ in range(6):
            gens = random_homogeneous(ring, rng)
            want = reduced_pair_loop_reference(ring, gens)
            monkeypatch.setattr(groebner, "_local", threading.local())
            assert groebner._f4(ring, gens) == want
            full = len(self.table(ring))
            for cap in range(full - 1, 0, -1):
                monkeypatch.setattr(groebner, "_local", threading.local())
                try:
                    with GroebnerBudget(max_poly_terms=cap):
                        assert groebner._f4(ring, gens) == want
                except BudgetExceeded:
                    break
                renumbered += len(self.table(ring)) < full
        assert renumbered >= 6

    def test_tables_of_other_rings_count_toward_the_bound(self, monkeypatch):
        monkeypatch.setattr(groebner, "_local", threading.local())
        rng = random.Random("f4 two rings")
        cases = [(ring, random_homogeneous(ring, rng)) for ring in (
            make_ring(101, ["x", "y", "z"]), make_ring(101, ["x", "y", "z", "w"]))]
        tables = vars(groebner._local).setdefault("tables", {})
        sizes = [groebner._f4(ring, gens) and len(self.table(ring)) for ring, gens in cases]
        for (ring, gens), size in zip(cases, sizes):
            for other, other_gens in cases:  # both tables full
                groebner._f4(other, other_gens)
            assert len(tables) == 2
            # a bound of this run's own monomials drops the other ring's table
            with GroebnerBudget(max_poly_terms=size):
                assert groebner._f4(ring, gens) == reduced_pair_loop_reference(ring, gens)
            assert list(tables) == [ring._packing] and len(self.table(ring)) == size

    def test_a_large_shift_enters_no_partial_products(self, monkeypatch):
        # the pair's lcm x^K*y^(K+1) gives the shifts y^K and x^K; stepping
        # them one variable at a time would enter about 4K monomials
        monkeypatch.setattr(groebner, "_local", threading.local())
        K = 10**6
        ring = make_ring(5, ["x", "y", "z"])
        gens = [Polynomial(ring, [((K, 1, 0), 1), ((0, 0, K + 1), 4)]),
                Polynomial(ring, [((0, K + 1, 0), 1), ((0, 0, K + 1), 4)])]
        start = time.perf_counter()
        assert groebner._f4(ring, gens) == reduced_pair_loop_reference(ring, gens)
        assert time.perf_counter() - start < 5
        assert len(self.table(ring)) < 50

    def test_threads_keep_their_own_tables(self):
        # four threads at once, switching often, each on its own table
        rng = random.Random("f4 threads")
        ring = make_ring(101, ["x", "y", "z", "w"])
        cases = [random_homogeneous(ring, rng) for _ in range(8)]
        want = [groebner._f4(ring, gens) for gens in cases]
        mine = self.table(ring)
        start = threading.Barrier(4, timeout=30)

        def run():
            start.wait()
            return [groebner._f4(ring, gens) for gens in cases], self.table(ring)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                results = [f.result(timeout=60) for f in [pool.submit(run) for _ in range(4)]]
        finally:
            sys.setswitchinterval(interval)
        assert all(got == want for got, _ in results)
        assert len({id(table) for _, table in results} | {id(mine)}) == 5
        assert self.table(ring) is mine


class TestDivisorIndex:
    """_nf_terms' divisor index must find the first divisor in basis order,
    as the linear scan does. So with the index on for every basis (cutoff 0)
    and on for none (a cutoff no basis reaches), every reduction path is the
    same: the pair loop's elements before inter-reduction, the reduced
    bases, the pairs each run selects, and the normal forms against reducer
    lists that are no Groebner basis, where only the order of the divisors
    fixes the remainder."""

    CUTOFFS = (0, 10**9)

    @staticmethod
    def on_and_off(monkeypatch, call):
        """call() under each cutoff, with the S-pairs each Groebner run in it
        selected and every normal form _nf_terms returned."""
        runs, forms, nf_terms = [], [], groebner._nf_terms

        class Pairs(groebner._Pairs):
            __slots__ = ()

            def __init__(self, packing):
                super().__init__(packing)
                runs.append(self)

        def recorded(*args):
            forms.append(nf_terms(*args))
            return forms[-1]

        monkeypatch.setattr(groebner, "_Pairs", Pairs)
        monkeypatch.setattr(groebner, "_nf_terms", recorded)
        out = []
        for cutoff in TestDivisorIndex.CUTOFFS:
            monkeypatch.setattr(groebner, "INDEX_MIN_ELEMENTS", cutoff)
            runs.clear()
            forms.clear()
            result = call()
            out.append((result, [r.selected for r in runs], list(forms)))
        return out

    @staticmethod
    def bases(ring, gens):
        """The pair loop's elements, the reduced ones, and the basis of a
        fresh ideal: polynomials and packed reducers."""
        G = Ideal(ring, gens).groebner_basis()
        return groebner._pair_loop(ring, gens), check_pair_loop(ring, gens), G.elements, G._reducers

    @pytest.mark.parametrize("over", ["S", "S/(f)"])
    def test_bases_and_pairs(self, over, monkeypatch):
        # Under grevlex the pair loop's remainders seldom depend on the
        # divisor (least lcm first, its basis is close to a truncated
        # Groebner basis), so a wrong divisor shows in the lex and block runs.
        selected = 0
        for order, blocks in TestMonomialBases.RINGS:
            rng = random.Random(f"divisor index {order} {over}")
            for trial in range(30):
                ring = make_ring([2, 3, 5, 7][trial % 4], ["x", "y", "z", "w"], order, blocks)
                # inside the maximal ideal, so that few of them are the unit ideal
                I = random_ideal_in_max(ring, rng, max_gens=4, max_deg=4, max_terms=4)
                if over == "S/(f)":
                    (f,) = random_ideal_in_max(ring, rng, max_gens=1, max_deg=3, max_terms=3).gens
                    I = Ideal(HypersurfaceRing(ring, f), I.gens)
                gens = I.preimage.gens
                (on, *paths_on), (off, *paths_off) = self.on_and_off(
                    monkeypatch, lambda: self.bases(ring, gens))
                assert on == off and paths_on == paths_off, (order, gens)
                if order != "block" and trial % 5 == 0:
                    assert on[2] == TestSympyAgreement.sympy_basis(Ideal(ring, gens), order), gens
                selected += sum(paths_on[0])
        assert selected >= 500  # the pair loops run long enough to matter

    @pytest.mark.parametrize("order,blocks", TestMonomialBases.RINGS)
    @pytest.mark.parametrize("q", [1, 5**7])
    def test_normal_forms_against_lists(self, order, blocks, q, monkeypatch):
        # q = 5^7 takes bracket powers, whose exponents pass 2^16; the map
        # m -> m^q keeps order and divisibility, so the reductions are alike
        rng = random.Random(f"index normal forms {order} {q}")
        ring = make_ring(5, ["x", "y", "z", "w"], order, blocks)

        def make():
            g = random_poly(ring, rng, max_deg=4, max_terms=4, nonzero=True)
            return g if q == 1 else g.frobenius(7)

        moved = 0
        for _ in range(40):
            reducers = [make() for _ in range(rng.randrange(2, 8))]
            f = make() * make()
            (on, _, _), (off, _, _) = self.on_and_off(monkeypatch, lambda: normal_form(f, reducers))
            # a plain list of triples takes the scan at any cutoff
            scan = groebner._nf_terms(ring, f._packed, list(groebner._as_reducers(ring, reducers)))
            assert on == off == Polynomial._from_packed(ring, scan), (f, reducers)
            moved += on != normal_form(f, reducers[::-1])
        assert moved >= 5  # the order of the reducers decides these remainders

    def test_exponent_overflow(self, monkeypatch):
        # x*y has two divisors: x*y + w leaves -w; x + y^N leaves -y^(N+1),
        # past the limit. Which one comes first decides.
        N = EXPONENT_LIMIT
        ring = make_ring(5, ["x", "y", "w"], "lex")
        xy, x_first = parse_poly(ring, "x*y"), parse_poly(ring, f"x + y^{N}")
        for cutoff in self.CUTOFFS:
            monkeypatch.setattr(groebner, "INDEX_MIN_ELEMENTS", cutoff)
            assert normal_form(xy, [xy + parse_poly(ring, "w"), x_first]) == parse_poly(ring, "-w")
            with pytest.raises(ExponentOverflow):
                normal_form(xy, [x_first, xy + parse_poly(ring, "w")])


class TestOneTermPath:
    """A single term reduced against a scanned basis is chased without the
    dict and heap while every reducer that fires has at most one tail term.
    Its remainder, and every other normal form, must be the plain reference
    reduction's, against bases whose tails have 0, 1 and 2 or more terms,
    scanned (fewer than INDEX_MIN_ELEMENTS) or indexed."""

    RINGS = [("lex", None), ("grevlex", None), ("block", (("x", "y"), ("z", "w")))]

    @staticmethod
    def poly(ring, rng, nterms):
        """A polynomial of exactly nterms distinct monomials of degree <= 3."""
        monos = set()
        while len(monos) < nterms:
            monos.add(tuple(rng.randrange(3) if rng.random() < 0.5 else 0 for _ in ring.variables))
        return Polynomial(ring, [(m, rng.randrange(1, ring.p)) for m in monos])

    @pytest.mark.parametrize("order,blocks", RINGS)
    @pytest.mark.parametrize("size", [3, 12, groebner.INDEX_MIN_ELEMENTS + 5])
    def test_agrees_with_the_reference(self, order, blocks, size):
        rng = random.Random(f"one term {order} {size}")
        chased = zero = handed_on = 0
        for trial in range(40):
            ring = make_ring([2, 3, 5, 7][trial % 4], ["x", "y", "z", "w"], order, blocks)
            # mostly binomials, so that chains run long, then monomials and longer tails
            tails = [rng.choice([0, 1, 1, 1, 2, 3]) for _ in range(size)]
            reducers = groebner._as_reducers(ring, [self.poly(ring, rng, 1 + t) for t in tails])
            for _ in range(10):
                f = self.poly(ring, rng, 1 if rng.random() < 0.8 else 2)
                coeff = rng.randrange(1, 3 * ring.p)  # _frontier_depth passes unreduced products
                terms = [(m, c * coeff) for m, c in f._packed]
                got = groebner._nf_terms(ring, terms, reducers)
                assert got == nf_reference(ring, terms, reducers), (f, reducers)
                assert got == groebner._nf_terms(ring, terms, list(reducers))  # the scan
                if len(terms) == 1:
                    chased += 1
                    zero += not got
                    first = next((tail for lm, _, tail in reducers
                                  if not (terms[0][0] - lm) & ring._packing.guards), ())
                    handed_on += len(first) > 1
        assert chased >= 250 and zero >= 10 and handed_on >= 10, (chased, zero, handed_on)

    @pytest.mark.parametrize("order,blocks", RINGS)
    def test_exponent_overflow(self, order, blocks):
        # x*y^N against x - y leaves y^(N+1), past the limit: on the one-term
        # path, handed on by a longer tail, and through the divisor index
        N = EXPONENT_LIMIT
        ring = make_ring(5, ["x", "y", "z", "w"], order, blocks)
        x, y, w = (Polynomial.variable(ring, v) for v in "xyw")
        f = Polynomial.monomial(ring, (1, N, 0, 0), 3)
        for reducers in ([x - y], [x - y - w], [x - y] * groebner.INDEX_MIN_ELEMENTS):
            packed = groebner._as_reducers(ring, reducers)
            with pytest.raises(ExponentOverflow):
                nf_reference(ring, f._packed, packed)
            with pytest.raises(ExponentOverflow):
                groebner._nf_terms(ring, f._packed, packed)
        # a given term past the limit raises before any reduction
        with pytest.raises(ExponentOverflow):
            groebner._nf_terms(ring, [(ring._packing.units[1] << 31, 1)], [])


class TestPairs:
    """_Pairs runs the Gebauer-Moller update on exponent fields. Replayed
    through it and the tuple reference, a sequence of leading monomials with
    pops in between must queue the same pairs, select them in the same order
    and leave the same active elements."""

    @pytest.mark.parametrize("nvars", [2, 3, 4, 5])
    @pytest.mark.parametrize("order", ["lex", "grevlex", "block"])
    def test_replay_matches_the_tuple_reference(self, order, nvars):
        rng = random.Random(f"pairs {order} {nvars}")
        names = list("xyzwv"[:nvars])
        blocks = (names[: nvars // 2], names[nvars // 2:]) if order == "block" else None
        ring = make_ring(5, names, order, blocks)
        huge = (EXPONENT_LIMIT, EXPONENT_LIMIT - 1, 1 << 30)
        popped = 0
        for _ in range(40):
            top = rng.choice([2, 3, 4])
            ours, ref = (cls(ring._packing) for cls in (groebner._Pairs, PairsReference))
            for _ in range(rng.randrange(2, 25)):
                e = [rng.choice(huge) if rng.random() < 0.05 else rng.randrange(top) for _ in names]
                lm, monomial = ring._packing.pack(e), rng.random() < 0.3
                ours.add(lm, monomial)
                ref.add(lm, monomial)
                assert sorted(ours.queue) == sorted(ref.queue) and ours.active == ref.active
                for _ in range(min(rng.randrange(3), len(ref.queue))):
                    assert ours.pop() == ref.pop()
                    popped += 1
            while ref.queue:
                assert ours.pop() == ref.pop()
                popped += 1
            assert not ours.queue and ours.active == ref.active
        assert popped >= 100  # the criteria leave pairs to select

    @pytest.mark.parametrize("nvars", [2, 3, 4])
    @pytest.mark.parametrize("order", ["lex", "grevlex", "block"])
    def test_monomial_heavy_replay(self, order, nvars):
        # most adds are monomials, which queue no pair with a monomial; small
        # exponents give many equal and nested lcms, a few are near the limit
        rng = random.Random(f"monomial pairs {order} {nvars}")
        names = list("xyzw"[:nvars])
        blocks = (names[: nvars // 2], names[nvars // 2:]) if order == "block" else None
        ring = make_ring(3, names, order, blocks)
        huge = (EXPONENT_LIMIT, EXPONENT_LIMIT - 1, EXPONENT_LIMIT // 2)
        queued = tied = nested = 0
        for _ in range(60):
            ours, ref = (cls(ring._packing) for cls in (groebner._Pairs, PairsReference))
            for _ in range(rng.randrange(3, 30)):
                e = [rng.choice(huge) if rng.random() < 0.05 else rng.randrange(3) for _ in names]
                lm, monomial = ring._packing.pack(e), rng.random() < 0.8
                if monomial:  # how the lcms of the pairs it may queue meet the others'
                    lcms = {i: tuple(map(max, ref.exps[i], e)) for i in ref.active}
                    for i in (i for i in ref.active if not ref.monomial[i]):
                        others = [lcms[j] for j in ref.active if j != i]
                        tied += lcms[i] in others
                        nested += any(o != lcms[i] and all(map(int.__le__, o, lcms[i]))
                                      for o in others)
                before = len(ref.queue)
                ours.add(lm, monomial)
                ref.add(lm, monomial)
                queued += monomial and len(ref.queue) > before
                assert sorted(ours.queue) == sorted(ref.queue) and ours.active == ref.active
                for _ in range(min(rng.randrange(3), len(ref.queue))):
                    assert ours.pop() == ref.pop()
            while ref.queue:
                assert ours.pop() == ref.pop()
        assert queued >= 20 and tied >= 20 and nested >= 20, (queued, tied, nested)

    def test_a_monomial_queues_no_pair_with_a_monomial(self):
        # seeded x*y and x*z^2 (not monomials), z^3 and w^3 (monomials), then
        # the monomial y^2: lcm(x*z^2, y^2) = x*y^2*z^2 is a multiple of
        # x*y^2, whose pair comes first, and y^2 makes no pair with z^3 or
        # w^3, so (0, 4) alone is queued
        ring = make_ring(5, ["x", "y", "z", "w"])
        pack = ring._packing.pack
        pairs = groebner._Pairs(ring._packing)
        seed = [(1, 1, 0, 0), (1, 0, 2, 0), (0, 0, 3, 0), (0, 0, 0, 3)]
        pairs.seed([pack(e) for e in seed], [False, False, True, True])
        pairs.add(pack((0, 2, 0, 0)), True)
        assert [q[2:] for q in pairs.queue] == [(0, 4)]
        # the pair of the monomials x*z and x*y is not queued, yet its lcm
        # x*y*z still removes (y*z^2, x*y), whose lcm is a multiple of it
        pairs = groebner._Pairs(ring._packing)
        pairs.seed([pack((1, 0, 1, 0)), pack((0, 1, 2, 0))], [True, False])
        pairs.add(pack((1, 1, 0, 0)), True)
        assert pairs.queue == []

    def test_lockstep_with_the_reference_at_cli_scale(self, monkeypatch):
        # the replays above stop at 30 adds; I_3(m) of the F5 cone makes
        # hundreds, against up to 256 active elements, with many equal and
        # nested lcms
        sizes = []

        class Lockstep(groebner._Pairs):
            """Every seed, add and pop mirrored into PairsReference, and the
            queue, the active list and the popped pair compared after each."""

            def __init__(self, packing):
                super().__init__(packing)
                self.ref = PairsReference(packing)

            def check(self):
                assert sorted(self.queue) == sorted(self.ref.queue)
                assert self.active == self.ref.active

            def seed(self, lms, monomial):
                super().seed(lms, monomial)
                ref = self.ref  # a seed is all active, with no pair queued
                ref.lms, ref.monomial, ref.active = list(lms), list(monomial), list(self.active)
                ref.exps = [self.packing.unpack(lm) for lm in lms]
                self.check()

            def add(self, lm, monomial):
                super().add(lm, monomial)
                self.ref.add(lm, monomial)
                self.check()
                sizes.append(len(self.active))

            def pop(self):
                popped = super().pop()
                assert popped == self.ref.pop()
                self.check()
                return popped

        monkeypatch.setattr(groebner, "_Pairs", Lockstep)
        S = make_ring(5, ["x", "y", "z"])
        Ie = Ie_maximal(HypersurfaceRing(S, parse_poly(S, "x*y - z^2")), 3)
        assert len(Ie.gens) > 100
        assert len(sizes) >= 250 and max(sizes) >= 200, (len(sizes), max(sizes))


class TestSeededPairLoop:
    """The pair loop starts from a seed it queues no pair inside: the minimal
    monomial generators, or a reduced basis passed as known. Its reduced basis
    must be the reference pair loop's, which adds every generator in turn,
    wherever the monomials sit among the generators."""

    @pytest.mark.parametrize("order,blocks", TestMonomialBases.RINGS)
    def test_monomials_anywhere(self, order, blocks):
        rng = random.Random(f"seeded monomials {order}")
        seeded = 0
        for trial in range(30):
            ring = make_ring([2, 3, 5, 7][trial % 4], ["x", "y", "z", "w"], order, blocks)
            gens = TestMonomialBases.random_monomials(ring, rng)
            while all(g.is_monomial() for g in gens):
                gens += random_ideal_in_max(ring, rng, max_gens=3, max_deg=3).gens
            rng.shuffle(gens)
            reduced = check_pair_loop(ring, gens)
            first = next(i for i, g in enumerate(gens) if not g.is_monomial())
            # a monomial after a polynomial, in an ideal other than (1)
            seeded += any(g.is_monomial() for g in gens[first:]) and reduced[0][0] != 0
        assert seeded >= 15

    @pytest.mark.parametrize("order,blocks", TestMonomialBases.RINGS)
    def test_known_reduced_basis(self, order, blocks):
        # the basis of (A + B) from A's reduced basis as known and B's
        # generators, against the reference on A's and B's generators
        rng = random.Random(f"seeded known {order}")
        for trial in range(30):
            ring = make_ring([2, 3, 5, 7][trial % 4], ["x", "y", "z", "w"], order, blocks)
            A = random_ideal_in_max(ring, rng, max_gens=3, max_deg=3)
            B = list(random_ideal_in_max(ring, rng, max_gens=2, max_deg=3).gens)
            known = A.groebner_basis().elements
            basis = groebner._pair_loop(ring, B, known)
            reduced = groebner._reduce_basis(ring, basis)
            assert reduced == reduced_pair_loop_reference(ring, list(A.gens) + B), (A, B)
            polys, _ = groebner._buchberger(ring, B, 0, known)
            assert polys == Ideal(ring, list(A.gens) + B).groebner_basis().elements


class TestBatchedSubset:
    """ideal_subset on random batches of homogeneous generators must decide
    as a loop over ideal_member does, with the same witness: the first
    generator outside, in I.gens order. Its verdict must also agree with the
    basis of I + J, which equals J's exactly when I lies in J."""

    @staticmethod
    def reference(I, J):
        for g in I.gens:
            if not ideal_member(g, J):
                return False, g
        return True, None

    @staticmethod
    def form(ring, rng, degree):
        terms = []
        for _ in range(rng.randrange(1, 4)):
            m = [0] * ring.nvars
            for _ in range(degree):
                m[rng.randrange(ring.nvars)] += 1
            terms.append((tuple(m), rng.randrange(1, ring.p)))
        return Polynomial(ring, terms)

    @classmethod
    def batch(cls, J, rng):
        """Generators of degrees 2 to 4: members (sums of forms times
        generators of J's preimage), forms that are mostly not members, and
        with a third of the cases only members."""
        S = J.ring.ambient
        basis = J.preimage.gens
        only_members = rng.random() < 0.35
        gens = []
        for _ in range(rng.randrange(2, 8)):
            degree = rng.randrange(2, 5)
            if only_members or rng.random() < 0.5:
                f = Polynomial.zero(S)
                for g in rng.sample(basis, min(len(basis), 2)):
                    if g.degree() <= degree:
                        f = f + cls.form(S, rng, degree - g.degree()) * g
            else:
                f = cls.form(S, rng, degree)
            gens.append(f)
        return Ideal(J.ring, gens)

    def check(self, J, rng):
        """Decide a random batch against J and return whether it holds."""
        J.groebner_basis()
        I = self.batch(J, rng)
        verdict = ideal_subset(I, J)
        assert verdict == self.reference(I, J), (I, J)
        both = Ideal(J.ring, J.gens + I.gens)
        assert verdict[0] == (both.groebner_basis() == J.groebner_basis()), (I, J)
        return verdict[0]

    @pytest.mark.parametrize("order,blocks", TestMonomialBases.RINGS)
    def test_agrees_with_the_membership_loop(self, order, blocks):
        rng = random.Random(f"batched subset {order}")
        outside = 0
        for trial in range(40):
            ring = make_ring([2, 3, 5, 7][trial % 4], ["x", "y", "z", "w"], order, blocks)
            outside += not self.check(Ideal(ring, random_homogeneous(ring, rng)), rng)
        assert 10 <= outside <= 30

    @pytest.mark.parametrize("k", [2, 3])
    def test_agrees_over_the_cone(self, k):
        # the preimage of an ideal of F_p[x,y,z]/(xy - z^k) holds xy - z^k,
        # homogeneous for k = 2 only
        rng = random.Random(f"batched subset cone {k}")
        outside = 0
        for trial in range(30):
            S = make_ring([2, 3, 5, 7][trial % 4], ["x", "y", "z"])
            R = HypersurfaceRing(S, parse_poly(S, f"x*y - z^{k}"))
            outside += not self.check(Ideal(R, random_homogeneous(S, rng)), rng)
        assert 5 <= outside <= 25

    @pytest.mark.parametrize("p", [2, 5, 7])
    def test_random_ideals_against_the_membership_loop(self, p):
        # random I and J over S and S/(f), each the zero ideal one time in
        # five; J's basis is seldom all monomials, so most take the normal forms
        rng = random.Random(f"subset loop {p}")
        outside = inside = 0
        for R in rings(p):
            S = R.ambient
            for trial in range(25):
                I, J = (Ideal(R) if rng.random() < 0.2 else Ideal(R, random_ideal(
                    S, rng, max_gens=4, max_terms=3).gens) for _ in range(2))
                if rng.random() < 0.3:  # members of J beside others
                    I = Ideal(R, [g * random_poly(S, rng, nonzero=True) for g in J.gens] + list(I.gens))
                verdict = ideal_subset(I, J)
                assert verdict == self.reference(I, J), (I, J)
                outside += not verdict[0]
                inside += verdict[0] and bool(I.gens)
        assert outside >= 20 and inside >= 10, (outside, inside)

    def test_budget_and_overflow(self):
        ring = make_ring(5, ["x", "y", "z"])
        J = Ideal(ring, parse_gens(ring, "y^2 - x*z, x*y - z^2"))
        I = Ideal(ring, parse_gens(ring, "x^3*y - x^2*z^2, y^4, x*y*z^2"))
        # J's basis is an F4 run, whose matrices pass 3 columns
        with pytest.raises(BudgetExceeded, match="3 columns"), GroebnerBudget(max_poly_terms=3):
            ideal_subset(I, J)
        # clearing y^2 from y^2*z^N leaves x*z^(N+1), clearing x*y from x*y*z^N z^(N+2)
        N = EXPONENT_LIMIT
        I = Ideal(ring, [Polynomial.monomial(ring, (0, 2, N)), Polynomial.monomial(ring, (1, 1, N))])
        with pytest.raises(ExponentOverflow):
            ideal_subset(I, J)

    def test_inhomogeneous_basis_takes_the_loop(self):
        S = make_ring(5, ["x", "y", "z"])
        R = HypersurfaceRing(S, parse_poly(S, "x*y - z^3"))
        J = Ideal(R, parse_gens(S, "x + y"))  # basis x + y, y^2 + z^3
        I = Ideal(R, parse_gens(S, "x^2 - y^2, x*z + y*z, z^2"))
        assert ideal_subset(I, J) == (False, I.gens[2])


class TestMonomialSubset:
    """ideal_subset against a reduced basis of monomials is one divisibility
    pass over I's generators. Its verdict and witness must be those of the
    loop over ideal_member, and of normal forms, which reduce instead."""

    @staticmethod
    def by_normal_form(I, J):
        G = J.groebner_basis()
        bad = next((g for g in I.gens if normal_form(g, G)), None)
        return bad is None, bad

    @staticmethod
    def batch(J, rng):
        """Monomials and polynomials, some multiples of J's generators and of
        the relations, so that some batches lie inside."""
        S = J.ring.ambient
        multiples = [g * Polynomial.monomial(S, [rng.randrange(3) for _ in range(S.nvars)])
                     for g in J.preimage.gens]
        gens = []
        for _ in range(rng.randrange(1, 6)):
            if multiples and rng.random() < 0.6:
                f = rng.choice(multiples)
                if rng.random() < 0.3:
                    f = f + rng.choice(multiples)
            else:
                f = random_poly(S, rng, max_deg=3, max_terms=rng.choice([1, 1, 2]))
            gens.append(f)
        return Ideal(J.ring, gens)

    def check(self, I, J):
        verdict = ideal_subset(I, J)
        assert verdict == TestBatchedSubset.reference(I, J) == self.by_normal_form(I, J), (I, J)
        return verdict[0]

    @pytest.mark.parametrize("order,blocks", TestMonomialBases.RINGS)
    def test_agrees_with_the_membership_loop(self, order, blocks):
        rng = random.Random(f"monomial subset {order}")
        inside = 0
        for trial in range(60):
            ring = make_ring([2, 3, 5, 7][trial % 4], ["x", "y", "z", "w"], order, blocks)
            J = Ideal(ring, TestMonomialBases.random_monomials(ring, rng))
            assert J.groebner_basis()._monomial_lms() is not False
            inside += self.check(self.batch(J, rng), J)
        assert 10 <= inside <= 50

    def test_over_a_monomial_hypersurface(self):
        # f = x*y^2 is a monomial, so the preimage of an ideal of monomials
        # has a basis of monomials, and f's multiples lie in every ideal
        rng = random.Random("monomial subset over S/(x*y^2)")
        S = make_ring(3, ["x", "y", "z"])
        R = HypersurfaceRing(S, parse_poly(S, "x*y^2"))
        inside = 0
        for trial in range(40):
            J = Ideal(R, TestMonomialBases.random_monomials(S, rng)[:rng.randrange(3)])
            assert J.groebner_basis()._monomial_lms() is not False
            inside += self.check(self.batch(J, rng), J)
        assert 5 <= inside <= 35
        f_multiple = parse_poly(S, "x^2*y^2*z + x*y^3")
        assert ideal_subset(Ideal(R, [f_multiple]), Ideal(R)) == (True, None)

    def test_zero_ideals(self):
        S = make_ring(5, ["x", "y", "z"])
        I = Ideal(S, parse_gens(S, "x*y, y + z"))
        assert ideal_subset(I, Ideal(S)) == (False, I.gens[0])
        J = Ideal(S, parse_gens(S, "x, y^2"))
        assert ideal_subset(Ideal(S), J) == (True, None)
        assert J._gb is None  # no generators to test: J's basis is not computed
        assert ideal_subset(Ideal(S), Ideal(S)) == (True, None)


class TestIndexedFirstOutside:
    """_first_outside takes the divisor index of a monomial basis from
    INDEX_MIN_ELEMENTS leading monomials up, and scans below. The first
    polynomial outside must be the plain scan's on both sides of the cutoff,
    with either path forced on the same basis, and with exponents past 2^16
    and at EXPONENT_LIMIT."""

    DEGREE_6 = [e for e in itertools.product(range(7), repeat=4) if sum(e) == 6]  # 84

    @staticmethod
    def scan(polys, lms, guards):
        """The first of polys with a term that none of lms divides."""
        return next((f for f in polys if any(all((m - lm) & guards for lm in lms)
                                             for m, _ in f._packed)), None)

    def probe(self, ring, rng, lms_exps, scale):
        """A polynomial of one to three terms, most of them multiples of a
        basis monomial, the others anywhere below the basis degree or at the
        exponent limit."""
        f = Polynomial.zero(ring)
        for _ in range(rng.randrange(1, 4)):
            if rng.random() < 0.85:
                e = [a + (rng.randrange(3) if a < EXPONENT_LIMIT else 0) for a in rng.choice(lms_exps)]
            elif rng.random() < 0.8:
                e = [rng.randrange(6 * scale) for _ in range(4)]
            else:
                e = rng.sample([EXPONENT_LIMIT, rng.randrange(3), 0, 0], 4)
            f = f + Polynomial.monomial(ring, e, rng.randrange(1, ring.p))
        return f

    @pytest.mark.parametrize("order,blocks", TestMonomialBases.RINGS)
    def test_agrees_with_the_scan(self, order, blocks, monkeypatch):
        rng = random.Random(f"indexed first outside {order}")
        cutoff = groebner.INDEX_MIN_ELEMENTS
        sizes, outside, inside = set(), 0, 0
        for trial in range(60):
            ring = make_ring([2, 3, 5, 7][trial % 4], ["x", "y", "z", "w"], order, blocks)
            scale = [1, 5**7][trial % 2]  # 5^7 > 2^16
            k = rng.choice([5, cutoff - 2, cutoff - 1, cutoff, cutoff + 1, 84])
            gens = [Polynomial.monomial(ring, [a * scale for a in e], rng.randrange(1, ring.p))
                    for e in rng.sample(self.DEGREE_6, k)]
            if trial % 3 == 0:
                gens.append(Polynomial.monomial(ring, rng.sample([EXPONENT_LIMIT, 0, 0, 0], 4)))
            G = Ideal(ring, gens).groebner_basis()
            lms = G._monomial_lms()
            sizes.add(len(lms) >= cutoff)
            lms_exps = [ring._packing.unpack(m) for m in lms]
            polys = [f for f in (self.probe(ring, rng, lms_exps, scale) for _ in range(6)) if f]
            want = self.scan(polys, lms, ring._packing.guards)
            outside += want is not None
            inside += want is None
            assert groebner._first_outside(polys, G) is want, (gens, polys)
            for forced in (0, 10**9):
                monkeypatch.setattr(groebner, "INDEX_MIN_ELEMENTS", forced)
                assert groebner._first_outside(polys, G) is want, (forced, gens, polys)
            monkeypatch.setattr(groebner, "INDEX_MIN_ELEMENTS", cutoff)
        assert sizes == {False, True} and outside >= 15 and inside >= 10

    def test_the_index_is_built_once_per_basis(self, monkeypatch):
        # membership tests against one basis of 84 monomials: the index of its
        # reducers is built by the first and read by every later one
        builds = []
        divisor_index = groebner._Reducers.divisor_index

        def spy(self, packing):
            builds.append(self._masks is None or self._indexed < len(self))
            return divisor_index(self, packing)

        monkeypatch.setattr(groebner._Reducers, "divisor_index", spy)
        ring = make_ring(5, ["x", "y", "z", "w"])
        J = Ideal(ring, [Polynomial.monomial(ring, e) for e in self.DEGREE_6])
        rng = random.Random("index built once")
        probes = [Polynomial.monomial(ring, [rng.randrange(5) for _ in range(4)]) for _ in range(30)]
        verdicts = [ideal_member(f, J) for f in probes]
        assert verdicts == [sum(f.lead_monomial()) >= 6 for f in probes]
        assert ideal_subset(Ideal(ring, probes), J)[0] == all(verdicts)
        assert len(builds) >= 31 and builds.count(True) == 1


class TestVariablePowerIntersection:
    """The intersection of powers of primes generated by variables, by degree
    completion, must be the basis of the minimal lcms of each kept monomial
    with every monomial of each P^n, polynomials and packed reducers alike."""

    @staticmethod
    def power(ring, indices, n):
        """P^n as the list of its degree-n monomials in P's variables."""
        return [Polynomial.monomial(ring, [c.count(i) for i in range(ring.nvars)])
                for c in itertools.combinations_with_replacement(sorted(indices), n)]

    @pytest.mark.parametrize("order", ["lex", "grevlex", "block"])
    def test_agrees_with_the_lcm_products(self, order):
        rng = random.Random(f"variable powers {order}")
        for trial in range(40):
            nvars = 3 + trial % 4
            names = [f"x{i}" for i in range(nvars)]
            blocks = (names[:nvars // 2], names[nvars // 2:]) if order == "block" else None
            ring = make_ring([2, 3, 5][trial % 3], names, order, blocks)
            n = 1 + trial % 8
            sets = [set(rng.sample(range(nvars), rng.randrange(1, min(nvars, 4) + 1)))
                    for _ in range(rng.randrange(1, 4))]
            expected = groebner._minimal_monomials(ring, *(self.power(ring, s, n) for s in sets))
            assert groebner._intersect_variable_powers(ring, sets, n) == expected, (sets, n)

    def test_no_primes_give_the_unit_ideal(self):
        ring = make_ring(2, ["x", "y"])
        polys, reduced = groebner._intersect_variable_powers(ring, [], 3)
        assert polys == (Polynomial.one(ring),) and reduced == [(0, 1, ())]


@st.composite
def small_generators(draw):
    """One to three term lists over x, y, z: exponents at most 2, one to
    three terms, coefficients mod 5."""
    exponent = st.tuples(*[st.integers(0, 2)] * 3)
    term = st.tuples(exponent, st.integers(1, 4))
    return draw(st.lists(st.lists(term, min_size=1, max_size=3), min_size=1, max_size=3))


class TestBasisProperties:
    @settings(max_examples=40, deadline=None)
    @given(small_generators())
    def test_lex_and_grevlex_bases_generate_one_ideal(self, gens):
        ideals = [Ideal(ring, [Polynomial(ring, g) for g in gens])
                  for ring in (make_ring(5, "xyz", "lex"), make_ring(5, "xyz", "grevlex"))]
        for A, B in (ideals, ideals[::-1]):
            for g in A.groebner_basis():
                assert ideal_member(Polynomial(B.ring, g.terms), B), (gens, g)

    @settings(max_examples=40, deadline=None)
    @given(small_generators(), st.randoms(use_true_random=False))
    def test_duplicated_generators_leave_the_reduced_basis(self, gens, rnd):
        for order in ("lex", "grevlex"):
            ring = make_ring(5, "xyz", order)
            polys = [Polynomial(ring, g) for g in gens]
            more = polys + [rnd.choice(polys) for _ in range(rnd.randrange(1, 4))]
            rnd.shuffle(more)
            assert Ideal(ring, more).groebner_basis() == Ideal(ring, polys).groebner_basis(), gens


class TestOwnedObjects:
    """An ideal computes its basis, its preimage and its powers once."""

    def test_preimage_over_S_is_the_ideal(self, F5xyz):
        I = Ideal(F5xyz, parse_gens(F5xyz, "x*y - z, x^2"))
        assert I.preimage is I
        assert I.groebner_basis() is I.preimage.groebner_basis()

    @pytest.mark.parametrize("first", ["ideal", "preimage"])
    def test_preimage_over_S_mod_f_shares_the_basis(self, F5xyz, first):
        from froblab import HypersurfaceRing

        R = HypersurfaceRing(F5xyz, parse_poly(F5xyz, "x*y - z^2"))
        Q = Ideal(R, parse_gens(F5xyz, "x, z"))
        assert Q.preimage is Q.preimage and Q.preimage.ring == F5xyz
        G = Q.groebner_basis() if first == "ideal" else Q.preimage.groebner_basis()
        assert Q.groebner_basis() is G and Q.preimage.groebner_basis() is G
        # a basis attached to either is the basis of both
        P = Ideal(R, parse_gens(F5xyz, "x"))
        P.with_gb(G)
        assert P.preimage.groebner_basis() is G

    def test_powers_are_built_once(self, F5xyz):
        I = Ideal(F5xyz, parse_gens(F5xyz, "x + y, z^2"))
        cube = ideal_power(I, 3)
        assert ideal_power(I, 3) is cube
        assert ideal_power(I, 1) is I
        assert ideal_power(I, 2).gens == ideal_power(Ideal(F5xyz, I.gens), 2).gens
        assert ideal_power(I, 0).groebner_basis().is_unit()
        G = cube.groebner_basis()
        assert ideal_power(I, 3).groebner_basis() is G

    def test_monomial_levels_get_no_ideal_until_asked(self, F5xyz, monkeypatch):
        # I^7 builds the packed levels I^2..I^7 but makes the Ideal of I^7
        # alone; I^3 then takes its level as built, and stays one object
        from froblab import idealops

        made = []
        monkeypatch.setattr(idealops, "Ideal", lambda ring, gens=(): made.append(gens) or Ideal(ring, gens))
        I = Ideal(F5xyz, parse_gens(F5xyz, "x*y, 2*y*z, x^3"))
        seventh = ideal_power(I, 7)
        assert len(made) == 1 and len(I._powers[1]) == 6
        cube = ideal_power(I, 3)
        assert ideal_power(I, 3) is cube and ideal_power(I, 7) is seventh
        assert len(made) == 2 and len(I._powers[1]) == 6

    @pytest.mark.parametrize("order,blocks", TestMonomialBases.RINGS)
    def test_monomial_levels_equal_the_product_chain(self, order, blocks):
        from conftest import power_reference

        rng = random.Random(f"lazy monomial levels {order}")
        for trial in range(30):
            ring = make_ring([2, 3, 5, 7][trial % 4], ["x", "y", "z", "w"], order, blocks)
            I = Ideal(ring, TestMonomialBases.random_monomials(ring, rng))
            for n in rng.sample(range(1, 7), 4):
                assert ideal_power(I, n).gens == power_reference(I, n).gens, (I, n)


def reference_divide_exact(f, g):
    """Exact division on exponent tuples, as it ran before the packed kernel
    took it over: the reference for poly_divide_exact."""
    ring = f.ring
    p = ring.p
    lm_g, lc_g = g.terms[0]
    inv = pow(lc_g, p - 2, p)
    rest = dict(f.terms)
    out = []
    while rest:
        m = max(rest, key=lambda m: order_key(ring, m))
        c = rest[m]
        q = mono_div(m, lm_g)
        if q is None:
            raise ArithmeticError("inexact polynomial division (internal bug signal)")
        qc = (c * inv) % p
        out.append((q, qc))
        for m2, c2 in g.terms:
            mm = mono_mul(q, m2)
            v = (rest.get(mm, 0) - qc * c2) % p
            if v:
                rest[mm] = v
            else:
                rest.pop(mm, None)
    return Polynomial(ring, out)


class TestExactDivision:
    """poly_divide_exact on packed terms against the tuple reference."""

    @pytest.mark.parametrize("order,blocks", TestMonomialBases.RINGS)
    def test_agrees_with_tuple_reference(self, order, blocks):
        rng = random.Random(f"divide {order}")
        for trial in range(40):
            ring = make_ring([2, 3, 5, 7][trial % 4], ["x", "y", "z", "w"], order, blocks)
            f = random_poly(ring, rng, max_deg=4, max_terms=5)
            g = random_poly(ring, rng, max_deg=3, max_terms=3, nonzero=True)
            assert poly_divide_exact(f * g, g) == f
            # an arbitrary dividend, and a product knocked off by one term
            for h in (random_poly(ring, rng, max_deg=5, max_terms=6),
                      f * g + random_poly(ring, rng, max_deg=5, max_terms=1)):
                try:
                    expected = reference_divide_exact(h, g)
                except ArithmeticError:
                    with pytest.raises(ArithmeticError, match="inexact"):
                        poly_divide_exact(h, g)
                else:
                    assert poly_divide_exact(h, g) == expected

    @pytest.mark.parametrize("order,blocks", [
        ("lex", None), ("grevlex", None), ("block", (("x",), ("y",))),
    ])
    def test_product_term_past_the_limit_is_inexact(self, order, blocks):
        # the quotient's first term y^LIMIT times y leaves the exponent range
        ring = make_ring(5, ["x", "y"], order, blocks)
        f = Polynomial.monomial(ring, (2, EXPONENT_LIMIT))
        g = parse_poly(ring, "x^2 + y")
        for divide in (poly_divide_exact, reference_divide_exact):
            with pytest.raises(ArithmeticError, match="inexact"):
                divide(f, g)
