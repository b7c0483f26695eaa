"""Ring-core: exact arithmetic, Frobenius powers, derivatives, text round trips,
the packed storage of polynomials, degrees read off it, ring changes
(Polynomial.in_ring) against exponent-tuple references, and the checks of the
constructor, which returns one object per ring."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import froblab.idealops as idealops
from froblab import (
    ExponentOverflow,
    HypersurfaceRing,
    Ideal,
    Polynomial,
    RingMismatch,
    format_poly,
    ideal_member,
    make_ring,
    normal_form,
    parse_poly,
)
from froblab.rings import EXPONENT_LIMIT, mono_mul, sorted_canonical
from froblab.parsing import _Tokens
from conftest import (
    drop_reference,
    lift_reference,
    mono_divides,
    order_key,
    permute_reference,
    random_homogeneous,
    random_poly,
    sorted_reference,
    tokens_reference,
)


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


class TestOneRingObject:
    """RingDescriptor returns one object per ring, so rings compare by
    identity; the arguments are still checked on every call."""

    def test_equal_arguments_give_the_same_object(self):
        assert make_ring(5, "xyz") is make_ring(5, ["x", "y", "z"]) is make_ring(5, ("x", "y", "z"))
        block = make_ring(7, "xyz", "block", [["x"], ["y", "z"]])
        assert block is make_ring(7, ("x", "y", "z"), "block", (("x",), ("y", "z")))
        assert len({make_ring(5, "xyz"), make_ring(5, "xyz", "lex"), make_ring(7, "xyz")}) == 3

    def test_the_auxiliary_rings_are_made_once(self):
        ring = make_ring(5, "xyz")
        (t_ring, t), (again, t2) = idealops._t_ring(ring), idealops._t_ring(ring)
        assert t_ring is again and t == t2 and t_ring.variables == ("t", "x", "y", "z")
        assert idealops._extended_ring(ring, ["u", "v"]) is idealops._extended_ring(ring, ("u", "v"))

    INVALID = [
        ((4, "xy"), "modulus not prime: 4"),
        ((2147483659, "xy"), "modulus too large: 2147483659"),
        ((5, ""), "ring needs at least one variable"),
        ((5, "xyx"), "duplicate variable name"),
        ((5, "xy", "deglex"), "unknown monomial order: deglex"),
        ((5, "xy", "block"), "block order needs a block partition"),
        ((5, "xy", "block", [["y"], ["x"]]), "blocks must partition the variable list in order"),
        ((5, "xy", "grevlex", [["x"], ["y"]]), "blocks only make sense with the block order"),
        ((5, "xy", "lex", [["x", "y"]]), "blocks only make sense with the block order"),
    ]

    @pytest.mark.parametrize("args,message", INVALID, ids=[m for _, m in INVALID])
    def test_invalid_arguments_raise_after_a_valid_ring(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_ring(*args)
        # the valid rings next to each bad argument are in the table now
        for order, blocks in (("grevlex", None), ("lex", None), ("block", [["x"], ["y"]])):
            make_ring(5, "xy", order, blocks)
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_ring(*args)

    def test_a_float_modulus_raises_beside_its_ring(self):
        # 2.0 == 2 and hash(2.0) == hash(2): a float p would take F_2's entry
        for p in (5, 2):
            make_ring(p, "xy")
            with pytest.raises(TypeError, match="modulus must be an int"):
                make_ring(float(p), "xy")
        assert type(make_ring(2, "xy").p) is int

    def test_rings_of_another_p_or_order_mismatch(self):
        for other in (make_ring(7, "xyz"), make_ring(5, "xyz", "lex")):
            x, y = (Polynomial.variable(ring, "x") for ring in (make_ring(5, "xyz"), other))
            with pytest.raises(RingMismatch):
                x + y
            with pytest.raises(RingMismatch):
                Ideal(other, [x])
            assert x != y

    def test_hypersurface_rings_are_equal_by_f(self):
        S = make_ring(5, "xyz")
        R = HypersurfaceRing(S, parse_poly(S, "x*y - z^2"))
        same = HypersurfaceRing(make_ring(5, "xyz"), parse_poly(S, "x*y - z^2"))
        assert R == R and R == same and hash(R) == hash(same) and R is not same
        assert R != HypersurfaceRing(S, parse_poly(S, "x*y - z^3"))
        lex = make_ring(5, "xyz", "lex")
        assert R != HypersurfaceRing(lex, parse_poly(lex, "x*y - z^2")) and R != S


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
        assert (pa < pb) == (order_key(ring, a) < order_key(ring, b))
        assert (pa == pb) == (a == b)

    @settings(max_examples=150, deadline=None)
    @given(rings_and_monomials(2))
    def test_guard_bit_divisibility(self, case):
        ring, (a, b) = case
        pk = ring._packing
        assert (not (pk.pack(b) - pk.pack(a)) & pk.guards) == mono_divides(a, b)
        # a always divides a*b when the product stays in range
        ab = mono_mul(a, b)
        if max(ab) <= EXPONENT_LIMIT:
            assert not (pk.pack(ab) - pk.pack(a)) & pk.guards


# -- one representation: packed terms, exponent tuples decoded on demand -----

ORDER_RINGS = [
    make_ring(7, ["x", "y", "z", "w"], "lex"),
    make_ring(7, ["x", "y", "z", "w"], "grevlex"),
    make_ring(7, ["x", "y", "z", "w"], "block", (("x", "y"), ("z", "w"))),
]


def kernel_made(ring, rng):
    """Polynomials the kernel makes from packed terms: sums, products,
    scalings, Frobenius powers, normal forms and basis elements."""
    a, b, c = (random_poly(ring, rng, nonzero=True) for _ in range(3))
    G = Ideal(ring, [b, c]).groebner_basis()
    return [a + b, a * b, 3 * a, -a, a.monic(), a.frobenius(1), normal_form(a * c + b, G),
            *G, a.without_last_power()]


@pytest.mark.parametrize("ring", ORDER_RINGS, ids=lambda r: r.order)
class TestPackedStorage:
    def test_terms_round_trip(self, ring):
        rng = random.Random(f"round trip {ring.order}")
        for _ in range(20):
            made = kernel_made(ring, rng) + [random_poly(ring, rng) for _ in range(3)]
            for f in made:
                g = Polynomial(ring, f.terms)
                assert g == f and hash(g) == hash(f), f
                assert g.terms == f.terms and list(f.terms) == sorted(
                    f.terms, key=lambda t: order_key(ring, t[0]), reverse=True)
                if f:
                    assert f.lead_monomial() == f.terms[0][0]
                    assert f.lead_coeff() == f.terms[0][1]
                    assert f.degree() == max(sum(m) for m, _ in f.terms)
                    assert f.is_homogeneous() == (len({sum(m) for m, _ in f.terms}) == 1)

    def test_frobenius_is_the_termwise_power(self, ring):
        rng = random.Random(f"frobenius {ring.order}")
        p = ring.p
        for e in (1, 2):
            q = p**e
            for _ in range(15):
                f = random_poly(ring, rng)
                want = [(tuple(x * q for x in m), pow(c, q, p)) for m, c in f.terms]
                want = Polynomial(ring, want)
                assert f.frobenius(e).terms == want.terms
        d = EXPONENT_LIMIT // p
        top = Polynomial.monomial(ring, (d, 0, 0, 0)).frobenius(1)
        assert top.terms == (((d * p, 0, 0, 0), 1),)
        with pytest.raises(ExponentOverflow):
            Polynomial.monomial(ring, (0, 0, 0, d + 1)).frobenius(1)
        with pytest.raises(ExponentOverflow):
            parse_poly(ring, f"x*y^{d} + z").frobenius(1)

    def test_without_last_power(self, ring):
        rng = random.Random(f"last power {ring.order}")
        w = Polynomial.variable(ring, "w")
        for _ in range(20):
            f = random_poly(ring, rng, nonzero=True)
            f = f * w ** rng.choice([0, 1, 2, 300, EXPONENT_LIMIT // 2])
            v = min(m[-1] for m, _ in f.terms)
            want = Polynomial(ring, [(m[:-1] + (m[-1] - v,), c) for m, c in f.terms])
            assert f.without_last_power() == want
            assert (f.without_last_power() is f) == (v == 0)
        assert not Polynomial.zero(ring).without_last_power()

    def test_tied_leading_monomials_keep_the_tuple_order(self, ring):
        rng = random.Random(f"ties {ring.order}")
        lead = Polynomial.monomial(ring, (3, 3, 3, 3))
        for _ in range(20):
            tails = [random_poly(ring, rng, max_deg=3) for _ in range(rng.randrange(2, 7))]
            gens = list(dict.fromkeys(lead + t for t in tails))
            gens += [random_poly(ring, rng, nonzero=True) for _ in range(3)]
            rng.shuffle(gens)
            assert sorted_canonical(gens) == sorted_reference(gens)

    def test_ties_are_broken_by_exponent_tuples_not_the_ring_order(self, ring):
        # y^2 against x*w: lex puts x*w higher, grevlex y^2; exponent tuples
        # compare as lex, so x^4 + y^2 comes first under every order
        f, g, h = (parse_poly(ring, s) for s in ("x^4 + y^2", "x^4 + x*w", "x^4 + 2*y^2"))
        assert sorted_canonical([h, g, f]) == [f, h, g] == sorted_reference([h, g, f])


@pytest.mark.parametrize("blocks", [(("x", "y", "z", "w"),), (("x",), ("y", "z"), ("w",))],
                         ids=["one block", "three blocks"])
def test_degrees_under_other_block_counts(blocks):
    # two blocks are TestPackedStorage's; one and three read the packed
    # degree fields another way
    ring = make_ring(7, ["x", "y", "z", "w"], "block", blocks)
    rng = random.Random(f"degrees {blocks}")
    for _ in range(15):
        for f in kernel_made(ring, rng) + random_homogeneous(ring, rng) + [Polynomial.zero(ring)]:
            assert f.degree() == max((sum(m) for m, _ in f.terms), default=-1), f
            assert f.is_homogeneous() == (len({sum(m) for m, _ in f.terms}) <= 1), f


# -- ring changes: Polynomial.in_ring against the exponent-tuple references ---

S_XYZ = make_ring(5, ["x", "y", "z"])
IN_RING_SOURCES = [
    S_XYZ,
    make_ring(5, ["x", "y", "z"], "lex"),
    make_ring(5, ["x", "y", "z"], "block", (("x",), ("y", "z"))),
    HypersurfaceRing(S_XYZ, parse_poly(S_XYZ, "x*y - z^2")),
]


def front_ring(S, name="t"):
    """[name | S] under the block order, as an elimination builds it."""
    return make_ring(S.p, (name,) + S.variables, "block", ((name,), S.variables))


@pytest.mark.parametrize("R", IN_RING_SOURCES, ids=["grevlex", "lex", "block", "cone"])
class TestInRing:
    @staticmethod
    def polys(R, rng):
        """Random polynomials of R's ambient S, the relations, a kernel-made
        product and exponents at the limit."""
        S = R.ambient
        gens = [random_poly(S, rng) for _ in range(10)] + list(R.relations)
        gens += [gens[0] * gens[1], Polynomial.monomial(S, (EXPONENT_LIMIT, 0, 1), 3)]
        return gens

    def test_lift_then_drop_is_the_identity(self, R):
        S, rng = R.ambient, random.Random(f"lift {R!r}")
        ring2 = front_ring(S)
        for g in self.polys(R, rng):
            lifted = g.in_ring(ring2)
            assert lifted == lift_reference(g, ring2, 1), g
            assert lifted.in_ring(S) == g == drop_reference(lifted, S, 1), g

    def test_a_permutation_by_name_is_the_tuple_permutation(self, R):
        S, rng = R.ambient, random.Random(f"permute {R!r}")
        for order in ("grevlex", "lex", "block"):
            for _ in range(3):
                names = list(S.variables)
                rng.shuffle(names)
                blocks = ((names[0],), tuple(names[1:])) if order == "block" else None
                ring2 = make_ring(S.p, names, order, blocks)
                source = [S.index(v) for v in ring2.variables]
                for g in self.polys(R, rng):
                    assert g.in_ring(ring2) == permute_reference(g, ring2, source), (g, ring2)

    def test_a_lost_variable_raises(self, R):
        S, rng = R.ambient, random.Random(f"lost {R!r}")
        ring2 = front_ring(S)
        t = Polynomial.variable(ring2, "t")
        xy = make_ring(S.p, ["x", "y"])
        for g in self.polys(R, rng):
            with pytest.raises(ValueError, match="lacks"):
                (t + g.in_ring(ring2)).in_ring(S)
            z_free = Polynomial(S, [(m, c) for m, c in g.terms if not m[2]])
            if z_free != g:
                with pytest.raises(ValueError, match="lacks"):
                    g.in_ring(xy)
            assert z_free.in_ring(xy) == Polynomial(xy, [(m[:2], c) for m, c in z_free.terms])

    def test_another_p_raises(self, R):
        S = R.ambient
        other = make_ring(7, S.variables, S.order, S.blocks)
        for g in (Polynomial.variable(S, "x"), Polynomial.one(S), Polynomial.zero(S)):
            with pytest.raises(RingMismatch):
                g.in_ring(other)


class TestConstructorChecks:
    def test_exponents_are_checked(self, F5xyz):
        with pytest.raises(ValueError, match="wrong length"):
            Polynomial(F5xyz, [((1, 2), 1)])
        with pytest.raises(ValueError, match="negative"):
            Polynomial(F5xyz, [((1, -1, 0), 1)])
        for bad in ((0, EXPONENT_LIMIT + 1, 0), (0, 2**32, 0)):
            with pytest.raises(ExponentOverflow):
                Polynomial(F5xyz, [(bad, 1), ((1, 0, 0), 1)])
            with pytest.raises(ExponentOverflow):
                Polynomial.monomial(F5xyz, bad)
        top = Polynomial(F5xyz, [((0, EXPONENT_LIMIT, 0), 1)])
        assert top.lead_monomial() == (0, EXPONENT_LIMIT, 0)

    def test_a_wrapped_field_is_not_a_member(self, F5xyz):
        # y^(2^32) would wrap its packed field into x and land in (x)
        x = Polynomial.variable(F5xyz, "x")
        with pytest.raises(ExponentOverflow):
            ideal_member(Polynomial(F5xyz, [((0, 2**32, 0), 1)]), Ideal(F5xyz, [x]))
