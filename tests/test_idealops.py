"""Ideal algebra: sums/products/powers, bracket powers, intersection, colon,
saturation, elimination, minors, and the oracle's own contract."""

import random

import pytest

from froblab import (
    ExponentOverflow,
    HypersurfaceRing,
    Ideal,
    PolyMatrix,
    Polynomial,
    RingMismatch,
    bracket_power,
    brute_membership_oracle,
    eliminate,
    format_poly,
    ideal_colon,
    ideal_equal,
    ideal_intersect,
    ideal_member,
    ideal_power,
    ideal_product,
    ideal_subset,
    ideal_sum,
    make_ring,
    minors,
    parse_gens,
    parse_poly,
    poly_divide_exact,
    saturate,
)
from froblab import idealops
from froblab.idealops import _consistent_mod_p, monomials_up_to, scale_ideal
from froblab.rings import EXPONENT_LIMIT
from conftest import (
    assert_minimal_ascending,
    iterated_colon_saturate,
    lcm_intersect_reference,
    power_reference,
    random_ideal,
    random_monomial_ideal,
    random_poly,
)


class TestSumProductPower:
    def test_product_principal(self, F5xyz):
        x, y = Polynomial.variable(F5xyz, "x"), Polynomial.variable(F5xyz, "y")
        P = ideal_product(Ideal(F5xyz, [x]), Ideal(F5xyz, [y]))
        assert ideal_equal(P, Ideal(F5xyz, [x * y]))

    def test_square_of_two_gens(self, F5xyz):
        I = Ideal(F5xyz, parse_gens(F5xyz, "x, z"))
        sq = ideal_power(I, 2)
        assert {format_poly(g) for g in sq.gens} == {"x^2", "x*z", "z^2"}

    def test_zeroth_power_is_unit(self, F5xyz):
        I = Ideal(F5xyz, parse_gens(F5xyz, "x, y"))
        assert ideal_power(I, 0).groebner_basis().is_unit()

    @pytest.mark.parametrize("order,blocks", [
        ("lex", None), ("grevlex", None), ("block", (("x", "y"), ("z", "w"))), ("cone", None),
    ])
    def test_power_by_multisets_matches_repeated_products(self, order, blocks):
        # the same generators in the same order as I^(n-1) * I, also with
        # repeated generators, monomials among them, and over S/(xy - z^2)
        rng = random.Random(f"multiset power {order}")
        for trial in range(20):
            p = [2, 3, 5, 7][trial % 4]
            if order == "cone":
                S = make_ring(p, ["x", "y", "z"])
                ring = HypersurfaceRing(S, parse_poly(S, "x*y - z^2"))
            else:
                S = ring = make_ring(p, ["x", "y", "z", "w"], order, blocks)
            gens = list(random_ideal(S, rng, max_gens=3, max_deg=2, max_terms=3).gens)
            gens += rng.sample(gens, rng.randrange(len(gens) + 1))
            I = Ideal(ring, gens)
            for n in (4, 2, 3, 1):
                assert ideal_power(I, n).gens == power_reference(I, n).gens, (I, n)

    def test_one_product_per_multiset(self, F5xyz, monkeypatch):
        # three generators: I^2 takes the 6 multisets of two of them, I^3
        # the 10 of three; I^(n-1) * I would take 9 and 18 products
        I = Ideal(F5xyz, parse_gens(F5xyz, "x*y - z^2, x*z + y^2, y*z - x^2"))
        made = []
        mul = Polynomial.__mul__
        monkeypatch.setattr(Polynomial, "__mul__", lambda f, g: made.append(1) or mul(f, g))
        assert len(ideal_power(I, 3).gens) == 10 and len(made) == 16
        assert len(ideal_power(I, 2).gens) == 6 and len(made) == 16

    @pytest.mark.parametrize("ambient", ["S", "S/(f)"])
    def test_overflow_is_raised_before_any_product(self, ambient, monkeypatch):
        # g^n is a generator of I^n: n times an exponent of a monomial
        # generator, or a degree of another, past EXPONENT_LIMIT raises at
        # once; at the limit itself the products start. The first product of
        # a monomial power is the kernel's, of any other a polynomial product.
        class ProductBuilt(Exception):
            pass

        fired = []

        def product(*args):
            fired.append(args)
            raise ProductBuilt

        S = make_ring(5, ["x", "y", "z"])
        ring = S if ambient == "S" else HypersurfaceRing(S, parse_poly(S, "x*y - z^2"))
        over = [("x*y, y*z", 2**31), ("x^2, y", 2**30), ("x + y^2, z", 2**30)]
        at_limit = [("x*y, y*z", EXPONENT_LIMIT), ("x^2, y", 2**30 - 1), ("x + y^2", 2**30 - 1)]
        over, at_limit = ([(parse_gens(S, gens), n) for gens, n in cases] for cases in (over, at_limit))
        monkeypatch.setattr(idealops, "_monomial_power", product)
        monkeypatch.setattr(Polynomial, "__mul__", product)
        for gens, n in over:
            with pytest.raises(ExponentOverflow, match=f"I\\^{n} has an exponent beyond"):
                ideal_power(Ideal(ring, gens), n)
        assert not fired
        for gens, n in at_limit:
            with pytest.raises(ProductBuilt):
                ideal_power(Ideal(ring, gens), n)
            assert fired, (gens, n)
            fired.clear()


    def test_overflow_message_past_the_int_str_limit(self, monkeypatch):
        # n is printed while str gives it, else named: a limit of 640 digits
        # (the least Python allows) moves the line, as a huge n crosses the default
        S = make_ring(2, ["x", "y", "z"])
        I = Ideal(S, parse_gens(S, "x*y, y*z"))
        for n, shown in [(10**4299, str(10**4299)), (10**4400, "n")]:
            with pytest.raises(ExponentOverflow, match=f"^I\\^{shown} has an exponent beyond"):
                ideal_power(I, n)
        monkeypatch.setattr(idealops, "_int_str_digits", lambda: 640)
        for n, shown in [(10**639, str(10**639)), (10**640, "n")]:
            with pytest.raises(ExponentOverflow, match=f"^I\\^{shown} has an exponent beyond"):
                ideal_power(I, n)


class TestBracketPower:
    def test_monomial(self, F5xyz):
        I = Ideal(F5xyz, parse_gens(F5xyz, "x, y"))
        assert {format_poly(g) for g in bracket_power(I, 1).gens} == {"x^5", "y^5"}

    def test_char_p_identity(self, F5xyz):
        I = Ideal(F5xyz, [parse_poly(F5xyz, "x + y")])
        assert format_poly(bracket_power(I, 1).gens[0]) == "x^5 + y^5"

    def test_squarefree_f2(self, F2xyz):
        I = Ideal(F2xyz, parse_gens(F2xyz, "x*y, x*z, y*z"))
        assert {format_poly(g) for g in bracket_power(I, 1).gens} == {
            "x^2*y^2", "x^2*z^2", "y^2*z^2",
        }

    def test_generator_independence(self):
        # a second generating set (random combinations added) gives the same bracket
        rng = random.Random(17)
        for trial in range(12):
            ring = make_ring([2, 3, 5][trial % 3], ["x", "y"])
            I = random_ideal(ring, rng, max_gens=2)
            extra = Polynomial.zero(ring)
            for g in I.gens:
                extra = extra + random_poly(ring, rng, max_deg=2, max_terms=2) * g
            J = Ideal(ring, I.gens + (extra,))
            assert ideal_equal(bracket_power(I, 1), bracket_power(J, 1))

    def test_distributes_over_sum_and_product(self):
        rng = random.Random(29)
        ring = make_ring(3, ["x", "y"])
        for _ in range(10):
            I, J = random_ideal(ring, rng), random_ideal(ring, rng)
            assert ideal_equal(
                bracket_power(ideal_sum(I, J), 1),
                ideal_sum(bracket_power(I, 1), bracket_power(J, 1)),
            )
            assert ideal_equal(
                bracket_power(ideal_product(I, J), 1),
                ideal_product(bracket_power(I, 1), bracket_power(J, 1)),
            )

    def test_bracket_inside_ordinary_power(self):
        rng = random.Random(41)
        for p in (2, 3):
            ring = make_ring(p, ["x", "y"])
            for _ in range(6):
                I = random_ideal(ring, rng, max_gens=2, max_deg=2)
                ok, _ = ideal_subset(bracket_power(I, 1), ideal_power(I, p))
                assert ok

    def test_pigeonhole(self):
        # I^(Nq-h+1) <= (I^(N-(h-1)))^[q] for h-generated monomial ideals
        rng = random.Random(53)
        for p in (2, 3, 5):
            ring = make_ring(p, ["x", "y", "z"])
            for _ in range(6):
                I = random_monomial_ideal(ring, rng, max_gens=3, max_deg=2)
                h = len(I.gens)
                for N in range(h, 4):
                    lhs = ideal_power(I, N * p - h + 1)
                    rhs = bracket_power(ideal_power(I, N - (h - 1)), 1)
                    ok, wit = ideal_subset(lhs, rhs)
                    assert ok, (p, [str(g) for g in I.gens], N, str(wit))


class TestIntersect:
    def test_principal(self, F5xyz):
        x, y = Polynomial.variable(F5xyz, "x"), Polynomial.variable(F5xyz, "y")
        assert ideal_equal(
            ideal_intersect(Ideal(F5xyz, [x]), Ideal(F5xyz, [y])),
            Ideal(F5xyz, [x * y]),
        )

    def test_with_unit(self, F5xyz):
        I = Ideal(F5xyz, parse_gens(F5xyz, "x, y"))
        assert ideal_equal(ideal_intersect(I, Ideal.unit(F5xyz)), I)

    def test_triple_squarefree(self, F2xyz):
        A = ideal_power(Ideal(F2xyz, parse_gens(F2xyz, "x, y")), 2)
        B = ideal_power(Ideal(F2xyz, parse_gens(F2xyz, "x, z")), 2)
        C = ideal_power(Ideal(F2xyz, parse_gens(F2xyz, "y, z")), 2)
        meet = ideal_intersect(ideal_intersect(A, B), C)
        assert ideal_member(parse_poly(F2xyz, "x*y*z"), meet)
        assert not ideal_member(parse_poly(F2xyz, "x^2*y"), meet)

    def test_agrees_with_lcm_oracle(self):
        rng = random.Random(61)
        for p, order in ((2, "grevlex"), (5, "grevlex"), (2, "lex"), (5, "lex")):
            ring = make_ring(p, ["x", "y", "z"], order=order)
            for _ in range(10):
                I = random_monomial_ideal(ring, rng)
                J = random_monomial_ideal(ring, rng)
                meet = ideal_intersect(I, J)
                assert meet.gens == lcm_intersect_reference(I, J).gens, (I, J)
                assert_minimal_ascending(meet)


class TestColon:
    def test_monomial_forced(self, F5xyz):
        I = Ideal(F5xyz, parse_gens(F5xyz, "x^2, x*y"))
        x = Polynomial.variable(F5xyz, "x")
        assert ideal_equal(ideal_colon(I, x), Ideal(F5xyz, parse_gens(F5xyz, "x, y")))

    def test_by_ideal(self):
        r = make_ring(5, ["x", "y"])
        I = Ideal(r, [parse_poly(r, "x*y")])
        J = Ideal(r, parse_gens(r, "x, y"))
        assert ideal_equal(ideal_colon(I, J), I)

    def test_f2_colon_contains_xyz(self, F2xyz):
        I = Ideal(F2xyz, parse_gens(F2xyz, "x*y, x*z, y*z"))
        colon = ideal_colon(bracket_power(I, 1), I)
        xyz = parse_poly(F2xyz, "x*y*z")
        assert ideal_member(xyz, colon)
        # oracle check: xyz*(each generator) lands in the bracket power
        for g in I.gens:
            assert brute_membership_oracle(xyz * g, bracket_power(I, 1), 3)

    def test_colon_times_ideal_inside(self):
        rng = random.Random(71)
        ring = make_ring(3, ["x", "y", "z"])
        for _ in range(12):
            I, J = random_ideal(ring, rng), random_ideal(ring, rng)
            C = ideal_colon(I, J)
            ok, _ = ideal_subset(ideal_product(C, J), I)
            assert ok

    def test_colon_is_largest_on_monomial_cases(self):
        # brute-force largest-ness: every monomial t of degree <= 3 with tJ <= I
        # must lie in (I : J)
        rng = random.Random(73)
        ring = make_ring(2, ["x", "y", "z"])
        for _ in range(8):
            I = random_monomial_ideal(ring, rng)
            J = random_monomial_ideal(ring, rng)
            C = ideal_colon(I, J)
            for m in monomials_up_to(ring, 3):
                t = Polynomial.monomial(ring, m)
                sends_in = all(ideal_member(t * g, I) for g in J.gens)
                assert sends_in == ideal_member(t, C)

    def test_a_polynomial_from_another_ring_raises(self):
        r = make_ring(5, ["x", "y"])
        I = Ideal(r, [Polynomial.variable(r, "x")])
        u = make_ring(7, ["u"])
        # a constant from another ring once returned I unchanged
        for g in (Polynomial.one(u), Polynomial.variable(u, "u"),
                  Polynomial.one(make_ring(7, ["x", "y"]))):
            for J in (g, Ideal(g.ring, [g])):
                with pytest.raises(RingMismatch, match="different ring"):
                    ideal_colon(I, J)
            with pytest.raises(RingMismatch, match="polynomial from a different ring"):
                ideal_colon(I, g)

    def test_exact_division_guard(self, F5xyz):
        with pytest.raises(ArithmeticError):
            poly_divide_exact(
                parse_poly(F5xyz, "x^2 + y"), parse_poly(F5xyz, "x")
            )


class TestSaturate:
    def test_monomial_chain(self, F5xyz):
        I = Ideal(F5xyz, parse_gens(F5xyz, "x*y, x*z"))
        sat, s = saturate(I, Polynomial.variable(F5xyz, "y"))
        assert ideal_equal(sat, Ideal(F5xyz, [Polynomial.variable(F5xyz, "x")]))
        assert s == 1

    def test_forced_two_step_chain(self, F5xyz):
        x = Polynomial.variable(F5xyz, "x")
        sat, s = saturate(Ideal(F5xyz, [x**2]), x)
        assert sat.groebner_basis().is_unit()
        assert s == 2

    def test_contains_input_and_idempotent(self):
        rng = random.Random(83)
        ring = make_ring(5, ["x", "y", "z"])
        for _ in range(8):
            I = random_ideal(ring, rng)
            f = random_poly(ring, rng, max_deg=2, max_terms=2, nonzero=True)
            sat, _ = saturate(I, f)
            ok, _ = ideal_subset(I, sat)
            assert ok
            again, s2 = saturate(sat, f)
            assert ideal_equal(again, sat) and s2 == 0

    def test_fast_path_matches_iterated_colon(self):
        # homogeneous + grevlex + trailing variable: both routes agree
        rng = random.Random(89)
        ring = make_ring(5, ["x", "y", "z"])
        z = Polynomial.variable(ring, "z")
        for _ in range(10):
            gens = []
            for _ in range(rng.randrange(1, 4)):
                d = rng.randrange(1, 4)
                terms = []
                for m in monomials_up_to(ring, d):
                    if sum(m) == d and rng.random() < 0.4:
                        terms.append((m, rng.randrange(1, 5)))
                if terms:
                    gens.append(Polynomial(ring, terms))
            if not gens:
                continue
            I = Ideal(ring, gens)
            fast, s_fast = saturate(I, z)
            slow, s_slow = iterated_colon_saturate(I, z)
            assert ideal_equal(fast, slow)
            assert s_fast == s_slow

    def test_saturation_by_ideal(self, F5xyz):
        I = Ideal(F5xyz, parse_gens(F5xyz, "x*y, x*z"))
        m = Ideal(F5xyz, parse_gens(F5xyz, "y, z"))
        sat, _ = saturate(I, m)
        assert ideal_equal(sat, Ideal(F5xyz, [Polynomial.variable(F5xyz, "x")]))


class TestAuxiliaryVariableName:
    """A ring with a variable named t: the constructions' auxiliary variable
    takes another name, so every result is the one over s in t's place."""

    @pytest.mark.parametrize("order", ["grevlex", "lex"])
    def test_results_match_the_ring_without_t(self, order):
        def run(name):
            ring = make_ring(5, [name, "x", "y"], order=order)
            I, J = (Ideal(ring, parse_gens(ring, g.replace("t", name)))
                    for g in ("t*x + y^2, x*y - t", "t + x, y^2"))
            g = parse_poly(ring, "x + t".replace("t", name))
            sat, s = saturate(I, g)
            results = (ideal_intersect(I, J), ideal_colon(I, g), ideal_colon(I, J), sat)
            return [[h.terms for h in K.gens] for K in results], s

        assert run("t") == run("s")


class TestEliminate:
    def test_intersection_construction(self):
        r = make_ring(5, ["t", "x", "y"])
        I = Ideal(r, parse_gens(r, "t*x, y - t*y"))
        E = eliminate(I, ["t"])
        assert ideal_member(parse_poly(r, "x*y"), E)

    def test_parametrized_parabola(self):
        r = make_ring(5, ["t", "x", "y"])
        I = Ideal(r, parse_gens(r, "x - t, y - t^2"))
        E = eliminate(I, ["t"])
        assert ideal_equal(E, Ideal(r, [parse_poly(r, "y - x^2")]))

    def test_noop_variable(self, F5xyz):
        I = Ideal(F5xyz, [Polynomial.variable(F5xyz, "x")])
        assert ideal_equal(eliminate(I, ["y"]), I)

    @pytest.mark.parametrize("kill", [["z"], ["x"], ["x", "z"], []])
    def test_over_S_mod_f_eliminates_the_preimage(self, F5xyz, kill):
        f = parse_poly(F5xyz, "x*y - z^2")
        R = HypersurfaceRing(F5xyz, f)
        for text in ["x, z", "x + y, z^2", "y*z - x^2"]:
            gens = parse_gens(F5xyz, text)
            E = eliminate(Ideal(R, gens), kill)
            assert E.ring == F5xyz
            assert ideal_equal(E, eliminate(Ideal(F5xyz, gens + [f]), kill))
            assert not any(any(m[F5xyz.index(v)] for v in kill) for g in E.gens for m, _ in g.terms)

    def test_cannot_eliminate_everything(self, F5xyz):
        I = Ideal(F5xyz, [Polynomial.variable(F5xyz, "x")])
        with pytest.raises(ValueError, match="every variable"):
            eliminate(I, ["x", "y", "z"])

    def test_unknown_variable_rejected(self, F5xyz):
        I = Ideal(F5xyz, [Polynomial.variable(F5xyz, "x")])
        with pytest.raises(ValueError, match="unknown variable"):
            eliminate(I, ["w"])


class TestMinors:
    def test_1x1(self, F5xyz):
        M = PolyMatrix(F5xyz, [parse_gens(F5xyz, "x, y")])
        assert ideal_equal(minors(M, 1), Ideal(F5xyz, parse_gens(F5xyz, "x, y")))

    def test_2x3_cyclic(self, F5xyz):
        M = PolyMatrix(F5xyz, [parse_gens(F5xyz, "x, y, z"), parse_gens(F5xyz, "y, z, x")])
        I = minors(M, 2)
        expected = Ideal(
            F5xyz, parse_gens(F5xyz, "x*z - y^2, x^2 - y*z, y*x - z^2")
        )
        assert ideal_equal(I, expected)

    def test_zero_matrix(self, F5xyz):
        zero = Polynomial.zero(F5xyz)
        M = PolyMatrix(F5xyz, [[zero] * 3, [zero] * 3])
        assert minors(M, 2).is_zero()


class TestBruteOracle:
    def test_trivial_cases(self):
        r = make_ring(5, ["x", "y"])
        x = Polynomial.variable(r, "x")
        assert brute_membership_oracle(x**2, Ideal(r, [x]), 1)
        assert not brute_membership_oracle(
            Polynomial.one(r), Ideal(r, parse_gens(r, "x, y")), 5
        )

    def test_degree_bound_semantics(self, F2xyz):
        I = Ideal(F2xyz, parse_gens(F2xyz, "x*y, x*z, y*z"))
        xyz = parse_poly(F2xyz, "x*y*z")
        assert not brute_membership_oracle(xyz, ideal_power(I, 2), 3)


_F5, _F7 = make_ring(5, ["x", "y"]), make_ring(7, ["x", "y"])
_X, _X7, _ZERO = Polynomial.variable(_F5, "x"), Polynomial.variable(_F7, "x"), Polynomial.zero(_F5)
_I, _I7 = Ideal(_F5, [_X]), Ideal(_F7, [_X7])


@pytest.mark.parametrize("call,error,message", [
    (lambda: ideal_sum(_I, _I7), RingMismatch, "ideals from different rings"),
    (lambda: ideal_product(_I, _I7), RingMismatch, "ideals from different rings"),
    (lambda: ideal_intersect(_I, _I7), RingMismatch, "ideals from different rings"),
    (lambda: scale_ideal(_X7, _I), RingMismatch, "polynomial from a different ring"),
    (lambda: saturate(_I, _I7), RingMismatch, "ideals from different rings"),
    (lambda: saturate(_I, _X7), RingMismatch, "polynomial from a different ring"),
    (lambda: ideal_power(_I, -1), ValueError, "n >= 0"),
    (lambda: bracket_power(_I, 0), ValueError, "e >= 1"),
    (lambda: ideal_colon(_I, _ZERO), ValueError, "colon by the zero polynomial"),
    (lambda: saturate(_I, Ideal(_F5)), ValueError, "saturation by the zero ideal"),
    (lambda: saturate(_I, _ZERO), ValueError, "saturation by the zero polynomial"),
    (lambda: PolyMatrix(_F5, [[_X, _X], [_X]]), ValueError, "unequal length"),
    (lambda: PolyMatrix(_F5, [[_X7]]), RingMismatch, "matrix entry from a different ring"),
    (lambda: minors(PolyMatrix(_F5, [[_X]]), 2), ValueError, "minor size outside"),
    (lambda: brute_membership_oracle(_X7, _I, 1), RingMismatch, "polynomial from a different ring"),
], ids=["sum", "product", "intersect", "scale", "saturate-ideal", "saturate-poly", "power",
        "bracket", "colon-zero", "saturate-zero-ideal", "saturate-zero", "matrix-rows",
        "matrix-ring", "minor-size", "oracle-ring"])
def test_input_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_zero_ideal_meets_to_zero_and_holds_no_nonzero_polynomial():
    assert ideal_intersect(_I, Ideal(_F5)).is_zero() and ideal_intersect(Ideal(_F5), _I).is_zero()
    assert not brute_membership_oracle(_X, Ideal(_F5), 3)


def sparse(rows):
    """The oracle's rows: {column: entry} of each row's nonzero entries."""
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def reference_consistent(rows, p, n_cols):
    """Pure-Python Gauss-Jordan elimination mod p on augmented rows [a | b]:
    True iff a x = b has a solution."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                rows[i] = [(a - row[col] * b) % p for a, b in zip(row, rows[rank])]
        rank += 1
    return not any(row[n_cols] for row in rows[rank:])


@pytest.mark.parametrize("p", [2, 101, 2**31 - 1])
def test_oracle_elimination_against_python(p):
    """_consistent_mod_p on random augmented systems whose coefficient rows
    span a chosen rank (often below the row count), with b in the column space
    or drawn at random; p = 2^31 - 1 puts products of entries at 2^62, in the
    widest slots."""
    rng = random.Random(p)
    seen = set()
    for trial in range(80):
        n_rows, n_cols = rng.randrange(1, 8), rng.randrange(1, 8)
        rank = rng.randrange(min(n_rows, n_cols) + 1)
        span = [[rng.randrange(p) for _ in range(n_cols)] for _ in range(rank)]
        a = [[sum(rng.randrange(p) * s[j] for s in span) % p for j in range(n_cols)]
             for _ in range(n_rows)]
        if trial % 2:
            x = [rng.randrange(p) for _ in range(n_cols)]
            b = [sum(ai * xi for ai, xi in zip(row, x)) % p for row in a]
        else:
            b = [rng.randrange(p) for _ in range(n_rows)]
        rows = [row + [bi] for row, bi in zip(a, b)]
        expected = reference_consistent(rows, p, n_cols)
        assert expected or not trial % 2
        assert _consistent_mod_p(sparse(rows), p, n_cols) is expected, rows
        seen.add((expected, rank < n_rows))
    assert seen >= {(True, True), (True, False), (False, True)}
    top = p - 1  # every entry at its largest
    for rows, expected in (([[top, top, top]] * 3, True), ([[top, top, 0], [top, top, 1]], False)):
        assert _consistent_mod_p(sparse(rows), p, 2) is expected
