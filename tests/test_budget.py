"""The Groebner budget is a with scope: every kernel run started inside
`with GroebnerBudget(...)` reads that budget, at any depth of the call, and
the scope's end restores the enclosing one."""

import io
import threading
from pathlib import Path

import pytest

import froblab.groebner as groebner
from froblab import (
    BudgetExceeded,
    GroebnerBudget,
    HypersurfaceRing,
    Ideal,
    bracket_power,
    check_fpt_containment,
    check_fpure_containment,
    check_sfr_containment,
    check_symbolic_into_Ie,
    fedder_is_fpure,
    hypersurface_Ie,
    ideal_subset,
    is_fpure_quotient,
    make_ring,
    maximal_ideal,
    normal_form,
    nu_e,
    parse_gens,
    parse_poly,
    q_ideal,
    run_example,
    saturate,
    sfr_witness_search,
)
from froblab.cli import run_script
from froblab.containment import xy_zk_setup
from froblab.groebner import DEFAULT_BUDGET

from conftest import trace_colon_reference

SCOPED = GroebnerBudget(max_pairs=50, max_poly_terms=400_000)


def active():
    return groebner._scopes.get()[-1]


@pytest.fixture
def reads(monkeypatch):
    """The budget in force at each kernel read: of every pair queue (_Pairs,
    which caps the selected pairs), every normal form and every F4 sweep."""
    seen = {"pairs": [], "nf": [], "sweep": []}

    class Pairs(groebner._Pairs):
        __slots__ = ()

        def __init__(self, packing):
            super().__init__(packing)
            seen["pairs"].append(self.budget)

    def recording(kind, fn):
        def wrapper(*args):
            seen[kind].append(active())
            return fn(*args)
        return wrapper

    monkeypatch.setattr(groebner, "_Pairs", Pairs)
    monkeypatch.setattr(groebner, "_nf_terms", recording("nf", groebner._nf_terms))
    monkeypatch.setattr(groebner, "_sweep", recording("sweep", groebner._sweep))
    return seen


def fedder(R, Q, pd):
    ring = make_ring(7, ["x", "y", "z"])
    return fedder_is_fpure(Ideal(ring, parse_gens(ring, "x^3 + y^3 + z^3")))


# name -> a call on F_5[x,y,z]/(xy - z^2), Q = (x, z) and its prime data
# (fedder, which needs a regular ring, runs on x^3 + y^3 + z^3 in F_7[x,y,z])
CALLS = {
    "fedder": fedder,
    "fpure": lambda R, Q, pd: is_fpure_quotient(Q),
    "sfr": lambda R, Q, pd: sfr_witness_search(Q, parse_gens(R.ambient, "y"), 1),
    # not generated by monomials: nu_e's integer program makes no kernel run
    "nu_e": lambda R, Q, pd: nu_e(q_ideal(R, parse_gens(R.ambient, "x + y^2, z")), 1),
    "check_fpure": lambda R, Q, pd: check_fpure_containment(Q, pd, 2, use_jacobian=True),
    "check_sfr": lambda R, Q, pd: check_sfr_containment(Q, pd, 2, use_jacobian=True),
    "check_fpt": lambda R, Q, pd: check_fpt_containment(Q, pd, 1, e_max=1),
    "check_symbolic_into_Ie": lambda R, Q, pd: check_symbolic_into_Ie(Q, pd, 1),
    "run_example": lambda R, Q, pd: run_example("xy-zk"),
}


@pytest.mark.parametrize("name", CALLS)
def test_every_kernel_run_reads_the_scope(name, reads):
    R, Q, pd = xy_zk_setup(5, 2)
    with SCOPED:
        CALLS[name](R, Q, pd)
    assert reads["pairs"], "no Buchberger run read a pair cap"
    for kind, budgets in reads.items():
        assert all(b is SCOPED for b in budgets), (kind, {b.max_pairs for b in budgets})


def test_nested_scopes_restore_the_outer_budget():
    assert active() is DEFAULT_BUDGET
    outer, inner = GroebnerBudget(max_pairs=7), GroebnerBudget(max_pairs=1)
    ring = make_ring(5, ["x", "y", "z"])
    I = Ideal(ring, parse_gens(ring, "x^4*y + z^2, x*z^3 - y^2*x + 1, y^4*z - x"))
    with outer as entered:
        assert entered is outer and active() is outer
        with inner:
            assert active() is inner
        assert active() is outer
        with pytest.raises(BudgetExceeded, match="1 S-pairs"), inner:
            I.groebner_basis()
        assert active() is outer
        with outer:  # the same budget again, nested in itself
            assert active() is outer
        assert active() is outer
    assert active() is DEFAULT_BUDGET


def test_a_scope_stays_in_its_thread():
    entered, release = threading.Event(), threading.Event()

    def worker():
        with GroebnerBudget(max_pairs=7):
            entered.set()
            release.wait(10)

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        assert entered.wait(10)
        assert active() is DEFAULT_BUDGET
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()


def test_outside_every_scope_the_default_applies(reads):
    ring = make_ring(5, ["x", "y"])
    Ideal(ring, parse_gens(ring, "x^2 - y, x*y + 1")).groebner_basis()
    assert reads["pairs"] and all(b is DEFAULT_BUDGET for b in reads["pairs"])


def test_normal_forms_read_the_scope():
    # reducing x^3 by x - y leaves four working terms
    ring = make_ring(5, ["x", "y", "z"])
    f = parse_poly(ring, "x^3 + y^3 + z^3 + x*y*z")
    G = parse_gens(ring, "x - y, y - z")
    with pytest.raises(BudgetExceeded, match="2 working terms"), GroebnerBudget(max_poly_terms=2):
        normal_form(f, G)
    assert normal_form(f, G) == parse_poly(ring, "4*z^3")


@pytest.fixture
def selections(monkeypatch):
    """The S-pairs each Groebner run (pair loop or F4) selects, run by run."""
    runs = []

    class Pairs(groebner._Pairs):
        __slots__ = ()

        def __init__(self, packing):
            super().__init__(packing)
            runs.append(self)

    monkeypatch.setattr(groebner, "_Pairs", Pairs)
    return lambda: [r.selected for r in runs]


# The selections below were recorded before the divisor index of the normal
# forms, and again once the pair loop started from a seed (I's reduced basis
# in a grevlex saturation, the minimal monomial generators elsewhere), which
# queues no pair inside the seed. Where max_pairs trips follows them, so an
# engine change that alters pair selection shows here first.


@pytest.mark.parametrize("gens,selected", [("x, y, z", [252, 49]), ("x, z", [127, 25])])
def test_cone_trace_colon_selects_the_recorded_pairs(gens, selected, selections):
    # I_2 of F_7[x,y,z]/(xy - z^2), q = 49, as the direct trace colon by f^(q-1) (the
    # recursion of hypersurface_Ie selects others), then Q^[q] inside it on its basis
    ring = make_ring(7, ["x", "y", "z"])
    R = HypersurfaceRing(ring, parse_poly(ring, "x*y - z^2"), reduced=True)
    Q = q_ideal(R, parse_gens(ring, gens))
    assert ideal_subset(bracket_power(Q, 2), trace_colon_reference(Q, 2))[0]
    assert selections() == selected


def test_readme_script_selects_the_recorded_pairs(selections):
    script = Path(__file__).resolve().parent / "golden" / "readme_script.flb"
    assert run_script(str(script), out=io.StringIO()) == 0
    assert selections() == [0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 3, 6, 4, 6, 2, 5, 8]


def test_xy_zk_ladder_selects_the_recorded_pairs(monkeypatch):
    """One xy-zk run at k = 3 (its saturations start from I^n's reduced
    basis): the pairs its Groebner runs select in all, and no leading
    monomial of a seed passes through add, which sees only later elements."""
    runs = []

    class Pairs(groebner._Pairs):
        __slots__ = ("seeded", "added")

        def __init__(self, packing):
            super().__init__(packing)
            self.seeded, self.added = [], []
            runs.append(self)

        def seed(self, lms, monomial):
            self.seeded = list(lms)
            super().seed(lms, monomial)

        def add(self, lm, monomial):
            self.added.append(lm)
            super().add(lm, monomial)

    monkeypatch.setattr(groebner, "_Pairs", Pairs)
    assert all(r.ok for r in run_example("xy-zk", {"p": 5, "k": 3, "n": "1..3"}))
    assert sum(r.selected for r in runs) == 92
    assert [len(r.seeded) + len(r.added) for r in runs] == [len(r.lms) for r in runs]
    assert not any(set(r.seeded) & set(r.added) for r in runs)
    assert sum(len(r.seeded) for r in runs) == 170
    assert sum(len(r.added) for r in runs) == 101


def test_the_cap_reaches_a_seeded_elimination():
    # I's basis is made outside the scope, so the scope's one pair goes to the
    # elimination that starts from it, which selects 5 pairs unscoped
    ring = make_ring(5, ["x", "y", "z"])
    I = Ideal(ring, parse_gens(ring, "x*y - z^2, x^3"))
    I.groebner_basis()
    with pytest.raises(BudgetExceeded, match="1 S-pairs"), GroebnerBudget(max_pairs=1):
        saturate(I, parse_poly(ring, "y"))
    with GroebnerBudget(max_pairs=5):
        assert saturate(I, parse_poly(ring, "y"))[1] == 0


def test_nu_e_caps_f_to_the_q_minus_1():
    """nu_e's integer program over the cone builds f^(q-1), about q terms, one
    Frobenius factor at a time; a product that may pass max_poly_terms raises
    (exit 3 from the CLI) before it is built."""
    R, Q, _ = xy_zk_setup(5, 2)  # Q = (x, z), f^(p-1) has 5 terms
    with GroebnerBudget(max_poly_terms=100):
        assert nu_e(Q, 2) == 24  # 5 * 5 terms
        with pytest.raises(BudgetExceeded, match=r"f\^\(q-1\) would exceed 100 terms"):
            nu_e(Q, 3)  # 25 * 5
    assert nu_e(Q, 3) == 124


def test_criteria_cap_f_to_the_q_minus_1():
    """The criteria test a colon generator h against I_e(m) by h*f^(q-1), so
    they build f^(q-1) under the same cap: at e = 3 on the cone it stops them
    before any colon of that e, where e = 1..2 fit."""
    R, Q, _ = xy_zk_setup(5, 2)
    c = parse_gens(R.ambient, "x + z")  # exhausts e = 1..2
    cap = r"f\^\(q-1\) would exceed 100 terms"
    with GroebnerBudget(max_poly_terms=100):
        assert is_fpure_quotient(Q, 2).status == "confirmed"
        assert sfr_witness_search(Q, c, 2).status == "inconclusive"
        with pytest.raises(BudgetExceeded, match=cap):
            is_fpure_quotient(Q, 3)
        with pytest.raises(BudgetExceeded, match=cap):
            sfr_witness_search(Q, c, 3)
    assert is_fpure_quotient(Q, 3).status == "confirmed"


def test_every_I_e_stops_at_the_pair_cap():
    """hypersurface_Ie builds no f^(q-1), so max_poly_terms caps no product of it there;
    max_pairs bounds the Groebner runs of its colons: on the cone at e = 3, I_e(m) stops at
    20 S-pairs, and finishes unscoped."""
    R, _, _ = xy_zk_setup(5, 2)
    with GroebnerBudget(max_pairs=20):
        with pytest.raises(BudgetExceeded, match="Buchberger exceeded 20 S-pairs"):
            hypersurface_Ie(maximal_ideal(R), 3)
    assert hypersurface_Ie(maximal_ideal(R), 3).is_proper()


@pytest.mark.parametrize("caps", [{"max_pairs": 0}, {"max_pairs": -1}, {"max_poly_terms": 0},
                                  {"max_poly_terms": -7}, {"max_pairs": 0, "max_poly_terms": 0}])
def test_caps_below_one_are_refused(caps):
    # such a budget could never let a computation finish
    with pytest.raises(ValueError, match=r"must be at least 1, not -?\d"):
        GroebnerBudget(**caps)


def test_a_one_term_chain_fits_the_least_budget():
    """A single term reduced by reducers of one tail term stays one working
    term, so the least budget, one term, lets it finish, while a reducer with
    a longer tail passes it."""
    ring = make_ring(5, ["x", "y", "z"])
    G = Ideal(ring, parse_gens(ring, "x - y, y - z^2")).groebner_basis()
    f = parse_poly(ring, "x^3*y")
    with GroebnerBudget(max_pairs=1, max_poly_terms=1):
        assert normal_form(f, G) == parse_poly(ring, "y^4")  # G = (x - y, z^2 - y)
        with pytest.raises(BudgetExceeded, match="1 working terms"):
            normal_form(f, [parse_poly(ring, "x - y - z")])
