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
    check_fpt_containment,
    check_fpure_containment,
    check_sfr_containment,
    check_symbolic_into_Ie,
    fedder_is_fpure,
    hypersurface_Ie,
    is_fpure_quotient,
    make_ring,
    normal_form,
    nu_e,
    parse_gens,
    parse_poly,
    q_ideal,
    run_example,
    sfr_witness_search,
)
from froblab.cli import run_script
from froblab.containment import xy_zk_setup
from froblab.groebner import DEFAULT_BUDGET

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
    "fpure": lambda R, Q, pd: is_fpure_quotient(R, Q),
    "sfr": lambda R, Q, pd: sfr_witness_search(Q, parse_gens(R.ambient, "y"), 1),
    "nu_e": lambda R, Q, pd: nu_e(q_ideal(R, parse_gens(R.ambient, "x, y, z")), 1),
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
# forms. Where max_pairs trips follows them, so an engine change that alters
# pair selection shows here first.


@pytest.mark.parametrize("gens,selected", [("x, y, z", [252, 50]), ("x, z", [127, 25])])
def test_cone_trace_colon_selects_the_recorded_pairs(gens, selected, selections):
    # I_2 of F_7[x,y,z]/(xy - z^2), q = 49: the trace colon of nu_e on the cone
    ring = make_ring(7, ["x", "y", "z"])
    R = HypersurfaceRing(ring, parse_poly(ring, "x*y - z^2"), reduced=True)
    hypersurface_Ie(R, q_ideal(R, parse_gens(ring, gens)), 2)
    assert selections() == selected


def test_readme_script_selects_the_recorded_pairs(selections):
    script = Path(__file__).resolve().parent / "golden" / "readme_script.flb"
    assert run_script(str(script), out=io.StringIO()) == 0
    assert selections() == [0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 9, 3, 10, 4, 2, 13, 5]
