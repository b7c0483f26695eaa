"""The benchmark's four workloads: seeded inputs, items and answer checks.

A workload turns a seed into plain input data (`build`) and that data into a
list of items (`items`). An item is one check or example call, one nu_e value,
or one script statement. Its `call` makes the froblab objects it needs and
returns the raw result; its `check` turns the result into the item's lines of
the JSON report stream plus a list of disagreements with the known answers.
Only `call` is timed.

Seeds are reduced modulo SEED_CLASSES, so that every pass's report stream can
be compared with a digest recorded for its seed class. While the benchmark was
written, seeds 0-15 recorded the digests and seeds 1-26 measured the
run-to-run spread.

Each workload also lists the froblab layers it loads, which the benchmark's
tests hold it to; BENCHMARK.json says why each workload was chosen.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable

import froblab as fl
from froblab import cli

import answers

SEED_CLASSES = 16


@dataclass
class Item:
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple]  # result -> (report lines, problems)


@dataclass
class Workload:
    name: str
    layers: tuple
    build: Callable[[int, bool], dict]
    items: Callable[[dict], list]


def _verdict_line(verdict):
    """The `--json` line the fedder/fpure subcommands print for a verdict."""
    return json.dumps(
        {
            "status": verdict.status,
            "e_used": list(verdict.e_used) if isinstance(verdict.e_used, tuple) else verdict.e_used,
            "condition": verdict.condition,
            "witness": fl.format_poly(verdict.witness) if verdict.witness is not None else None,
            "notes": verdict.notes,
        },
        sort_keys=True,
    )


def _expect(problems, label, what, got, want):
    if got != want:
        problems.append(f"{label}: {what} is {got!r}, known answer {want!r}")


# --- determinantal ---------------------------------------------------------


def build_determinantal(seed, tiny=False):
    registry_seeds = [3 * (seed % SEED_CLASSES) + i for i in range(1 if tiny else 3)]
    d, j_values = (4, (2,)) if tiny else (6, (2, 3))
    cases = [(d, j, s) for s in registry_seeds for j in j_values]
    return {"cases": cases + [(3, 2, s) for s in registry_seeds]}


def items_determinantal(data):
    out = []
    for d, j, s in data["cases"]:
        label = f"generic-determinantal d={d} j={j} seed={s}"

        def call(d=d, j=j, s=s):
            return fl.run_example("generic-determinantal", {"d": d, "j": j}, seed=s)

        def check(reports, d=d, label=label):
            problems = []
            want = answers.DETERMINANTAL_VERDICT["rule"](d)
            _expect(problems, label, "report count", len(reports), 1)
            for rep in reports:
                _expect(problems, label, "registry expected", rep.expected, want)
                _expect(problems, label, "verdict", rep.verdict, want)
                if want == "fails":
                    _expect(problems, label, "witness present", rep.witness is not None, True)
                    _expect(
                        problems, label, "witness recheck",
                        rep.diagnostics.get("witness_recheck"),
                        answers.DETERMINANTAL_WITNESS_RECHECK["flags"],
                    )
            return [rep.to_json() for rep in reports], problems

        out.append(Item(label, call, check))
    return out


# --- sweep -----------------------------------------------------------------


def build_sweep(seed, tiny=False):
    nvars = 3 if tiny else 4
    rng = random.Random(seed % SEED_CLASSES)
    # Relabelling permutes the variable names, not their positions: the
    # positions change the Groebner cost of a class under grevlex.
    names = [f"x{i}" for i in range(1, nvars + 1)]
    rng.shuffle(names)
    classes = fl.squarefree_antichains(nvars)
    rng.shuffle(classes)
    return {"names": names, "classes": classes, "n_values": (2,) if tiny else (2, 3)}


def items_sweep(data):
    ring = fl.make_ring(2, data["names"])
    count = len(data["classes"])
    want_count = answers.SWEEP_CLASSES["value"][ring.nvars]
    out = []
    for index, masks in enumerate(data["classes"]):
        state = {}

        def fedder(masks=masks, state=state):
            state["I"] = fl.ideal_from_masks(ring, masks)
            return fl.fedder_is_fpure(state["I"])

        def check_fedder(verdict, masks=masks, first=index == 0):
            problems = []
            if first:
                _expect(problems, "sweep", "class count", count, want_count)
            _expect(problems, f"fedder {masks}", "status", verdict.status,
                    answers.SWEEP_FEDDER["value"])
            return [_verdict_line(verdict)], problems

        out.append(Item(f"fedder {masks}", fedder, check_fedder))
        for n in data["n_values"]:

            def contain(n=n, state=state):
                if "pd" not in state:
                    pd = fl.primedata_for_squarefree(state["I"])
                    pd.asserted_fpure_quotient = True  # machine-confirmed by the fedder item
                    pd.checked["fpure"] = "fedder"
                    state["pd"] = pd
                return fl.check_fpure_containment(state["I"], state["pd"], n, exponent_cap=12)

            def check_contain(rep, label=f"fpure-containment {masks} n={n}"):
                found = []
                _expect(found, label, "verdict", rep.verdict, answers.SWEEP_CONTAINMENT["value"])
                return [rep.to_json()], found

            out.append(Item(f"fpure-containment {masks} n={n}", contain, check_contain))
    return out


# --- thresholds ------------------------------------------------------------


def build_thresholds(seed, tiny=False):
    rng = random.Random(seed % SEED_CLASSES)
    # The edge ideal's cost does not depend on the variable order, so its ring
    # order is permuted. In the cone the order changes the Groebner cost up to
    # twentyfold, so there only the names and the generator order change.
    edge_vars = ["x", "y", "z"]
    rng.shuffle(edge_vars)
    names = rng.choice([("x", "y", "z"), ("a", "b", "c"), ("u", "v", "w"), ("s", "t", "r")])
    x, y, z = names
    m_gens = [x, y, z]
    q_gens = [x, z]
    rng.shuffle(m_gens)
    rng.shuffle(q_gens)
    return {
        "emax": 1 if tiny else 3,
        "edge_vars": edge_vars,
        "edge_gens": ", ".join(rng.sample(["x*y", "x*z", "y*z"], 3)),
        "coord_vars": [x, y],
        "cone_vars": list(names),
        "cone_f": f"{x}*{y} - {z}^2",
        "cone_ideals": {"m": ", ".join(m_gens), "Q": ", ".join(q_gens)},
        "cone_emax": 1 if tiny else 2,
    }


def items_thresholds(data):
    out = []
    e_max = data["emax"]

    def fpt_check():
        ring = fl.make_ring(5, data["edge_vars"])
        J = fl.Ideal(ring, fl.parse_gens(ring, data["edge_gens"]))
        return fl.check_fpt_containment(
            J, fl.primedata_for_squarefree(J), 2, fpt_floor="auto", e_max=e_max
        )

    def check_fpt(rep):
        label = "fpt-containment (xy,xz,yz) over F_5"
        problems = []
        want_nu = [[e, answers.nu_edge_ideal(5, e)] for e in range(1, e_max + 1)]
        _expect(problems, label, "nu values", [list(v) for v in rep.diagnostics.get("nu_values", [])], want_nu)
        _expect(problems, label, "fpt floor", rep.params.get("fpt_floor"), answers.FPT_FLOOR["value"])
        _expect(problems, label, "verdict", rep.verdict, answers.FPT_CONTAINMENT["value"])
        return [rep.to_json()], problems

    out.append(Item("fpt-containment edge ideal", fpt_check, check_fpt))

    def nu_line(label, e, nu):
        return json.dumps({"ideal": label, "e": e, "nu": nu}, sort_keys=True)

    for e in range(1, e_max + 1):

        def coord(e=e):
            ring = fl.make_ring(5, data["coord_vars"])
            return fl.nu_e(fl.Ideal(ring, fl.parse_gens(ring, ", ".join(data["coord_vars"]))), e)

        def check_coord(nu, e=e):
            problems = []
            _expect(problems, f"nu_{e}((x,y)) over F_5", "value", nu, answers.nu_coordinate_ideal(5, e))
            return [nu_line("(x,y) over F_5", e, nu)], problems

        out.append(Item(f"nu_{e} (x,y)", coord, check_coord))

    for which in ("m", "Q"):
        for e in range(1, data["cone_emax"] + 1):

            def cone(which=which, e=e):
                ring = fl.make_ring(7, data["cone_vars"])
                R = fl.HypersurfaceRing(ring, fl.parse_poly(ring, data["cone_f"]), reduced=True)
                return fl.nu_e(fl.q_ideal(R, fl.parse_gens(ring, data["cone_ideals"][which])), e)

            def check_cone(nu, which=which, e=e):
                problems = []
                _expect(problems, f"nu_{e}({which}) in the cone over F_7", "value", nu,
                        answers.nu_cone(7, e))
                return [nu_line(f"{which} in F_7[x,y,z]/(xy - z^2)", e, nu)], problems

            out.append(Item(f"nu_{e} {which} cone", cone, check_cone))
    return out


# --- script ----------------------------------------------------------------

SCRIPT_HEAD = """\
ring F5[x,y,z]
hypersurface x*y - z^2
ideal Q = x, z
primes Q = (x, z) heights=1 mu=2
separator Q = y
embedded Q = (x, y, z)
assert-fpure Q
assert-sfr Q"""

SCRIPT_CHECKS = [
    "check jacobian-fpure Q n=2",
    "check jacobian-sfr Q n=2",
    "check symbolic-ie Q n=1 e=1",
    "check fpt Q n=2 emax=2",
]


def build_script(seed, tiny=False):
    rng = random.Random(seed % SEED_CLASSES)
    checks = list(SCRIPT_CHECKS)
    rng.shuffle(checks)
    grid = [(5, 2, "1")] if tiny else list(itertools.product((5, 7, 11, 13), (2, 3, 4), ("1..3",)))
    examples = [f"example xy-zk p={p} k={k} n={n}" for p, k, n in grid]
    rng.shuffle(examples)
    return {"lines": SCRIPT_HEAD.splitlines() + checks + examples}


def _script_statement_reports(line):
    """Known report count of one statement, from the registry structure."""
    head, _, rest = line.partition(" ")
    if head == "check":
        return 1
    if head == "example":
        kv = dict(part.split("=") for part in rest.split()[1:])
        lo, _, hi = kv["n"].partition("..")
        n_values = range(int(lo), int(hi or lo) + 1)
        return answers.xy_zk_report_count(int(kv["k"]), n_values)
    return 0


def items_script(data):
    session = cli.Session()
    out = []
    for line in data["lines"]:

        def call(line=line):
            before = len(session.reports)
            cli.execute_statement(session, line)
            return session.reports[before:]

        def check(reports, line=line):
            problems = []
            _expect(problems, line, "report count", len(reports), _script_statement_reports(line))
            for rep in reports:
                if not rep.ok:
                    problems.append(f"{line}: {rep.theorem_tag} {rep.params} is {rep.verdict}, "
                                    f"registry expects {rep.expected}")
                if line.startswith("check"):
                    _expect(problems, line, "verdict", rep.verdict, answers.SCRIPT_CHECK_VERDICT["value"])
                if "nu_values" in rep.diagnostics:
                    want = [[e, answers.nu_cone(5, e)] for e, _ in rep.diagnostics["nu_values"]]
                    _expect(problems, line, "nu values",
                            [list(v) for v in rep.diagnostics["nu_values"]], want)
            return [rep.to_json() for rep in reports], problems

        out.append(Item(line, call, check))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "determinantal",
            ("rings", "groebner", "idealops", "symbolic", "containment"),
            build_determinantal,
            items_determinantal,
        ),
        Workload(
            "sweep",
            ("rings", "groebner", "idealops", "frobenius", "symbolic", "containment"),
            build_sweep,
            items_sweep,
        ),
        Workload(
            "thresholds",
            ("rings", "parsing", "groebner", "idealops", "quotient", "frobenius",
             "symbolic", "containment"),
            build_thresholds,
            items_thresholds,
        ),
        Workload(
            "script",
            ("rings", "parsing", "groebner", "idealops", "quotient", "frobenius",
             "symbolic", "containment", "cli"),
            build_script,
            items_script,
        ),
    )
}
