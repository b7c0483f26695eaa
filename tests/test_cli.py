"""CLI surface: subcommands, the script DSL, exit codes, determinism."""

import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import froblab
from froblab.cli import Session, build_parser, execute_statement, main, run_script
from froblab.symbolic import PrimeData

RUN = [sys.executable, "-m", "froblab.cli"]
# the child interpreter finds the package where this one did, installed or not
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        [str(Path(froblab.__file__).resolve().parent.parent)]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ),
)


def invoke(argv):
    out = io.StringIO()
    import contextlib

    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class TestSubcommands:
    def test_fedder_confirmed(self):
        code, out = invoke(
            ["fedder", "--ring", "F7[x,y,z]", "--ideal", "x^3+y^3+z^3"]
        )
        assert code == 0 and "CONFIRMED" in out

    def test_fedder_refuted_exit_code(self):
        code, out = invoke(
            ["fedder", "--ring", "F5[x,y,z]", "--ideal", "x^3+y^3+z^3"]
        )
        assert code == 1 and "REFUTED" in out

    def test_fpure_hypersurface(self):
        code, out = invoke([
            "fpure", "--ring", "F5[x,y,z]", "--hypersurface", "x*y - z^2",
            "--ideal", "x, z", "--json",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "confirmed" and payload["condition"] == "2"

    def test_sfr(self):
        code, out = invoke([
            "sfr", "--ring", "F5[x,y]", "--ideal", "x", "--c", "1", "--emax", "1",
        ])
        assert code == 0 and "CONFIRMED" in out

    def test_fpt_values(self):
        code, out = invoke(
            ["fpt", "--ring", "F5[x,y]", "--ideal", "x,y", "--emax", "2", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["nu_values"] == [[1, 8], [2, 48]] or payload["nu_values"] == [
            (1, 8),
            (2, 48),
        ]
        assert payload["floor"] == 1

    def test_fpt_of_a_monomial_ideal_at_large_q(self):
        # (x^2, y)^r escapes m^[q] up to r = (q-1) + (q-1)/2; at q = 5^7 the
        # monomials below m^[q] number 6.1e9, so no scan over them finishes
        start = time.perf_counter()
        code, out = invoke(
            ["fpt", "--ring", "F5[x,y]", "--ideal", "x^2,y", "--emax", "7", "--json"]
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(out)["nu_values"] == [
            [e, 5**e - 1 + (5**e - 1) // 2] for e in range(1, 8)
        ]

    def test_symbolic(self):
        code, out = invoke([
            "symbolic", "--ring", "F2[x,y,z]", "--ideal", "x*y, x*z, y*z",
            "--n", "2", "--json",
        ])
        assert code == 0
        payload = json.loads(out)
        assert "x*y*z" in payload["generators"]

    def test_symbolic_in_the_cone_lists_no_zero_generator(self):
        code, out = invoke([
            "symbolic", "--ring", "F5[x,y,z]", "--hypersurface", "x*y - z^2",
            "--ideal", "x, z", "--n", "1", "--primes", "x, z", "--separator", "y",
            "--json",
        ])
        assert code == 0
        S = froblab.make_ring(5, ["x", "y", "z"])
        f = froblab.parse_poly(S, "x*y - z^2")
        gens = [froblab.parse_poly(S, g) for g in json.loads(out)["generators"]]
        assert gens and all(froblab.normal_form(g, [f]) for g in gens)

    def test_symbolic_separator_without_primes_on_a_monomial_ideal(self):
        # the monomial construction reads no separators: the minimal primes
        # are computed as without --separator
        argv = ["symbolic", "--ring", "F5[x,y,z]", "--ideal", "x*y", "--n", "2", "--json"]
        code, out = invoke(argv + ["--separator", "y"])
        assert code == 0 and json.loads(out)["generators"] == ["x^2*y^2"]
        assert invoke(argv) == (code, out)

    def test_symbolic_with_a_separator_over_a_ring_with_t(self):
        # the saturation's auxiliary variable takes another name than t
        def run(name):
            code, out = invoke([
                "symbolic", "--ring", f"F5[{name},x,y]", "--hypersurface", f"{name}*x - y^2",
                "--ideal", f"{name}, y", "--n", "2", "--primes", f"{name}, y",
                "--separator", "x", "--json",
            ])
            return code, json.loads(out)

        code, payload = run("t")
        assert (code, payload["generators"]) == (0, ["t", "y^2"])
        assert run("s") == (0, {**payload, "generators": ["s", "y^2"]})

    def test_containment_failure_witness(self):
        code, out = invoke([
            "containment", "--ring", "F5[x,y]", "--lhs", "x", "--rhs", "x^2",
        ])
        assert code == 1 and "witness: x" in out

    def test_example_subcommand(self):
        code, out = invoke([
            "example", "xy-zk", "--param", "p=5", "--param", "k=2",
            "--param", "n=1..2", "--json",
        ])
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert all(rec["ok"] for rec in lines)

    def test_usage_error_exit_2(self):
        code, _ = invoke(["fedder", "--ring", "F4[x]", "--ideal", "x"])
        assert code == 2

    def test_selftest(self):
        code, out = invoke(["selftest"])
        assert code == 0 and "0 failure(s)" in out


SCRIPT_OK = """\
# quadric cone: Jacobian repair at n=2
ring F5[x,y,z]
hypersurface x*y - z^2
ideal Q = x, z
primes Q = (x, z) heights=1 mu=2
separator Q = y
embedded Q = (x, y, z)
assert-fpure Q
check jacobian-fpure Q n=2
"""

SCRIPT_BAD_NAME = """\
ring F5[x,y,z]
ideal Q = (x, w)
"""

SCRIPT_EXAMPLE = """\
example xy-zk p=5 k=2 n=1..2
"""


class TestScripts:
    def run_script_text(self, tmp_path, text, as_json=False):
        path = tmp_path / "script.flb"
        path.write_text(text)
        out = io.StringIO()
        code = run_script(str(path), out=out, as_json=as_json)
        return code, out.getvalue()

    def test_jacobian_check_script(self, tmp_path):
        code, out = self.run_script_text(tmp_path, SCRIPT_OK)
        assert code == 0
        assert "jacobian-fpure-containment" in out and "HOLDS" in out

    @pytest.mark.parametrize("cap,verdict", [(" cap=4", "skipped"), ("", "holds")])
    def test_symbolic_ie_cap(self, tmp_path, cap, verdict):
        # q = 5 > 4 skips; without cap= the default cap (25) lets q = 5 run
        text = SCRIPT_OK.replace("check jacobian-fpure Q n=2", f"check symbolic-ie Q n=1 e=1{cap}")
        code, out = self.run_script_text(tmp_path, text, as_json=True)
        assert code == 0
        (line,) = out.strip().splitlines()
        report = json.loads(line)
        assert report["theorem_tag"] == "symbolic-into-ie" and report["verdict"] == verdict
        if cap:
            assert report["reason"] == "q = 5 exceeds the cap 4"

    def test_cap_reasons_name_the_cap_in_force(self, tmp_path):
        from froblab import check_fpure_containment, check_sfr_containment

        script = """\
ring F2[x,y,z]
ideal I = x*y, x*z, y*z
primes I = (x, y); (x, z); (y, z) mu=2
assert-fpure I
assert-sfr I
check fpure I n=5 cap=8
check sfr I n=9 cap=8
check symbolic-ie I n=1 e=1 cap=1
"""
        code, out = self.run_script_text(tmp_path, script, as_json=True)
        assert code == 0
        assert [json.loads(line)["reason"] for line in out.strip().splitlines()] == [
            "symbolic exponent 9 exceeds the cap 8; pass exponent_cap to override",
            "symbolic exponent 9 exceeds the cap 8",
            "q = 2 exceeds the cap 1",
        ]
        ring = froblab.make_ring(2, ["x", "y", "z"])
        I = froblab.Ideal(ring, froblab.parse_gens(ring, "x*y, x*z, y*z"))
        pd = froblab.primedata_for_squarefree(I)
        pd.asserted_fpure_quotient = pd.asserted_sfr_quotient = True
        assert check_fpure_containment(I, pd, 5).reason == (
            "symbolic exponent 9 exceeds the default cap 7; pass exponent_cap to override"
        )
        assert check_sfr_containment(I, pd, 9).reason == (
            "symbolic exponent 9 exceeds the default cap 7"
        )

    @pytest.mark.parametrize("cap,verdict", [("", "skipped"), (" cap=9", "holds")])
    def test_script_checks_apply_the_default_cap(self, tmp_path, cap, verdict):
        # h = 2, n = 5: symbolic exponent 9, past the default cap 7 unless cap= lifts it
        script = f"""\
ring F2[x,y,z]
ideal I = x*y, x*z, y*z
primes I = (x, y); (x, z); (y, z) mu=2
assert-fpure I
check fpure I n=5{cap}
"""
        code, out = self.run_script_text(tmp_path, script, as_json=True)
        assert code == 0
        (line,) = out.strip().splitlines()
        report = json.loads(line)
        assert report["params"]["symbolic_exponent"] == 9 and report["verdict"] == verdict
        if not cap:
            assert report["reason"] == (
                "symbolic exponent 9 exceeds the default cap 7; pass exponent_cap to override"
            )

    def test_prime_height_in_the_cone_is_computed(self, tmp_path):
        # Q = (x, z) has height 1 in F5[x,y,z]/(xy - z^2): Q^(2) = (x) escapes Q^2
        script = SCRIPT_OK.replace("heights=1 ", "").replace(
            "check jacobian-fpure Q n=2", "assert-finite-pd Q\ncheck fpure Q n=2"
        )
        given = script.replace("mu=2", "heights=1 mu=2")
        outs = [self.run_script_text(tmp_path, text, as_json=True) for text in (script, given)]
        assert outs[0] == outs[1]
        code, out = outs[0]
        report = json.loads(out.splitlines()[0])
        assert code == 1 and report["params"]["h"] == 1 and report["witness"] == "x"

    def test_ring_declaration_may_hold_spaces(self, tmp_path):
        script = SCRIPT_OK.replace("ring F5[x,y,z]", "ring F5[x, y, z]")
        assert self.run_script_text(tmp_path, script) == self.run_script_text(tmp_path, SCRIPT_OK)

    @pytest.mark.parametrize("second", ["F7[a,b]", "F5[x,y,z]"])
    def test_ring_statement_drops_the_hypersurface(self, second):
        # a new ring, or the same one again, is a polynomial ring: no S/(f)
        session = Session()
        for line in ("ring F5[x,y,z]", "hypersurface x*y - z^2", f"ring {second}",
                     f"ideal I = {second[3]}"):
            execute_statement(session, line)
        assert session.hyper is None
        assert session.ideals["I"].ring == session.ring and not session.ring.relations

    @pytest.mark.parametrize("check,params", [
        ("check fpt Q n=2 floor=0 emax=1 expect=holds", {"fpt_floor": 0, "n": 2}),
        ("check fpt Q floor=auto emax=1", {"fpt_floor": 0, "n": 2}),
        ("check symbolic-ie Q n=1 e=1 cap=5 expect=holds", {"e": 1, "n": 1}),
        ("check jacobian-sfr Q n=3 cap=3", {"symbolic_exponent": 3, "n": 3}),
    ])
    def test_check_keys_per_tag(self, tmp_path, check, params):
        script = SCRIPT_OK.replace("assert-fpure Q", "assert-fpure Q\nassert-sfr Q")
        code, out = self.run_script_text(
            tmp_path, script.replace("check jacobian-fpure Q n=2", check), as_json=True
        )
        report = json.loads(out)
        assert code == 0 and report["verdict"] == "holds"
        assert params.items() <= report["params"].items()

    @pytest.mark.parametrize("floor", [4, 5])
    def test_fpt_floor_at_least_h_times_n_skips(self, tmp_path, floor):
        # h = 2 and n = 2 leave no positive symbolic exponent
        code, out = self.run_script_text(
            tmp_path, BATTERY_HEAD + f"check fpt I n=2 floor={floor}\n", as_json=True)
        report = json.loads(out)
        assert code == 0 and report["verdict"] == "skipped"
        assert report["params"]["symbolic_exponent"] == 4 - floor
        assert report["reason"] == "floor at least h*n makes the symbolic exponent non-positive"

    def test_jacobian_sfr_without_mu_exits_2(self, tmp_path):
        script = SCRIPT_OK.replace(" mu=2", "").replace(
            "check jacobian-fpure Q n=2", "assert-sfr Q\ncheck jacobian-sfr Q")
        assert self.run_script_text(tmp_path, script) == (
            2, "error at line 10: the Jacobian variant needs max_local_gens in the prime data\n")

    def test_check_functions_are_looked_up_per_statement(self, tmp_path, monkeypatch):
        # perfbench's tracer counts checks by patching the module's names
        import froblab.cli

        real, calls = froblab.cli.check_fpure_containment, []

        def traced(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(froblab.cli, "check_fpure_containment", traced)
        assert self.run_script_text(tmp_path, SCRIPT_OK)[0] == 0
        assert [call["use_jacobian"] for call in calls] == [True]

    def test_unknown_variable_exit_2(self, tmp_path):
        code, out = self.run_script_text(tmp_path, SCRIPT_BAD_NAME)
        assert code == 2 and "line 2" in out

    def test_example_statement(self, tmp_path):
        code, out = self.run_script_text(tmp_path, SCRIPT_EXAMPLE, as_json=True)
        assert code == 0
        assert all(json.loads(line)["ok"] for line in out.strip().splitlines())

    def test_byte_identical_reruns(self, tmp_path):
        outs = [
            self.run_script_text(tmp_path, SCRIPT_EXAMPLE, as_json=True)[1]
            for _ in range(2)
        ]
        assert outs[0] == outs[1]

    def test_expectation_failure_exit_1(self, tmp_path):
        script = """\
ring F2[x,y,z]
ideal I = x*y, x*z, y*z
primes I = (x, y); (x, z); (y, z)
assert-fpure I
check fpure I n=2 expect=fails
"""
        code, out = self.run_script_text(tmp_path, script)
        assert code == 1 and "expectation(s) failed" in out

    def test_budget_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FROBLAB_MAX_PAIRS", "1")
        script = """\
ring F5[x,y,z]
ideal I = x^3*y + z^2, x*z^3 - y^2*x + 1, y^4*z - x
primes I = (x, y, z) heights=3
separator I = 1
assert-fpure I
check fpure I n=2
"""
        code, out = self.run_script_text(tmp_path, script)
        assert code == 3 and "budget" in out.lower()


BATTERY_HEAD = """\
ring F5[x,y,z]
ideal I = x, y
primes I = (x, y)
assert-fpure I
"""

# (statement, a fragment of its one error line); each must exit 2
DSL_ERRORS = [
    ("ideal = x", "bad ideal name ''"),
    ("primes I = (x) heights=a", "heights must be integers, not 'a'"),
    ("check fpure", "check needs an ideal name"),
    ("check fpure I n=abc", "n must be an integer, not 'abc'"),
    ("example xy-zk p=abc", "'abc'"),
    ("separator I =", "unexpected end of input"),
    ("ideal I = x,,y", "unexpected end of input"),
    ("ring F5[x,y,z] junk", "bad ring declaration: 'F5[x,y,z] junk'"),
    ("check jacobian-fpure I nn=9 emax=4 junk", "check jacobian-fpure takes no argument 'nn=9'"),
    ("check fpure I n=2 junk", "check fpure takes no argument 'junk'"),
    ("check fpure I n=2 expect=maybe", "expect is holds or fails, not 'maybe'"),
    ("check fpt I n=2 cap=4", "check fpt takes no argument 'cap=4'"),
    ("check symbolic-ie I floor=1", "check symbolic-ie takes no argument 'floor=1'"),
    ("check sfr I", "registry must assert R/Q strongly F-regular for this check"),
    ("check symbolic-ie I", "this check needs max_local_gens in the prime data"),
    ("example generic-determinantal d=2", "persistent degenerate draws"),
    ("example xy-zk q=3 junk n=1", "example xy-zk takes no argument 'q=3'"),
    ("example xy-zk n=1 junk", "example xy-zk takes no argument 'junk'"),
    ("example xy-zk n=1..y", "example xy-zk: n must be integers as a,b,... or a..b, not '1..y'"),
    ("example xy-zk n=1 seed=x", "example seed must be an integer, not 'x'"),
]


@pytest.mark.parametrize("statement,fragment", DSL_ERRORS, ids=[s for s, _ in DSL_ERRORS])
def test_dsl_error_exits_2_with_one_line(statement, fragment, tmp_path, capsys):
    path = tmp_path / "script.flb"
    path.write_text(BATTERY_HEAD + statement + "\nideal J = x\n")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    (line,) = captured.out.splitlines()
    assert line.startswith("error at line 5: ") and fragment in line, line


@pytest.mark.parametrize("statement,line", [
    ("check fpure J", "error at line 3: unknown ideal name 'J'"),
    ("ideal J = x + + y", "error at line 3: unexpected '+' (column 15)"),
    ("ideal J = x*y, x*z,, y*z", "error at line 3: unexpected end of input (column 20)"),
    ("ideal J = (x, y +)", "error at line 3: unexpected end of input (column 19)"),
    ("primes I = (x, y);  (x,  z^) mu=2", "error at line 3: expected integer exponent after"
     " '^' (column 29)"),
    ("separator I = y; x + * z", "error at line 3: unexpected '*' (column 22)"),
    ("hypersurface  x*y - z^", "error at line 3: expected integer exponent after '^' (column 23)"),
], ids=["statement", "polynomial", "generator-list", "parenthesized", "primes", "separator",
        "hypersurface"])
def test_dsl_error_names_one_position(statement, line, tmp_path):
    # a statement error names the script line only; an error inside
    # polynomial text adds its column in that line
    path = tmp_path / "script.flb"
    path.write_text(f"ring F5[x,y,z]\nideal I = x\n{statement}\n")
    out = io.StringIO()
    assert run_script(str(path), out=out) == 2
    assert out.getvalue() == line + "\n"


# (statement, its error): an integer a script gives outside an example's
# parameters names its key and the type expected
INTEGER_ERRORS = [
    ("primes I = (x, y);  (x,  z) mu=2 heights=1,+", "heights must be integers, not '+'"),
    ("primes I = (x, y) mu=two", "mu must be an integer, not 'two'"),
    ("check fpure I n=abc", "n must be an integer, not 'abc'"),
    ("check symbolic-ie I e=1.5", "e must be an integer, not '1.5'"),
    ("check sfr I cap=", "cap must be an integer, not ''"),
    ("check fpt I emax=x", "emax must be an integer, not 'x'"),
    ("check fpt I floor=half", "floor must be an integer, not 'half'"),
]


@pytest.mark.parametrize("statement,message", INTEGER_ERRORS,
                         ids=["heights", "mu", "n", "e", "cap", "emax", "floor"])
def test_script_integer_names_its_key(statement, message, tmp_path, capsys):
    path = tmp_path / "script.flb"
    path.write_text(f"ring F5[x,y,z]\nideal I = x, y\n{statement}\n")
    out = io.StringIO()
    assert run_script(str(path), out=out) == 2
    assert out.getvalue() == f"error at line 3: {message}\n"
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr() == (f"error at line 3: {message}\n", "")


def test_symbolic_heights_option_is_a_usage_error(capsys):
    # a symbolic power reads no heights, so the subcommand takes none
    argv = ["symbolic", "--ring", "F5[x,y,z]", "--ideal", "x, y", "--n", "2",
            "--separator", "x", "--heights", "abc"]
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2
    assert "unrecognized arguments: --heights abc" in capsys.readouterr().err


@pytest.mark.parametrize("example,param,message", [
    ("generic-determinantal", "d=abc", "d must be an integer, not 'abc'"),
    ("generic-determinantal", "j=2,x", "j must be integers as a,b,... or a..b, not '2,x'"),
    ("xy-zk", "p=", "p must be an integer, not ''"),
    # a range is not built before it runs, and its ends stay in the exponent range
    ("xy-zk", "n=1..2147483648", "n value 2147483648 beyond 2147483647"),
    ("xy-zk", "n=-99999999999999999999..1", "n value -99999999999999999999 beyond 2147483647"),
    # an empty range names no value to run
    ("generic-determinantal", "j=3..2", "j must be integers as a,b,... or a..b, not '3..2'"),
    ("xy-zk", "n=3..1", "n must be integers as a,b,... or a..b, not '3..1'"),
])
def test_bad_example_parameter_names_its_key(example, param, message, capsys):
    assert main(["example", example, "--param", param]) == 2
    assert capsys.readouterr().err == f"error: example {example}: {message}\n"


def test_example_modulus_is_checked_before_use(capsys):
    # p = 0 once reached k % p and exited 4 on a ZeroDivisionError
    assert main(["example", "xy-zk", "--param", "p=0"]) == 2
    assert capsys.readouterr().err == "error: modulus not prime: 0\n"


@pytest.mark.parametrize("param", ["bogus=3", "seed=3", "junk"])
def test_unknown_example_parameter_exits_2(param, capsys):
    assert main(["example", "xy-zk", "--param", "n=1", "--param", param]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: example xy-zk takes no argument {param!r}\n"


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt"
    assert main(["example", "xy-zk", "--param", "n=1", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not target.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("before", [None, "kept\n"], ids=["new", "existing"])
def test_failing_command_leaves_out_path_as_it_was(before, tmp_path, capsys):
    target = tmp_path / "x.txt"
    if before is not None:
        target.write_text(before)
    assert main(["example", "xy-zk", "--param", "bogus=3", "--out", str(target)]) == 2
    assert capsys.readouterr().out == ""
    assert (target.read_text() if target.exists() else None) == before


def test_out_path_may_be_the_script_it_runs(tmp_path, capsys):
    script = tmp_path / "s.flb"
    script.write_text("ring F5[x,y,z]\nideal I = x\ncheck fpure J\n")
    assert main(["run", str(script), "--out", str(script)]) == 2
    assert script.read_text() == capsys.readouterr().out != ""


@pytest.mark.parametrize("params", [["d=2"], ["size=1", "d=1"]])
def test_degenerate_determinantal_parameters_exit_2(params, capsys):
    argv = ["example", "generic-determinantal"]
    for param in params:
        argv += ["--param", param]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: persistent degenerate draws; seed range unusable\n"


@pytest.mark.parametrize("argv", [
    ["example", "xy-zk", "--param", "n=1", "--json"],
    ["example", "xy-zk", "--param", "n=1"],
    ["run", str(Path(__file__).resolve().parent / "golden" / "readme_script.flb"), "--json"],
    ["run", "missing-script.flb"],
], ids=["example-json", "example", "run", "run-error"])
def test_out_file_holds_the_stdout_bytes(argv, tmp_path, capsys):
    target = tmp_path / "out.txt"
    code = main(argv + ["--out", str(target)])
    captured = capsys.readouterr()
    assert code == main(argv)
    assert captured.out == capsys.readouterr().out == target.read_text()
    assert captured.out and captured.err == ""


class TestErrorExits:
    """Overflow exits 2, running out of memory 3 and an internal invariant
    failure 4, each with a one-line message and no traceback, from subcommands
    and from scripts."""

    # (patched module, attribute, replacement, argv) reaching each invariant check
    INVARIANTS = {
        "bracket power escaped I_e": (
            "froblab.frobenius", "ideal_subset", lambda *a, **k: (False, "x"),
            ["fpure", "--ring", "F5[x,y,z]", "--hypersurface", "x*y - z^2",
             "--ideal", "x, z"],
        ),
        "ordinary power escaped the symbolic power": (
            "froblab.symbolic", "ideal_subset", lambda *a, **k: (False, "x"),
            ["symbolic", "--ring", "F2[x,y,z]", "--ideal", "x*y, x*z, y*z",
             "--n", "2"],
        ),
        "inexact polynomial division": (
            "froblab.idealops", "ideal_intersect", lambda I, J: I,
            ["fpure", "--ring", "F5[x,y,z]", "--hypersurface", "x*y - z^2",
             "--ideal", "x, z"],
        ),
        "nu_e scan escaped its pigeonhole bound": (
            # an ideal not generated by monomials takes the frontier scan
            "froblab.frobenius", "Ie_maximal", lambda R, e: froblab.Ideal(R),
            ["fpt", "--ring", "F5[x,y]", "--ideal", "x^2+y^3,x*y", "--emax", "1"],
        ),
        "nu_e witness": (
            # each product of the program's dot products one too large: the
            # witness's exponents, sums of such products, pass q - 1
            "froblab.frobenius", "mul", lambda a, b: a * b + 1,
            ["fpt", "--ring", "F5[x,y]", "--ideal", "x^2,y", "--emax", "1"],
        ),
        "nu_e dual point": (
            # every LP dual point zeroed: the root's no longer bounds the program
            "froblab.frobenius", "_simplex",
            lambda A, b, real=froblab.frobenius._simplex: (
                lambda V, X, Y, D: (V, X, [0] * len(Y), D))(*real(A, b)),
            ["fpt", "--ring", "F5[x,y]", "--ideal", "x^2,y", "--emax", "1"],
        ),
    }

    def test_overflow_exit_2(self):
        proc = subprocess.run(
            RUN + ["fpure", "--ring", "F5[x,y,z]", "--hypersurface", "x*y-z^2",
                   "--ideal", "x,z", "--e", "14"],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: power degree beyond checked exponent range\n"

    def test_ideal_power_overflow_exits_2_at_once(self):
        # I^n's exponent check comes before any product, not after 2^30 of them
        start = time.perf_counter()
        proc = subprocess.run(
            RUN + ["symbolic", "--ring", "F2[x,y,z]", "--ideal", "x*y, y*z",
                   "--n", "2147483648"],
            capture_output=True, text=True, env=CHILD_ENV, timeout=20,
        )
        assert time.perf_counter() - start < 10
        assert proc.returncode == 2
        assert proc.stderr == "error: I^2147483648 has an exponent beyond 2147483647\n"

    def test_ideal_power_overflow_past_the_int_str_limit(self, tmp_path):
        # q = 2^14280 is under a cap of 4300 digits, and the symbolic exponent
        # n of I^n has 4301, more than str gives an int: the message says n
        path = tmp_path / "huge.flb"
        path.write_text("ring F2[x,y,z]\nideal I = x*y, x*z, y*z\n"
                        "primes I = (x, y); (x, z); (y, z) mu=2\nassert-fpure I\nassert-sfr I\n"
                        f"check symbolic-ie I n=100 e=14280 cap=1{'0' * 4299}\n")
        proc = subprocess.run(RUN + ["run", str(path)], capture_output=True, text=True,
                              env=CHILD_ENV, timeout=20)
        assert proc.returncode == 2
        assert proc.stdout == "error at line 6: I^n has an exponent beyond 2147483647\n"

    @pytest.mark.parametrize("argv,message", [
        (["fedder", "--ring", "F5[x,y,z]", "--ideal", "x*y"], "Frobenius power"),
        (["fpure", "--ring", "F5[x,y,z]", "--hypersurface", "x*y - z^2", "--ideal", "x, z"],
         "power degree"),
    ], ids=["fedder", "fpure"])
    def test_huge_e_exits_2_at_once(self, argv, message, capsys):
        # past e = 31 the range check needs no p^e, which has 23 million bits here
        start = time.perf_counter()
        assert main(argv + ["--e", "10000000"]) == 2
        assert time.perf_counter() - start < 10
        captured = capsys.readouterr()
        assert captured.err == f"error: {message} beyond checked exponent range\n"
        assert captured.out == ""

    def test_sfr_on_the_circle_exits_2_at_once(self, capsys):
        # f has a constant term, so no e decides and no colon is built; the
        # search runs into the exponent range at e = 13, as fpure --e 13 does
        start = time.perf_counter()
        assert main(["sfr", "--ring", "F5[x,y]", "--hypersurface", "x^2 + y^2 - 1",
                     "--ideal", "x, y - 1", "--c", "y", "--emax", "40"]) == 2
        assert time.perf_counter() - start < 10
        captured = capsys.readouterr()
        assert captured.err == "error: power degree beyond checked exponent range\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv,message", [
        # (z) does not contain x*y: the input is at fault, not the program
        (["--ideal", "x*y, y*z", "--n", "3", "--primes", "x,y;z"],
         "error: listed prime (z) misses x*y\n"),
        (["--ideal", "1", "--n", "2"], "error: the unit ideal has no minimal primes\n"),
    ], ids=["prime-misses-a-generator", "unit-ideal"])
    def test_symbolic_input_faults_exit_2(self, argv, message, capsys):
        assert main(["symbolic", "--ring", "F2[x,y,z]"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.err == message and captured.out == ""

    def test_overflow_in_script_names_line(self, tmp_path):
        path = tmp_path / "script.flb"
        path.write_text("ring F5[x,y,z]\nideal I = x, y\nideal J = x^2147483648\n")
        out = io.StringIO()
        assert run_script(str(path), out=out) == 2
        assert out.getvalue() == (
            "error at line 3: exponent 2147483648 beyond 2147483647\n"
        )

    @pytest.mark.parametrize("message", sorted(INVARIANTS))
    def test_internal_invariant_exit_4(self, message, monkeypatch, capsys):
        module, attr, fake, argv = self.INVARIANTS[message]
        monkeypatch.setattr(f"{module}.{attr}", fake)
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error:") and message in err
        assert err.count("\n") == 1

    def test_out_of_memory_exits_3(self, tmp_path, monkeypatch, capsys):
        # running out of memory (an unbounded ideal power under a memory limit)
        # ends as a spent budget does: exit 3 and one error line, no traceback
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("froblab.cli.symbolic_power", exhausted)
        assert main(["symbolic", "--ring", "F2[x,y,z]", "--ideal", "x*y, y*z", "--n", "2"]) == 3
        assert capsys.readouterr() == ("", "error: out of memory\n")
        monkeypatch.setattr("froblab.cli.execute_statement", exhausted)
        path = tmp_path / "script.flb"
        path.write_text("ring F5[x,y,z]\n")
        out = io.StringIO()
        assert run_script(str(path), out=out) == 3
        assert out.getvalue() == "error at line 1: out of memory\n"

    @pytest.mark.parametrize("value", ["abc", "-3", "0", "2.5", " 7"])
    def test_bad_max_pairs_exit_2(self, value, monkeypatch, capsys):
        monkeypatch.setenv("FROBLAB_MAX_PAIRS", value)
        code = main(["fpt", "--ring", "F5[x,y]", "--ideal", "x,y", "--emax", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: FROBLAB_MAX_PAIRS must be a positive integer, not {value!r}\n"

    @pytest.mark.parametrize("argv", [
        ["fpt", "--ring", "F5[x,y]", "--ideal", "x,y"],
        ["sfr", "--ring", "F5[x,y]", "--ideal", "x", "--c", "1"],
    ], ids=["fpt", "sfr"])
    def test_emax_zero_exit_2(self, argv, capsys):
        # 0 is a search depth, not "use the default"
        assert main(argv + ["--emax", "0"]) == 2
        assert capsys.readouterr().err == "error: e_max must be >= 1\n"

    def test_sfr_zero_test_element_exits_2(self, capsys):
        # a usage error, not an inconclusive search (exit 1)
        assert main(["sfr", "--ring", "F5[x,y]", "--ideal", "x", "--c", "0"]) == 2
        assert capsys.readouterr() == ("", "error: the test element 0 lies in every prime\n")

    def test_fpure_without_hypersurface_exits_2(self, capsys):
        assert main(["fpure", "--ring", "F5[x,y,z]", "--ideal", "x"]) == 2
        assert capsys.readouterr() == (
            "", "error: fpure needs --hypersurface (use fedder in a regular ring)\n")

    def test_emax_zero_in_script_names_line(self, tmp_path):
        path = tmp_path / "script.flb"
        path.write_text("ring F5[x,y,z]\nideal Q = x*y, x*z, y*z\n"
                        "primes Q = (x, y); (x, z); (y, z)\ncheck fpt Q n=2 emax=0\n")
        out = io.StringIO()
        assert run_script(str(path), out=out, as_json=True) == 2
        assert out.getvalue() == "error at line 4: e_max must be >= 1\n"

    def test_internal_invariant_in_script_names_line(self, tmp_path, monkeypatch):
        module, attr, fake, _ = self.INVARIANTS["bracket power escaped I_e"]
        monkeypatch.setattr(f"{module}.{attr}", fake)
        path = tmp_path / "script.flb"
        path.write_text(SCRIPT_OK.replace("check jacobian-fpure Q n=2", "check symbolic-ie Q n=1 e=1"))
        out = io.StringIO()
        assert run_script(str(path), out=out) == 4
        assert out.getvalue().startswith("error at line 9: internal error: bracket power")


class TestBudgetFromEnvironment:
    """Every subcommand runs in the scope of the budget FROBLAB_MAX_PAIRS
    sets, so a cap of one pair stops each at its first Buchberger run that
    needs a second pair."""

    README_SCRIPT = str(Path(__file__).parent / "golden" / "readme_script.flb")
    CONE = ["--ring", "F5[x,y,z]", "--hypersurface", "x*y - z^2"]
    COMMANDS = {
        "fedder": ["fedder", "--ring", "F7[x,y,z]", "--ideal", "x^3+y^3+z^3"],
        "fpure": ["fpure", *CONE, "--ideal", "x,z"],
        "sfr": ["sfr", *CONE, "--ideal", "x,z", "--c", "y"],
        "symbolic": ["symbolic", "--ring", "F5[x,y,z]", "--ideal", "y^2-x*z, x*y-z^2, x^2-y*z",
                     "--n", "2", "--separator", "x"],
        "containment": ["containment", "--ring", "F5[x,y,z]", "--lhs", "x",
                        "--rhs", "x^4*y + z^2, x*z^3 - y^2*x + 1, y^4*z - x"],
        # not generated by monomials, so nu_e scans against I_e(m), a colon
        "fpt": ["fpt", *CONE, "--ideal", "x+y^2,z", "--emax", "1"],
        "example": ["example", "xy-zk"],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_pair_exits_3(self, command, monkeypatch, capsys):
        argv = self.COMMANDS[command]
        assert main(argv) in (0, 1)  # the default budget suffices
        capsys.readouterr()
        monkeypatch.setenv("FROBLAB_MAX_PAIRS", "1")
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("budget exhausted: Buchberger exceeded 1 S-pairs; "
                                "raise the budget to proceed\n")

    def test_selftest_one_pair_exits_3(self, monkeypatch, capsys):
        # an exhausted budget stops the battery; it is not a failed check
        monkeypatch.setenv("FROBLAB_MAX_PAIRS", "1")
        assert main(["selftest"]) == 3
        captured = capsys.readouterr()
        assert "FAIL" not in captured.out
        assert captured.err == ("budget exhausted: Buchberger exceeded 1 S-pairs; "
                                "raise the budget to proceed\n")

    def test_script_one_pair_exits_3(self, monkeypatch, capsys):
        monkeypatch.setenv("FROBLAB_MAX_PAIRS", "1")
        assert main(["run", self.README_SCRIPT]) == 3
        captured = capsys.readouterr()
        assert captured.err == ""
        budget_lines = [line for line in captured.out.splitlines() if "budget" in line]
        assert budget_lines == ["budget exhausted at line 9: Buchberger exceeded 1 S-pairs; "
                                "raise the budget to proceed"]
        # an API caller of run_script is held to the same budget
        out = io.StringIO()
        assert run_script(self.README_SCRIPT, out=out) == 3
        assert out.getvalue().splitlines()[-1] == budget_lines[0]


def test_separator_before_ring_exits_2(tmp_path, capsys):
    path = tmp_path / "script.flb"
    path.write_text("separator Q = y\n")
    out = io.StringIO()
    assert run_script(str(path), out=out) == 2
    assert out.getvalue() == "error at line 1: no ring declared yet\n"
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("error at line 1: no ring declared yet\n", "")


def _plain_fields(pd):
    """pd's fields, with ideals and polynomials as generator strings."""
    def plain(value):
        if isinstance(value, tuple):
            return tuple(plain(v) for v in value)
        if isinstance(value, froblab.Ideal):
            return plain(tuple(value.gens))
        if isinstance(value, froblab.Polynomial):
            return froblab.format_poly(value)
        return value

    return {f.name: plain(getattr(pd, f.name)) for f in dataclasses.fields(pd)}


@pytest.mark.parametrize("statement,fields", [
    ("primes Q = x, z; y heights=1,2 mu=2",
     {"primes": (("x", "z"), ("y",)), "heights": (1, 2), "max_local_gens": 2}),
    ("embedded Q = x, y, z", {"power_embedded": (("x", "y", "z"),)}),
    ("separator Q = y; x", {"separators": ("y", "x")}),
    ("assert-fpure Q", {"asserted_fpure_quotient": True}),
    ("assert-sfr Q", {"asserted_sfr_quotient": True}),
    ("assert-finite-pd Q", {"asserted_finite_pd": True}),
])
def test_each_script_statement_sets_its_own_primedata_field(statement, fields):
    # a script's prime data is asserted radical; each statement sets only its fields
    session = Session()
    for line in ("ring F5[x,y,z]", "ideal Q = x, z", statement):
        execute_statement(session, line)
    want = _plain_fields(PrimeData(primes=(), asserted_radical=True)) | fields
    assert _plain_fields(session.primedata_for("Q")) == want


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            RUN + ["fedder", "--ring", "F7[x,y]", "--ideal", "x*y"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert "CONFIRMED" in proc.stdout

    def test_package_invocation_selftest(self):
        proc = subprocess.run(
            [sys.executable, "-m", "froblab", "selftest"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert "selftest: 0 failure(s)" in proc.stdout

    def test_import_loads_no_logging(self):
        # the one warning that logs imports logging where it fires
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, froblab, froblab.cli; print(sorted({'logging'} & set(sys.modules)))"],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


class TestHelp:
    def test_epilog_matches_readme(self):
        epilog = build_parser().epilog
        readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
        readme_exits = readme.split("Exit codes:")[1].split("Errors print")[0]
        assert (set(re.findall(r"\b(\d) [a-z]", epilog.split("Exit codes:")[1]))
                == set(re.findall(r"`(\d)`", readme_exits)) == set("01234"))
        for phrase in ("S-pairs of each Buchberger run separately", "2^31 - 1",
                       "internal invariant failed", "budget exhausted"):
            assert phrase in epilog and phrase in readme, phrase
