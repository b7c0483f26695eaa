"""CLI surface: subcommands, the script DSL, exit codes, determinism."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import froblab
from froblab.cli import build_parser, main, run_script

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

    def test_symbolic(self):
        code, out = invoke([
            "symbolic", "--ring", "F2[x,y,z]", "--ideal", "x*y, x*z, y*z",
            "--n", "2", "--strategy", "monomial_combinatorial", "--json",
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
    ("primes I = (x) heights=a", "'a'"),
    ("check fpure", "check needs an ideal name"),
    ("check fpure I n=abc", "'abc'"),
    ("example xy-zk p=abc", "'abc'"),
    ("separator I =", "unexpected end of input"),
    ("ideal I = x,,y", "unexpected end of input"),
    ("ring F5[x,y,z] junk", "bad ring declaration: 'F5[x,y,z] junk'"),
    ("check jacobian-fpure I nn=9 emax=4 junk", "check jacobian-fpure takes no argument 'nn=9'"),
    ("check fpure I n=2 junk", "check fpure takes no argument 'junk'"),
    ("check fpure I n=2 expect=maybe", "expect is holds or fails, not 'maybe'"),
    ("check fpt I n=2 cap=4", "check fpt takes no argument 'cap=4'"),
    ("check symbolic-ie I floor=1", "check symbolic-ie takes no argument 'floor=1'"),
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


@pytest.mark.parametrize("example,param,message", [
    ("generic-determinantal", "d=abc", "d must be an integer, not 'abc'"),
    ("generic-determinantal", "j=2,x", "j must be integers as a,b,... or a..b, not '2,x'"),
    ("xy-zk", "p=", "p must be an integer, not ''"),
])
def test_bad_example_parameter_names_its_key(example, param, message, capsys):
    assert main(["example", example, "--param", param]) == 2
    assert capsys.readouterr().err == f"error: example {example}: {message}\n"


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
    """Overflow exits 2 and an internal invariant failure exits 4, each with a
    one-line message and no traceback, from subcommands and from scripts."""

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
             "--n", "2", "--strategy", "monomial_combinatorial"],
        ),
        "inexact polynomial division": (
            "froblab.idealops", "ideal_intersect", lambda I, J, budget=None: I,
            ["fpure", "--ring", "F5[x,y,z]", "--hypersurface", "x*y - z^2",
             "--ideal", "x, z"],
        ),
        "nu_e scan escaped its pigeonhole bound": (
            "froblab.frobenius", "Ie_maximal", lambda R, e, budget=None: froblab.Ideal(R),
            ["fpt", "--ring", "F5[x,y]", "--ideal", "x,y", "--emax", "1"],
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
