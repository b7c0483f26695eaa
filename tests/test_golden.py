"""The --json contract: each command's output and exit code, byte for byte,
against a file under tests/golden/.

The commands are the README's examples (registry examples, the README script,
and one call of each subcommand, in S and in S/(f) where both exist). The
recorded outputs hold no wall-clock times. Re-record with
`PYTHONPATH=src python tests/test_golden.py` only for an intended output change.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from froblab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CONE = ["--ring", "F5[x,y,z]", "--hypersurface", "x*y - z^2"]

CASES = {
    "example_xy_zk": ["example", "xy-zk", "--param", "p=5", "--param", "k=2",
                      "--param", "n=1..2", "--json"],
    # the inhomogeneous ladder: Q^(kn+r) for k = 3 saturates by the Rabinowitsch trick
    "example_xy_zk_k3": ["example", "xy-zk", "--param", "p=7", "--param", "k=3",
                         "--param", "n=1..2", "--json"],
    "example_generic_determinantal": ["example", "generic-determinantal", "--param", "d=6",
                                      "--seed", "42", "--json"],
    # the failing branch: the witness and every witness_recheck flag
    "example_generic_determinantal_fails": ["example", "generic-determinantal", "--param",
                                            "d=3", "--seed", "42", "--json"],
    "readme_script": ["run", str(GOLDEN / "readme_script.flb"), "--json"],
    "fedder": ["fedder", "--ring", "F7[x,y,z]", "--ideal", "x^3+y^3+z^3", "--json"],
    "fpure": ["fpure", *CONE, "--ideal", "x, z", "--json"],
    "sfr_regular": ["sfr", "--ring", "F5[x,y]", "--ideal", "x", "--c", "1", "--emax", "3",
                    "--json"],
    "sfr_cone": ["sfr", *CONE, "--ideal", "x, z", "--c", "1", "--emax", "2", "--json"],
    # several test elements: 1 and y found by condition (2), x + z exhausts e = 1..2
    "sfr_cone_several": ["sfr", *CONE, "--ideal", "x, z", "--c", "1", "--c", "y",
                         "--c", "x + z", "--emax", "2", "--json"],
    # c = 1 found by condition (1) after the first element exhausted e = 1..2
    "sfr_regular_several": ["sfr", "--ring", "F7[x,y,z]", "--ideal", "x*y, y*z, x*z",
                            "--c", "x + y + z", "--c", "1", "--json"],
    "symbolic": ["symbolic", "--ring", "F2[x,y,z]", "--ideal", "x*y, x*z, y*z", "--n", "2",
                 "--json"],
    "containment_regular": ["containment", "--ring", "F5[x,y]", "--lhs", "x", "--rhs", "x^2",
                            "--json"],
    "containment_cone": ["containment", *CONE, "--lhs", "x*y, z", "--rhs", "z^2, x",
                         "--json"],
    "fpt": ["fpt", "--ring", "F5[x,y]", "--ideal", "x,y", "--emax", "2", "--json"],
}


def run_case(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    assert run_case(CASES[name]) == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_text(run_case(argv))
        print("recorded", name, file=sys.stderr)
