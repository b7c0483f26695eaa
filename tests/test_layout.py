"""Import lint over the package sources: every import is the standard
library's or froblab's own, so the package has no dependency; every imported
name is used; only rings (which defines them) and the membership oracle in
idealops touch the mono_* exponent-tuple helpers; in idealops only that oracle
reads exponent tuples (.terms), so its ring changes stay with
Polynomial.in_ring; only the kernel, rings and groebner, touches the packing,
a polynomial's packed terms or the constructor that takes them, so only it
knows how monomials are stored; no layer takes a Groebner budget as a
parameter, since the kernel reads the budget of the enclosing with scope; only
cli._failure maps an exception to a failing exit code; and the sources stay
within their line budget."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "froblab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# (module, function) allowed to use a mono_* helper: the independent oracle
MONO_USERS = {("idealops", "brute_membership_oracle")}
LINE_BUDGET = 4090  # ROADMAP's standing rule for wc -l src/froblab/*.py


def imported_names(tree):
    """(bound name, imported name) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*" and not (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"
                ):
                    yield (alias.asname or alias.name).split(".")[0], alias.name


def loaded_names(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and not node.level]  # level > 0: froblab's
    outside = sorted({m for m in modules
                      if m.split(".")[0] not in sys.stdlib_module_names | {"froblab"}})
    assert not outside, f"{path.name} imports from outside the standard library: {outside}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = loaded_names(tree)
    unused = sorted(bound for bound, _ in imported_names(tree) if bound not in used)
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def mono_uses(node):
    return [n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id.startswith("mono_")]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.stem != "rings"], ids=lambda p: p.stem
)
def test_mono_helpers_stay_out_of_the_kernel(path):
    tree = ast.parse(path.read_text())
    imported = {name for _, name in imported_names(tree) if name.startswith("mono_")}
    allowed = [
        use
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and (path.stem, node.name) in MONO_USERS
        for use in mono_uses(node)
    ]
    assert imported <= set(allowed), f"{path.name} imports {sorted(imported - set(allowed))}"
    assert len(mono_uses(tree)) == len(allowed), f"{path.name} uses mono_* outside the oracle"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.stem not in ("rings", "groebner")], ids=lambda p: p.stem
)
def test_packing_stays_in_the_kernel(path):
    tree = ast.parse(path.read_text())
    names = [n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
    names += [n.id for n in ast.walk(tree) if isinstance(n, ast.Name)]
    names += [name for _, name in imported_names(tree)]
    # _pack* covers _packing, _packed (a polynomial's terms) and _packed_reducers
    touched = sorted({n for n in names if n.startswith("_pack") or n == "_from_packed"})
    assert not touched, f"{path.name} touches the packed storage: {touched}"


def terms_reads(node):
    return [n for n in ast.walk(node) if isinstance(n, ast.Attribute) and n.attr == "terms"]


def test_idealops_reads_exponent_tuples_only_in_the_oracle():
    tree = ast.parse((SRC / "idealops.py").read_text())
    oracle = [node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "brute_membership_oracle"]
    allowed = sum(len(terms_reads(node)) for node in oracle)
    assert len(terms_reads(tree)) == allowed, "idealops reads .terms outside the oracle"


def takes_budget(fn):
    args = fn.args
    return "budget" in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def public_functions(tree):
    """(name, node) of the module's public functions and of its public
    classes' public and dunder methods."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and (
                        not fn.name.startswith("_") or fn.name.startswith("__")):
                    yield f"{node.name}.{fn.name}", fn


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_budget_parameter(path):
    """Outside groebner no function takes a budget, and in groebner no public
    one does: every run reads the budget of its with scope."""
    tree = ast.parse(path.read_text())
    if path.stem == "groebner":
        found = [name for name, fn in public_functions(tree) if takes_budget(fn)]
    else:
        found = [getattr(fn, "name", "<lambda>") for fn in ast.walk(tree)
                 if isinstance(fn, (ast.FunctionDef, ast.Lambda)) and takes_budget(fn)]
    assert not found, f"{path.name}: {found} take a budget parameter"


def test_one_failure_map():
    """EXIT_USAGE, EXIT_BUDGET and EXIT_INTERNAL are read only in cli._failure,
    so the subcommands and the script runner share one exception-to-exit map."""
    tree = ast.parse((SRC / "cli.py").read_text())
    inside = {id(n) for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "_failure"
              for n in ast.walk(fn)}
    reads = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
             and n.id in ("EXIT_USAGE", "EXIT_BUDGET", "EXIT_INTERNAL")]
    assert reads and all(id(n) in inside for n in reads), (
        f"exit codes read outside cli._failure at lines {[n.lineno for n in reads if id(n) not in inside]}")


def test_sources_stay_within_the_line_budget():
    total = sum(len(p.read_text().splitlines()) for p in SRC.glob("*.py"))
    assert total <= LINE_BUDGET, f"src/froblab/*.py has {total} lines, over {LINE_BUDGET}"
