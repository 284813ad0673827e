"""The package namespace: every module's public names, resolved on first
use, and each command loading only the modules it runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualquant
from dualquant import distributions, errors, quantiles, transforms, verify

MODULES = [distributions, errors, quantiles, transforms, verify]
LIBRARY = {"distributions", "quantiles", "transforms", "verify"}


def fresh(code: str):
    """Run ``code`` in a new interpreter that imports this package from
    where the tests do; return the JSON it prints on its last line."""
    src = str(Path(dualquant.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_public_name_is_exported_from_the_package(module):
    missing = [name for name in module.__all__
               if getattr(dualquant, name, None) is not getattr(module, name)]
    assert not missing


def test_no_module_imports_a_name_it_never_reads():
    # star imports re-export a module's names and __future__ imports set
    # compiler flags, so neither binds a name to be read
    unused = []
    for path in sorted(Path(dualquant.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound += [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [a.asname or a.name for a in node.names if a.name != "*"]
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}: {name}" for name in bound if name not in read]
    assert not unused


RAIN = ["--column", "pH", "--levels", "0.2,0.8"]


@pytest.mark.parametrize("args, loads, skips", [
    (["--help"], set(), LIBRARY),
    (["quantile", *RAIN], {"distributions", "quantiles"}, {"transforms", "verify"}),
    (["symmetry", *RAIN], {"distributions", "quantiles"}, {"transforms", "verify"}),
    (["transform", *RAIN, "--map", '{"kind": "negation"}'], LIBRARY - {"verify"}, {"verify"}),
], ids=["help", "quantile", "symmetry", "transform"])
def test_a_command_loads_only_the_modules_it_runs(args, loads, skips):
    loaded = fresh(f"""
import json, sys
import dualquant
from dualquant.cli import main
args = {args!r}
if args[0] != "--help":
    args.insert(1, str(dualquant.rain_csv_path()))
try:
    main(args, standalone_mode=False)
except SystemExit as exc:
    assert not exc.code, exc.code
print(json.dumps([m for m in sys.modules if m.startswith("dualquant.")]))
""")
    names = {m.removeprefix("dualquant.") for m in loaded}
    assert loads <= names and not skips & names


@pytest.mark.parametrize("args", [["--help"], ["quantile", *RAIN]], ids=["help", "quantile"])
def test_a_command_imports_nothing_outside_the_standard_library(args):
    # only what the command adds counts: site may have loaded more, through a .pth file
    added = fresh(f"""
import json, sys
before = set(sys.modules)
import dualquant
from dualquant.cli import main
args = {args!r}
if args[0] != "--help":
    args.insert(1, str(dualquant.rain_csv_path()))
try:
    main(args, standalone_mode=False)
except SystemExit as exc:
    assert not exc.code, exc.code
print(json.dumps(sorted(set(sys.modules) - before)))
""")
    outside = {m.partition(".")[0] for m in added} - sys.stdlib_module_names - {"dualquant"}
    assert outside == set()


def test_star_import_and_dir_give_every_public_name_once():
    got = fresh("""
import json
import dualquant
ns = {}
exec("from dualquant import *", ns)
print(json.dumps({"all": dualquant.__all__, "star": sorted(ns.keys() - {"__builtins__"}),
                  "dir": dir(dualquant)}))
""")
    public = [name for module in MODULES for name in module.__all__] + ["rain_csv_path"]
    assert sorted(got["all"]) == sorted(public) == sorted(set(public))
    assert got["star"] == sorted(public)
    assert set(public) <= set(got["dir"])


def test_an_unknown_name_raises_attribute_error_naming_it():
    got = fresh("""
import json, sys
import dualquant
before = [m for m in sys.modules if m.startswith("dualquant.")]
try:
    dualquant.no_such_name
except AttributeError as exc:
    print(json.dumps([before, str(exc)]))
""")
    assert got == [[], "module 'dualquant' has no attribute 'no_such_name'"]


def test_importing_the_cli_loads_no_library_module():
    # the package's own module files are found by name before any
    # ``__all__`` is read, and ``__main__``, which runs the CLI on import,
    # is never imported for an attribute
    got = fresh("""
import json, sys
import dualquant
from dualquant import cli
loaded = [m for m in sys.modules if m.startswith("dualquant.")]
print(json.dumps([loaded, cli is sys.modules["dualquant.cli"], hasattr(dualquant, "__main__"),
                  "dualquant.__main__" in sys.modules]))
""")
    assert got == [["dualquant.errors", "dualquant.cli"], True, False, False]
