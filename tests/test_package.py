"""The package namespace: every module's public names, re-exported as is."""

import ast
from pathlib import Path

import pytest

import dualquant
from dualquant import distributions, errors, quantiles, transforms, verify


@pytest.mark.parametrize("module", [distributions, errors, quantiles, transforms, verify],
                         ids=lambda m: m.__name__)
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
