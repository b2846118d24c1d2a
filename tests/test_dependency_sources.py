"""The package imports numpy and the standard library, and no scipy module.

log Gamma is `numerics.log_gamma` and the relabelling's assignment is
`relabel._assign`, so nothing at run time needs scipy; the tests alone use
it, as a reference.  An import inside a function counts too: that is how
the assignment solver used to bring `scipy.optimize` into every replicate
that relabels.
"""

import ast
from pathlib import Path

import mixevidence

PACKAGE = Path(mixevidence.__file__).resolve().parent


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_scipy():
    users = sorted(path.name for path in PACKAGE.rglob("*.py")
                   if any(name.split(".")[0] == "scipy"
                          for name in _imported_modules(ast.parse(path.read_text()))))
    assert users == []


def test_the_guard_sees_an_import_inside_a_function():
    tree = ast.parse("def f():\n    from scipy.optimize import linear_sum_assignment\n")
    assert list(_imported_modules(tree)) == ["scipy.optimize"]
