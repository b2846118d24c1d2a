"""Only the permutation-cluster layer of the package lists S_k.

`numerics.permutation_matrix(k)` lists all k! label permutations and refuses
k > 8.  Relabelling draws needs one gather row per draw, which
`numerics.permutation_rows` decodes, so a module that names
`permutation_matrix` outside `numerics`, which defines it, and `estimators`,
which builds the permutation clusters, brings the k! cost and the cap to a
path that does not need them.
"""

import ast
from pathlib import Path

import mixevidence

PACKAGE = Path(mixevidence.__file__).resolve().parent


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_only_numerics_and_estimators_reference_permutation_matrix():
    users = sorted(path.name for path in PACKAGE.glob("*.py")
                   if "permutation_matrix" in set(_names(ast.parse(path.read_text()))))
    assert users == ["estimators.py", "numerics.py"]
