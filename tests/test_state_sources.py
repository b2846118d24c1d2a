"""A parameter state has one type in the package: a row of `model.ParamsBatch`.

`gibbs.GibbsChain` is a `ParamsBatch` subclass that adds only the draws'
allocations, so a chain goes wherever a batch does and needs no conversion.
A class outside `model` that declares its own weight, mean or variance
fields, or a `params_batch` conversion, would bring back a second
representation of the same state.  The one other class with such fields is
`datasets.MixtureSpec`, the generating mixture of a simulated dataset.
"""

import ast
from pathlib import Path

import mixevidence

PACKAGE = Path(mixevidence.__file__).resolve().parent

STATE_FIELDS = {"weights", "means", "variances"}


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def test_only_params_batch_declares_state_fields():
    declared = set()
    for module, tree in _trees():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and stmt.target.id in STATE_FIELDS):
                    declared.add((module, cls.name))
    # `MixtureSpec` is a generating mixture of (weights, means, sds) tuples
    # that simulates datasets; no estimator scores it
    assert declared == {("model.py", "ParamsBatch"), ("datasets.py", "MixtureSpec")}


def test_no_module_defines_or_calls_params_batch():
    users = set()
    for module, tree in _trees():
        for node in ast.walk(tree):
            if ((isinstance(node, ast.FunctionDef) and node.name == "params_batch")
                    or (isinstance(node, ast.Attribute) and node.attr == "params_batch")
                    or (isinstance(node, ast.Name) and node.id == "params_batch")):
                users.add(module)
    assert users == set()
