"""The block conditionals are written once, in `model`.

`gibbs.run_gibbs` draws every parameter block from `model.variance_conditional`,
`model.mean_conditional` and `model.beta_conditional`, called on one
component's Python floats, and `ConditioningSet` evaluates the same functions
on arrays.  A sweep that read the prior's `mean_var`, `var_scale` or
`var_shape` itself, for instance to hoist a conditional's constant out of its
per-component loop, would hold a second copy of a formula, free to drift
from the density the estimators evaluate.
"""

import ast
from pathlib import Path

import mixevidence

PACKAGE = Path(mixevidence.__file__).resolve().parent

CONDITIONAL_CONSTANTS = {"mean_var", "var_scale", "var_shape"}


def test_gibbs_reads_no_conditional_constant():
    tree = ast.parse((PACKAGE / "gibbs.py").read_text())
    reads = sorted(
        (node.lineno, name) for node in ast.walk(tree)
        for name in [node.attr if isinstance(node, ast.Attribute)
                     else node.value if isinstance(node, ast.Constant) else None]
        if name in CONDITIONAL_CONSTANTS
    )
    assert reads == []
