"""The normal log-density is written once, in `numerics.normal_logpdf_into`.

The Gibbs allocation step and the batched likelihood both weigh points by
w_i N(x_j; mu_i, v_i).  The likelihood and the allocation step's exact form,
`gibbs._sample_allocation`, write the density into their own buffers through
the in-place routine; the prior calls its wrapper, `normal_logpdf`.  The
quadratic form that regular states take instead comes from
`model.allocation_conditional`, and leaves out the LOG_2PI / 2 that every
component shares, so it needs no `LOG_2PI` either.  A module that imported
`LOG_2PI` to spell the formula out again would hold a second copy, free to
drift from the one the estimators' targets use.  The block-density kernel
alone folds the normal factor into its closed form.
"""

import ast
from pathlib import Path

import mixevidence

PACKAGE = Path(mixevidence.__file__).resolve().parent

ROUTINE = "normal_logpdf_into"


def _tree(module):
    return ast.parse((PACKAGE / module).read_text())


def _function(tree, name):
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _called_names(node):
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Name, ast.Attribute))}


def _log_2pi_uses(tree):
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Name) and node.id == "LOG_2PI")
                  or (isinstance(node, ast.Attribute) and node.attr == "LOG_2PI")
                  or (isinstance(node, ast.alias) and node.name == "LOG_2PI"))


def test_gibbs_does_not_import_log_2pi():
    assert _log_2pi_uses(_tree("gibbs.py")) == []


def test_allocation_step_and_likelihood_call_the_routine():
    assert ROUTINE in _called_names(_function(_tree("gibbs.py"), "_sample_allocation"))
    assert ROUTINE in _called_names(_function(_tree("model.py"), "log_likelihood_batch"))


def test_log_2pi_only_in_the_routine_and_the_kernel():
    """`numerics` defines `LOG_2PI` and uses it in the routine alone; `model`
    imports it and uses it in `ConditioningSet` alone, whose kernel adds the
    -k/2 log 2 pi of its closed form once per point."""
    users = {path.name for path in PACKAGE.glob("*.py") if _log_2pi_uses(ast.parse(path.read_text()))}
    assert users == {"numerics.py", "model.py"}
    numerics = _tree("numerics.py")
    definition = next(node for node in numerics.body if isinstance(node, ast.Assign)
                      and _log_2pi_uses(node.targets[0]))
    assert (set(_log_2pi_uses(numerics)) - {definition.lineno}
            == set(_log_2pi_uses(_function(numerics, ROUTINE))))
    tree = _tree("model.py")
    kernel = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "ConditioningSet")
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    outside = set(_log_2pi_uses(tree)) - set(_log_2pi_uses(kernel))
    assert outside == {line for node in imports for line in _log_2pi_uses(node)}
