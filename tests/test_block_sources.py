"""One element budget sizes every batched loop of the package.

`model.KERNEL_BUDGET` counts the float64 elements of a block, and every
batched loop (`log_likelihood_batch`, `ConditioningSet.from_draws`,
`gibbs.permute_draws` and the block-density kernel) takes its block size
from it through `model._chunk_edges`.  A second module-level block size, a
name ending in `_CHUNK` or `_BUDGET`, would size a loop in its own units,
apart from the budget that the tests patch to split every loop into small
blocks, and its temporaries would grow with whatever it counts.
"""

import ast
from pathlib import Path

import mixevidence

PACKAGE = Path(mixevidence.__file__).resolve().parent


def _module_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            yield from (name.id for name in ast.walk(target) if isinstance(name, ast.Name))


def test_kernel_budget_is_the_only_block_size():
    sizes = sorted((path.name, name) for path in PACKAGE.rglob("*.py")
                   for name in _module_names(ast.parse(path.read_text()))
                   if name.endswith(("_CHUNK", "_BUDGET")))
    assert sizes == [("model.py", "KERNEL_BUDGET")]
