"""The benchmark scripts under bench/ import the program's public names.

Loading them here makes a deleted or renamed name fail the test suite
rather than the benchmark run.  `bench/run.py` imports the program inside
its functions, so every `from mixevidence... import` statement in both
scripts is also resolved name by name.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import mixevidence

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


@pytest.mark.parametrize("script", ["replay.py", "run.py"])
def test_bench_script_imports_resolve(script, monkeypatch):
    assert Path(mixevidence.__file__).resolve().parent == ROOT / "src" / "mixevidence"
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports its sibling `checks`
    path = BENCH / script
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))

    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mixevidence"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{script}: {node.module}.{alias.name}"
