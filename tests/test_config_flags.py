"""Every command-line setting has one declaration and one default.

A flag that sets an `ExperimentConfig` field is declared once in `cli`, in
the flag group of the settings it sets, and a subcommand takes the groups it
uses.  Its parsed default is `None` in every subcommand, so an unset flag
falls through to the config file or the `ExperimentConfig` default: a flag
declared a second time, with a default of its own, would give the same
setting two values depending on the subcommand.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from mixevidence import cli
from mixevidence.harness import ExperimentConfig

CLI_TREE = ast.parse(Path(cli.__file__).read_text())

# the arguments a subcommand needs before it parses at all
REQUIRED = {"gibbs": ["--out", "chain.csv"], "estimate": ["--estimator", "sym_is"]}


def _calls(name):
    return [node for node in ast.walk(CLI_TREE)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name]


SUBCOMMANDS = [call.args[0].value for call in _calls("add_parser")]


def test_every_flag_is_declared_once():
    flags = Counter(arg.value for call in _calls("add_argument") for arg in call.args
                    if isinstance(arg, ast.Constant))
    assert {flag: count for flag, count in flags.items() if count > 1} == {}


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_config_flags_default_to_none(command):
    given = REQUIRED.get(command, [])
    args = vars(cli.build_parser().parse_args([command, *given]))
    unset = {key: value for key, value in args.items()
             if key in ExperimentConfig.__dataclass_fields__ and f"--{key}" not in given}
    assert unset, f"{command} takes no config flag"
    assert {key: value for key, value in unset.items() if value is not None} == {}
