"""The package names that the benchmark in bench/ wraps must exist.

The benchmark replaces package functions by (module, attribute) name while
it traces a job. A rename or deletion would break `bench/run.py --trace 1`
without failing any other test, so the names are read here from the
benchmark's sources (parsed, not imported) and looked up on the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def assigned(filename, name):
    """The literal value assigned to `name` at the top of a bench module."""
    tree = ast.parse((BENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{filename} assigns no {name}")


HOOKS = sorted({(target[0], target[1])
                for target in assigned("tracing.py", "TARGETS")
                + assigned("harness.py", "TICK_TARGETS")})


@pytest.mark.parametrize("module, attribute", HOOKS,
                         ids=[f"{m}.{a}" for m, a in HOOKS])
def test_bench_target_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))


def test_traced_singulars_is_a_property():
    from cmadof.channel import ChannelOperator

    assert isinstance(ChannelOperator.__dict__["singulars"], property)
