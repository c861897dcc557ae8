"""README.md names only what the package has."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

#: a backticked dotted name under the package, like `cmadof.ga.evaluate`
NAME = re.compile(r"`(cmadof(?:\.\w+)+)`")


def resolves(name: str) -> bool:
    """Whether `name` is a module, or an attribute chain under the longest
    importable module prefix of it."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_every_backticked_package_name_resolves():
    names = set(NAME.findall(README.read_text(encoding="utf-8")))
    assert len(names) >= 19
    assert sorted(n for n in names if not resolves(n)) == []


def test_a_deleted_name_does_not_resolve():
    assert resolves("cmadof.channel.ChannelOperator.block")
    assert not resolves("cmadof.channel.ChannelOperator.gather")
    assert not resolves("cmadof.nomodule.name")
