"""Every span the benchmark's traced run wraps still names a callable.

``perfbench/traced_cli.py`` looks its ``SPANS`` up by name in the
``groupmds`` modules at run time, so a renamed or deleted function would
only show up when a traced benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


def _spans():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, name) for mod, names in module.SPANS.items() for name in names]


@pytest.mark.parametrize("module_name, name", _spans(), ids=lambda v: v)
def test_span_resolves_to_a_callable(module_name, name):
    target = importlib.import_module(f"groupmds.{module_name}")
    for attr in name.split("."):
        target = getattr(target, attr)
    assert callable(target)
