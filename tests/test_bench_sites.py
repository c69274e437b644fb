"""The import sites that perfbench/selfcheck.py checks exist in the package.

selfcheck.py imports the tracer, so its BOUND_SITES list is read from the
source rather than by import.
"""

import ast
import importlib
from pathlib import Path

SELFCHECK = Path(__file__).resolve().parents[1] / "perfbench" / "selfcheck.py"


def _bound_sites():
    for node in ast.parse(SELFCHECK.read_text()).body:
        if isinstance(node, ast.Assign) and [
            getattr(target, "id", None) for target in node.targets
        ] == ["BOUND_SITES"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no BOUND_SITES assignment in {SELFCHECK}")


def test_every_bound_site_resolves():
    sites = _bound_sites()
    assert sites
    missing = [
        f"magmoments.{module}.{name}"
        for module, name in sites
        if not hasattr(importlib.import_module(f"magmoments.{module}"), name)
    ]
    assert missing == []
