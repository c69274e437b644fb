"""The import sites that perfbench/selfcheck.py checks exist in the package.

selfcheck.py imports the tracer, so its BOUND_SITES list is read from the
source rather than by import.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SELFCHECK = ROOT / "perfbench" / "selfcheck.py"
PACKAGE = ROOT / "src" / "magmoments"


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


def test_unused_imports_are_listed_bound_sites():
    # A module-level import marked "# noqa: F401" keeps a name the module
    # does not read, for the tracer to wrap: each such name must be listed.
    listed = set(_bound_sites())
    unlisted = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            marked = any(
                "# noqa: F401" in line
                for line in lines[node.lineno - 1 : node.end_lineno]
            )
            if not (isinstance(node, (ast.Import, ast.ImportFrom)) and marked):
                continue
            unread = [
                alias.asname or alias.name
                for alias in node.names
                if (alias.asname or alias.name) not in read
            ]
            assert unread, f"{path.name}:{node.lineno} marks an import it reads"
            unlisted += [
                f"{path.stem}.{name}"
                for name in unread
                if (path.stem, name) not in listed
            ]
    assert unlisted == []
