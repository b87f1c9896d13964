"""The package's public names: each has a caller in the package or a stated reason."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "soclearn"


def exported_names() -> set:
    """Names ``soclearn/__init__.py`` imports from the package's modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def referenced_names() -> set:
    """Names the modules other than ``__init__`` load or read as attributes.

    A ``def`` or ``class`` line names its function or class without such
    a node, and ``__all__`` lists hold strings, so neither counts.
    """
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def kept_names() -> set:
    """Names of README's "Kept without a package caller" list.

    Each bullet opens with the backticked names it keeps, then a colon
    and the reason.
    """
    readme = (ROOT / "README.md").read_text()
    layout = readme.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    bullets = layout.split("\nKept without a package caller:\n\n", 1)[1].split("\n\n", 1)[0]
    names = set()
    for line in bullets.splitlines():
        if line.startswith("- "):
            head, reason = line[2:].split(": ", 1)
            assert reason.strip(), line
            names.update(name.strip(" `") for name in head.split(","))
    return names


def test_every_export_has_a_package_caller_or_a_stated_reason():
    exported, used, kept = exported_names(), referenced_names(), kept_names()
    assert kept <= exported, f"README keeps names the package does not export: {kept - exported}"
    uncalled = {name for name in exported if name not in used}
    assert uncalled - kept == set(), "exported for tests only; delete or state a reason in README"
    assert kept - uncalled == set(), "the package calls these now; drop them from README's list"
