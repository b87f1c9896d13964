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


def module_nodes():
    """Every AST node of the package's modules other than ``__init__``."""
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            yield from ast.walk(ast.parse(path.read_text()))


def referenced_names() -> set:
    """Names the modules other than ``__init__`` load or read as attributes.

    A ``def`` or ``class`` line names its function or class without such
    a node, and ``__all__`` lists hold strings, so neither counts.
    """
    names = set()
    for node in module_nodes():
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


# Dataclass fields that no module of the package reads, each with its reason.
UNREAD_FIELDS = {
    "TrajectoryRecord.tv_series": "the benchmark's history_bytes reads it; "
    "ROADMAP item 12 deletes it once item 1 lands",
    "TrajectoryRecord.stored_rounds": "perfbench checks the thinning rule with it, "
    "and library callers read log_beliefs by it",
}


def dataclass_fields() -> set:
    """``Class.field`` for every annotated field of every ``@dataclass`` in the package."""
    fields = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                fields.update(
                    f"{node.name}.{item.target.id}"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                )
    return fields


def read_attributes() -> set:
    """Attribute names the modules other than ``__init__`` read (load context)."""
    return {
        node.attr
        for node in module_nodes()
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_dataclass_field_is_read_or_has_a_stated_reason():
    fields, read = dataclass_fields(), read_attributes()
    assert set(UNREAD_FIELDS) <= fields, "UNREAD_FIELDS names a field that is gone"
    unread = {f for f in fields if f.split(".")[1] not in read}
    assert unread - set(UNREAD_FIELDS) == set(), "stored but never read; delete it or state a reason"
    assert set(UNREAD_FIELDS) - unread == set(), "the package reads these now; drop them from the list"


# Public methods and properties that no module of the package reads, each
# with its reason.
UNREAD_MEMBERS = {
    "ExperimentConfig.to_dict": "perfbench writes workload configs with it",
    "TrajectoryRecord.final_log_belief": "perfbench digests the final beliefs with it",
    "CommLedger.events": "perfbench counts ledger events with it",
}


def public_members() -> set:
    """``Class.name`` for every public method or property of every package class."""
    members = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                members.update(
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                )
    return members


def test_every_public_method_is_read_or_has_a_stated_reason():
    members, read = public_members(), read_attributes()
    assert set(UNREAD_MEMBERS) <= members, "UNREAD_MEMBERS names a member that is gone"
    unread = {m for m in members if m.split(".")[1] not in read}
    assert unread - set(UNREAD_MEMBERS) == set(), "nothing in the package reads these; delete or state a reason"
    assert set(UNREAD_MEMBERS) - unread == set(), "the package reads these now; drop them from the list"
