"""The package's layering, and its public names: each has a package caller or a stated reason."""

import ast
import graphlib
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "soclearn"


def package_imports() -> dict:
    """The package modules each module imports, at any depth, function-level imports included."""
    graph = {}
    for path in PACKAGE.glob("*.py"):
        graph[path.stem] = {
            name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level
            for name in ([node.module.split(".")[0]] if node.module else
                         [alias.name for alias in node.names])
        }
    return graph


def test_model_is_a_leaf_and_the_imports_form_no_cycle():
    graph = package_imports()
    assert graph["model"] == set(), "model holds the model; what judges it lives elsewhere"
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError on a cycle


def top_level_definitions(tree) -> set:
    """Names a module's top level defines: functions, classes and assigned names, not imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(sub.id for target in targets for sub in ast.walk(target)
                         if isinstance(sub, ast.Name))
    return names


def test_each_name_is_defined_in_one_module():
    # one implementation per concept: a second module that needs a helper imports it
    owners = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for name in top_level_definitions(ast.parse(path.read_text())) - {"__all__"}:
            owners.setdefault(name, []).append(path.stem)
    twice = {name: modules for name, modules in owners.items() if len(modules) > 1}
    assert twice == {}, "defined in more than one module; keep one and import it"


def test_the_definition_guard_counts_assignments_and_not_imports():
    tree = ast.parse("import numpy as np\nfrom .model import _WORD\n"
                     "_A, (_B, _C) = 1, (2, 3)\n_D: int = 4\n__all__ = []\n"
                     "def f():\n    inner = 1\nclass K:\n    field = 2\n")
    assert top_level_definitions(tree) == {"_A", "_B", "_C", "_D", "__all__", "f", "K"}


def sites(node, hit, where: str) -> set:
    """``where.[Class.]function`` of each node under ``node`` for which ``hit`` holds."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= sites(child, hit, f"{where}.{child.name}")
            continue
        if hit(child):
            found.add(where)
        found |= sites(child, hit, where)
    return found


def calls(name: str):
    """The test whether a node calls ``name``, bare or as an attribute."""
    return lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def package_sites(hit) -> set:
    """``module.[Class.]function`` of each node of the package for which ``hit`` holds."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        found |= sites(ast.parse(path.read_text()), hit, path.stem)
    return found


def test_the_mixing_check_has_one_call_site():
    # Network's self-weight rule makes every round's matrix mix, so no round re-checks one
    assert package_sites(calls("_check_mixing")) == {"model.Network.__post_init__"}


def test_the_call_site_guard_sees_nested_and_attribute_calls():
    tree = ast.parse("class K:\n    def f(self):\n        m._c(g(_c))\n"
                     "        def h():\n            return [_c() for _ in x]\n_c()\n")
    assert sites(tree, calls("_c"), "mod") == {"mod.K.f", "mod.K.f.h", "mod"}


def is_one_minus_a_sum(node) -> bool:
    """Whether ``node`` is ``1 - <expression holding a sum call>``."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.Constant) and node.left.value == 1
            and any(map(calls("sum"), ast.walk(node.right))))


def test_the_self_weight_is_computed_once():
    # every self-weight, of a network or of one round's matrix, is 1 minus
    # the agent's edge weights, summed by the one function
    assert package_sites(calls("_self_weights")) == {
        "model.metropolis_weights", "model.Network.__post_init__", "switching._mixing_matrices"}
    assert package_sites(is_one_minus_a_sum) == {"model._self_weights"}


def test_the_self_weight_guard_sees_each_spelling():
    tree = ast.parse("def f(w):\n    return 1.0 - np.sum(w, axis=1) > 0.0\n"
                     "def g(w):\n    return 1 - w.sum(axis=1)\n"
                     "def h(w):\n    return 1.0 - w, 2.0 - w.sum(), w.sum() - 1.0\n")
    assert sites(tree, is_one_minus_a_sum, "mod") == {"mod.f", "mod.g"}


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
    "TrajectoryRecord.tv_series": "the TVs at the stored rounds, for library callers "
    "and the benchmark's history_bytes; ROADMAP item 12 deletes it once item 1 lands",
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


def is_read(node) -> bool:
    return isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)


def read_attributes() -> set:
    """Attribute names the modules other than ``__init__`` read (load context)."""
    return {node.attr for node in module_nodes() if is_read(node)}


def shared_names() -> set:
    """Bare names of more than one package class's fields and members, or of ``np.ndarray``'s.

    A read of such a name says nothing about which class it reads.
    """
    counts = Counter(entry.split(".")[1] for entry in dataclass_fields() | public_members())
    return {name for name, count in counts.items() if count > 1 or hasattr(np.ndarray, name)}


def class_reads() -> set:
    """``Class.name`` for each read whose class the source shows.

    That is ``self.name`` inside class ``Class``, or ``Class.name``
    itself, in any module other than ``__init__``.
    """
    reads = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            reads.update(f"{cls.name}.{node.attr}" for node in ast.walk(cls)
                         if is_read(node) and isinstance(node.value, ast.Name)
                         and node.value.id == "self")
        reads.update(f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                     if is_read(node) and isinstance(node.value, ast.Name))
    return reads


# Reads of a shared name whose class the source does not show, each as
# "Class.name": the package function that reads it, "module.function".
SHARED_READS = {
    "BaselineComparison.summary": "cli._cmd_compare",
    "BeliefState.agent_count": "learning.run_round",
    "BeliefState.state_count": "learning.run_round",
    "IdentifiabilityReport.summary": "cli._cmd_analyze",
    "LikelihoodModel.log_bound": "analysis.validate_assumptions",
    "StateSpace.size": "analysis.identifiability_report",
    "TrajectoryRecord.true_state_index": "harness.BaselineComparison.summary",
    "ValidationReport.summary": "cli._cmd_validate",
}


def function_reads(reader: str) -> set:
    """Attribute names read inside the function ``module.[Class.]function``."""
    module, *path = reader.split(".")
    node = ast.parse((PACKAGE / f"{module}.py").read_text())
    for name in path:
        node = next(item for item in node.body
                    if isinstance(item, (ast.ClassDef, ast.FunctionDef)) and item.name == name)
    return {sub.attr for sub in ast.walk(node) if is_read(sub)}


def read_entries(entries) -> set:
    """The ``Class.name`` entries the package reads.

    A name no other class and no ``np.ndarray`` has counts as read
    wherever it is read. A shared name counts only where its class is
    known: a ``class_reads`` entry, or a ``SHARED_READS`` entry.
    """
    shared, bare, known = shared_names(), read_attributes(), class_reads() | set(SHARED_READS)
    return {e for e in entries
            if (e in known if e.split(".")[1] in shared else e.split(".")[1] in bare)}


def test_shared_reads_name_a_shared_entry_and_its_reader():
    entries, shared, known = dataclass_fields() | public_members(), shared_names(), class_reads()
    for entry, reader in SHARED_READS.items():
        name = entry.split(".")[1]
        assert entry in entries, f"{entry} is gone"
        assert name in shared, f"{entry}: {name} is no longer shared; drop it from the table"
        assert entry not in known, f"{entry}: the source shows its class; drop it from the table"
        assert name in function_reads(reader), f"{reader} does not read {name}"


def test_the_layout_guards_tell_shared_names_apart():
    # state_labels is a field of both ExperimentConfig and IdentifiabilityReport,
    # and round a method of np.ndarray
    assert {"state_labels", "round", "summary"} <= shared_names()
    assert "IdentifiabilityReport.state_labels" in class_reads()
    assert "Prior.from_probabilities" in class_reads()
    assert read_entries({"Unread.state_labels", "Unread.round"}) == set()
    assert read_entries({"Unread.from_dict"}) == {"Unread.from_dict"}


def test_every_dataclass_field_is_read_or_has_a_stated_reason():
    fields = dataclass_fields()
    assert set(UNREAD_FIELDS) <= fields, "UNREAD_FIELDS names a field that is gone"
    unread = fields - read_entries(fields)
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
    members = public_members()
    assert set(UNREAD_MEMBERS) <= members, "UNREAD_MEMBERS names a member that is gone"
    unread = members - read_entries(members)
    assert unread - set(UNREAD_MEMBERS) == set(), "nothing in the package reads these; delete or state a reason"
    assert set(UNREAD_MEMBERS) - unread == set(), "the package reads these now; drop them from the list"
