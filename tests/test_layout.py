"""Import layering, private attribute reads and the solver's documented
stop reasons, read from the source with ``ast``."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "framekit"
SOURCES = sorted(PACKAGE.glob("*.py"))
CLIENTS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
SUITE_API = {"PropertyCheck", "SUITES", "run_suite", "LIMITS"}
# the per-instance property functions the suites and the tests share
PROPERTY_SUFFIXES = ("_slack", "_slacks", "_violation")


def framekit_imports(path: Path):
    """Yield ``(module, name)`` for every import from a framekit module in
    ``path``; ``name`` is None for ``import framekit.x``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "framekit":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = ".".join(filter(None, ["framekit", node.module]))
            if module.split(".")[0] == "framekit":
                for alias in node.names:
                    yield module, alias.name


def modules_named(module: str, name: str | None) -> set:
    """The framekit modules one import loads: ``from framekit import cli``
    loads ``framekit.cli`` as well as ``framekit``."""
    if name is not None and (PACKAGE / f"{name}.py").is_file():
        return {module, f"{module}.{name}"}
    return {module}


def test_layout_files_found():
    assert len(SOURCES) > 10 and len(CLIENTS) > 10


def test_no_underscore_name_imported_from_another_module():
    found = [
        f"{path.name}: {module}.{name}"
        for path in SOURCES + CLIENTS
        for module, name in framekit_imports(path)
        if name is not None and name.startswith("_")
    ]
    assert found == []


def test_tests_and_demos_import_no_private_module():
    found = [
        f"{path.name}: {loaded}"
        for path in CLIENTS
        for module, name in framekit_imports(path)
        for loaded in modules_named(module, name)
        if any(part.startswith("_") for part in loaded.split("."))
    ]
    assert found == []


def test_only_cli_imports_verify_and_only_for_its_suites():
    importers = {
        path.name
        for path in SOURCES
        for module, name in framekit_imports(path)
        if "framekit.verify" in modules_named(module, name)
    }
    assert importers == {"cli.py"}
    # Tests and demos get their inputs from paulsen, never from verify; they
    # take from verify only its suites, limits and property functions.
    taken = [
        f"{path.name}: {name}"
        for path in CLIENTS
        for module, name in framekit_imports(path)
        if module == "framekit.verify"
        and name not in SUITE_API
        and not name.startswith("suite_")
        and not name.endswith(PROPERTY_SUFFIXES)
    ]
    assert taken == []


def private_attributes(tree: ast.Module) -> set:
    """The private names (one leading underscore) that the classes of a
    module hold: ``__slots__`` entries, class-body names and the
    ``self._name = ...`` targets of their methods."""
    found = set()
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    if isinstance(target, ast.Name) and target.id == "__slots__":
                        found.update(
                            c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
                        )
                    elif isinstance(target, ast.Name):
                        found.add(target.id)
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                found.add(node.attr)
    return {name for name in found if name.startswith("_") and not name.startswith("__")}


def test_no_private_attribute_read_across_modules():
    # A read of x._name, x not self, is another module's business when
    # _name belongs to a class defined there and to none defined here.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    owned = {name: private_attributes(tree) for name, tree in trees.items()}
    assert {"_vectors", "_eig"} <= owned["frames.py"] and "_rank" in owned["subspaces.py"]
    found = []
    for name, tree in trees.items():
        elsewhere = set().union(*(attrs for other, attrs in owned.items() if other != name))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
                and node.attr in elsewhere - owned[name]
            ):
                found.append(f"{name}:{node.lineno}: .{node.attr}")
    assert found == []


def _stop_reason_literals(func: ast.FunctionDef) -> set:
    """The string constants assigned to ``stop_reason`` in ``func``, alone or
    as part of a tuple assignment."""
    found = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            pairs = [(target, node.value)]
            if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                pairs = zip(target.elts, node.value.elts)
            for name, value in pairs:
                if isinstance(name, ast.Name) and name.id == "stop_reason":
                    found.add(value.value)
    return found


def test_stop_reasons_match_the_docs():
    tree = ast.parse((PACKAGE / "paulsen.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    in_code = _stop_reason_literals(defs["_newton_solve"])
    in_docstring = set(re.findall(r'"(\w+)"', ast.get_docstring(defs["PaulsenInstance"])))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    solver_section = readme.split("\n## The solver\n")[1].split("\n## ")[0]
    in_readme = set(re.findall(r"^\* `(\w+)`:", solver_section, flags=re.MULTILINE))
    assert in_code and in_code == in_docstring == in_readme
