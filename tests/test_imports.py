"""Module boundaries: no mrplan module reaches into another one's private names,
the package needs nothing outside the standard library, and no module-level
name is left defined but unread."""
import ast
import sys

from conftest import REPO

SRC = REPO / "src" / "mrplan"


def private_imports(path):
    tree = ast.parse(path.read_text())
    modules = set()  # local names bound to mrplan modules
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "mrplan"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    out.append(f"{path.name}:{node.lineno} imports {alias.name}")
                if node.module is None or node.module == "mrplan":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            out.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return out


def test_no_module_imports_private_names_of_another():
    found = [hit for path in sorted(SRC.rglob("*.py")) for hit in private_imports(path)]
    assert found == []


def test_package_imports_only_the_standard_library():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} imports {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names | {"mrplan"}]
    assert found == []


def module_level_names(path):
    """(where, name) for each function, class and assigned name at the top
    level of ``path``."""
    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out += [(f"{path.name}:{node.lineno}", name) for name in names]
    return out


def names_read(paths):
    """Every name loaded, and every attribute named, in ``paths``."""
    loaded = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return loaded


def test_no_private_name_is_left_unused():
    """Every module-level private name in the package is read somewhere in
    it, so a helper that a refactor strands fails here."""
    defined = [(where, name) for path in sorted(SRC.rglob("*.py"))
               for where, name in module_level_names(path)
               if name.startswith("_") and not name.startswith("__")]
    loaded = names_read(SRC.rglob("*.py"))
    assert defined
    assert [f"{where} defines {name}" for where, name in defined if name not in loaded] == []


def test_no_public_name_is_left_unused():
    """Every module-level public function, class or constant of the package
    is read somewhere in the package, its tests or the benchmark. The
    package's re-exports in ``mrplan/__init__.py`` do not count as a read."""
    defined = [(where, name) for path in sorted(SRC.rglob("*.py"))
               for where, name in module_level_names(path) if not name.startswith("_")]
    readers = [p for root in (SRC, REPO / "tests", REPO / "perfbench")
               for p in sorted(root.rglob("*.py")) if p != SRC / "__init__.py"]
    loaded = names_read(readers)
    assert defined
    assert [f"{where} defines {name}" for where, name in defined if name not in loaded] == []
