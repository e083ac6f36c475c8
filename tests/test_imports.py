"""Module boundaries: no mrplan module reaches into another one's private names,
and the package needs nothing outside the standard library."""
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
