"""Module boundaries: no mrplan module reaches into another one's private names."""
import ast

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
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in private_imports(path)]
    assert found == []
