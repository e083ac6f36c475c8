"""Module boundaries: no mrplan module reaches into another one's private names,
the package needs nothing outside the standard library, no module-level name
is left defined but unread, no imported name is left unread, no default
parameter is left unpassed, no one-against-many collision test bypasses
``geometry.collides_any``, the validator lays out no move with the layout
it checks, no loop leaves its ``enumerate`` index unread, and a ``plan``
command loads no dataclass, network or XML library, nor
``importlib.resources``."""
import ast
import os
import subprocess
import sys

from conftest import REPO, scenario

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


def imports(tree):
    """``(lineno, name, bound, module)`` for each name an import in ``tree``
    binds as ``bound``, ``from __future__`` aside: ``module`` is the module a
    ``from ... import`` takes ``name`` from, else None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield node.lineno, a.name, a.asname or a.name, node.module
        elif isinstance(node, ast.Import):
            for a in node.names:
                yield node.lineno, a.name, a.asname or a.name.split(".")[0], None


def test_no_imported_name_is_left_unread():
    """Every name an import binds in the package or its tests is read in that
    module, unless it is in the module's ``__all__`` or a module of the
    package, its tests or the benchmark imports it from this one (as
    ``search`` imports ``mip.BudgetExceeded``)."""
    paths = sorted(SRC.rglob("*.py")) + sorted((REPO / "tests").glob("*.py"))
    taken = {(module.split(".")[-1], name)
             for path in paths + sorted((REPO / "perfbench").glob("*.py"))
             for _, name, _, module in imports(ast.parse(path.read_text())) if module}
    unread = []
    for path in paths:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {elt.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                 for elt in node.value.elts}
        key = path.parent.name if path.stem == "__init__" else path.stem
        unread += [f"{path.relative_to(REPO)}:{line} imports {bound}"
                   for line, _, bound, _ in imports(tree)
                   if bound not in read and (key, bound) not in taken]
    assert unread == []


def calls_by_callee(paths):
    """Two maps from a callee's name, over every call in ``paths``: to the
    numbers of positional arguments its calls pass, and to the keywords they
    pass. A callee is the called ``Name`` or ``Attribute`` name, with a
    module's ``from ... import x as y`` aliases resolved back to ``x``."""
    positional, keywords = {}, {}
    for path in paths:
        tree = ast.parse(path.read_text())
        alias = {a.asname: a.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            name = alias.get(name, name)
            positional.setdefault(name, set()).add(len(node.args))
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    return positional, keywords


def functions(tree):
    """``(callee, fn)`` for each function definition in ``tree``: a class's
    ``__init__`` is called by the class's name, any other function by its own."""
    inits = {fn: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for fn in node.body if getattr(fn, "name", None) == "__init__"}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield inits.get(fn, fn.name), fn


def test_no_default_parameter_is_left_unpassed():
    """Every parameter with a default in a package function or constructor
    is passed, by position or by keyword, by some call in the package; a
    default that no caller overrides is a constant. ``cli.main(argv)`` is the
    console entry point, which the interpreter calls with no argument."""
    positional, keywords = calls_by_callee(sorted(SRC.rglob("*.py")))
    unpassed = []
    for path in sorted(SRC.rglob("*.py")):
        for callee, fn in functions(ast.parse(path.read_text())):
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args]
            defaults = dict(zip(params[len(params) - len(args.defaults):], args.defaults))
            defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                            if d is not None)
            if params[:1] in (["self"], ["cls"]):
                params = params[1:]
            for name in defaults:
                at = params.index(name) if name in params else None
                passed = (name in keywords.get(callee, ()) or (
                    at is not None and any(n > at for n in positional.get(callee, ()))))
                if not passed and (path.name, callee, name) != ("cli.py", "main", "argv"):
                    unpassed.append(f"{path.name}:{fn.lineno} {callee}({name})")
    assert unpassed == []


def unread_enumerate_indices(path):
    """``where index`` for each loop over ``enumerate(...)`` in ``path`` that
    never reads its index: a ``for`` statement's body and ``else``, or the
    rest of a comprehension."""
    out = []
    tree = ast.parse(path.read_text())
    loops = [(node, node.body + node.orelse) for node in ast.walk(tree)
             if isinstance(node, (ast.For, ast.AsyncFor))]
    loops += [(gen, [comp]) for comp in ast.walk(tree)
              if isinstance(comp, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
              for gen in comp.generators]
    for loop, body in loops:
        if not (isinstance(loop.iter, ast.Call) and getattr(loop.iter.func, "id", None)
                == "enumerate" and isinstance(loop.target, ast.Tuple)
                and isinstance(loop.target.elts[0], ast.Name)):
            continue
        index = loop.target.elts[0].id
        if not any(isinstance(n, ast.Name) and n.id == index and isinstance(n.ctx, ast.Load)
                   for stmt in body for n in ast.walk(stmt)):
            out.append(f"{path.relative_to(REPO)}:{loop.iter.lineno} {index}")
    return out


def test_no_enumerate_index_is_left_unread():
    """Every loop over ``enumerate(...)`` in the package, its tests or the
    benchmark reads the index it binds."""
    paths = [p for root in (SRC, REPO / "tests", REPO / "perfbench")
             for p in sorted(root.rglob("*.py"))]
    assert [hit for path in paths for hit in unread_enumerate_indices(path)] == []


def test_no_any_over_pairwise_collides():
    """No ``any(...)`` or ``all(...)`` in the package has a generator element
    that calls ``collides``: a test of one volume against many goes through
    ``geometry.collides_any``, which dispatches once and stops at the first
    hit, so each pair test keeps one definition."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("any", "all") and node.args
                    and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp,
                                                  ast.SetComp))):
                continue
            calls = [getattr(n.func, "id", getattr(n.func, "attr", None))
                     for n in ast.walk(node.args[0].elt) if isinstance(n, ast.Call)]
            if "collides" in calls:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_validator_does_not_use_the_layout_it_checks():
    """``validator`` derives each leg's ends itself; it neither imports nor
    reads ``motion.build_moves`` or the sweeps that lay out grounded moves,
    so a fault in that layout cannot pass its own check."""
    layout = {"build_moves", "gripper_sweep", "carry_sweep"}
    tree = ast.parse((SRC / "validator.py").read_text())
    used = {alias.name.split(".")[-1] for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    used |= names_read([SRC / "validator.py"])
    assert used & layout == set()


def plan_command_modules(tmp_path, *flags) -> set:
    """The modules loaded after a fresh interpreter, started with ``flags``,
    runs a whole ``plan`` command through ``mrplan.cli.main``."""
    code = ("import sys\n"
            "from mrplan.cli import main\n"
            "assert main(['plan', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "print(' '.join(sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = subprocess.run([sys.executable, *flags, "-c", code, str(scenario("unobstructed")),
                          str(tmp_path / "plan.json")],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert (tmp_path / "plan.json").read_text().startswith("{")
    return set(out.split())


def test_a_plan_command_loads_no_dataclass_network_or_xml_library(tmp_path):
    # every mrplan process pays for what it imports: dataclasses, the inspect
    # module it pulls in and the methods it generated cost about a third of a
    # process's time; xml.sax.saxutils alone pulls in urllib.request,
    # http.client and email
    loaded = plan_command_modules(tmp_path)
    assert sorted({"dataclasses", "inspect", "urllib.request", "http.client",
                   "xml.sax"} & loaded) == []


def test_a_plan_command_loads_no_importlib_resources(tmp_path):
    # importlib.resources pulls in typing, tempfile, zipfile and shutil; with
    # the site module off (-S), no .pth file can have imported it first
    assert "importlib.resources" not in plan_command_modules(tmp_path, "-S")
