"""Static checks on the package source."""

import ast
import sys
from collections import Counter
from pathlib import Path

import cycshift

PACKAGE = Path(cycshift.__file__).parent


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements, so invariant checks must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_imports_only_the_standard_library():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.split(".")[0]]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {top}" for top in tops
                      if top not in sys.stdlib_module_names]
    assert found == []


def test_package_leaves_no_import_unused():
    # perfbench/spans.py patches shiftgraph.deque and handles.words_with_evaluation,
    # so the names must stay importable
    allowed = {"shiftgraph.deque", "handles.words_with_evaluation"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= set(ast.literal_eval(node.value))
        found += [f"{path.stem}.{name}" for name in sorted(imported - used)]
    assert [name for name in found if name not in allowed] == []


def test_only_the_handles_list_a_class():
    # MonoidHandle.class_of lists a class by a walk, so no module filters an evaluation's words
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "words_with_evaluation"
    ]
    assert found == []


def test_only_follow_and_the_own_loops_build_a_path():
    # paths.follow checks every other builder's witnesses, so only it and the
    # hypo and sylv builders, which check their own steps, make a ShiftPath
    found = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ShiftPath"
    }
    assert "paths.py" in found and found <= {"paths.py", "hypoplactic.py", "sylvester.py"}


def _names_used(tree):
    """Every name a tree mentions: Name ids, attributes, import aliases, ``__all__``."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used.update({node.name.split(".")[-1], node.asname} - {None})
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def _module_refs(tree, stem):
    """The ``module.name`` references a tree of module ``stem`` makes.

    A bare name counts as ``stem.name``; ``mod.name`` and ``from .mod import
    name`` (or ``from pkg.mod import name``) count as ``mod.name``.
    """
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[f"{stem}.{node.id}"] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            refs[f"{node.value.id}.{node.attr}"] += 1
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.split(".")[-1]
            refs.update(f"{module}.{alias.name}" for alias in node.names)
    return refs


def test_every_definition_has_a_caller_outside_the_tests():
    bench = PACKAGE.parents[1] / "perfbench"
    sources = sorted(PACKAGE.glob("*.py")) + sorted(
        p for p in bench.glob("*.py") if not p.name.startswith("test_")
    )
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    # methods and nested functions: any attribute or name anywhere calls them
    used = sum((_names_used(tree) for tree in trees.values()), Counter())
    # module-level definitions: only a reference through their own module does
    refs = sum((_module_refs(tree, path.stem) for path, tree in trees.items()), Counter())
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        top = set(trees[path].body)
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = f"{path.stem}.{node.name}"
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            # a name only its own body mentions (a recursive helper) has no caller
            if node in top:
                callers = refs[name] - _module_refs(node, path.stem)[name]
            else:
                callers = used[node.name] - _names_used(node)[node.name]
            if callers <= 0:
                found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []


def _functools_caches(tree):
    """Each use of ``functools.cache`` or ``lru_cache`` as (line, name, bounded, inside a function).

    ``bounded`` holds for an ``lru_cache`` called with an integer ``maxsize``.
    A decorator runs where its ``def`` stands; the body runs inside a function.
    """
    aliases = {"functools.cache": "cache", "functools.lru_cache": "lru_cache"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            aliases.update({alias.asname or alias.name: alias.name for alias in node.names})

    def name_of(node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return aliases.get(f"{node.value.id}.{node.attr}")
        return aliases.get(node.id) if isinstance(node, ast.Name) else None

    found = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for child in getattr(node, "decorator_list", []):
                visit(child, inside)
            for child in node.body if isinstance(node.body, list) else [node.body]:
                visit(child, True)
            return
        name = name_of(node.func) if isinstance(node, ast.Call) else name_of(node)
        if name in ("cache", "lru_cache"):
            size = None
            if isinstance(node, ast.Call):
                given = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                size = given[0].value if given and isinstance(given[0], ast.Constant) else None
            bounded = name == "lru_cache" and type(size) is int
            found.append((node.lineno, name, bounded, inside))
            children = node.args + node.keywords if isinstance(node, ast.Call) else []
        else:
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child, inside)

    visit(tree, False)
    return found


def test_module_level_caches_are_bounded():
    # a cache outside a function lives as long as the process, so it must be an
    # lru_cache with an integer maxsize; functools.cache only lives in a call
    found, bounded = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for line, name, is_bounded, inside in _functools_caches(ast.parse(path.read_text(), str(path))):
            if is_bounded and not inside:
                bounded.add(path.stem)
            elif not inside:
                found.append(f"{path.name}:{line} {name}")
    assert found == []
    assert {"sylvester", "stalactic"} <= bounded
