"""Every name a groundlab module imports is used in that module, and every
public name it defines, and every public member of its classes, has a
reader other than its own unit tests.  A member is a method or property, an
annotated name in the class body (a dataclass field) or a `self.name = ...`
target in `__init__`; a field that only echoes an input back needs a reader
as much as a method does.

No linter ships with the toolchain, so this walks each module's syntax tree.
For imports, the package `__init__` is exempt (its imports are re-exports),
and so are `from __future__` imports.  A reader is any `src/groundlab`
module (the defining one outside the definition itself, and the `__init__`
re-exports included), a demo, `tests/test_acceptance.py` or a
`perfbench/*.py` file.

The member guard reads no types: any `.name` read counts as a reader of
every member called `name`, whatever object it is read from.  A `set.update`
call, a `str.encode` or another class's `to_json` therefore keeps a member of
that name alive with no reader of its own; seven test-only members once hid
so.  A new member with a common name (`update`, `to_json`, `cells`,
`encode`, `index`, ...) needs its reader checked by hand.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "groundlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """{bound name: line} for every import statement in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree):
    """Names the module reads, including those inside quoted annotations."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                out |= used_names(ast.parse(ann.value, mode="eval"))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


ROOT = SRC.parents[1]
# the readers a library name may have besides its own unit tests
READERS = sorted([*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"),
                  ROOT / "tests" / "test_acceptance.py",
                  *(ROOT / "perfbench").glob("*.py")])


def public_definitions(tree):
    """(name, node) of each top-level function, class or assigned name that
    does not start with an underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("_"))


def named(nodes):
    """Every name the nodes' code reads, imports or attributes, and every
    dotted identifier written as a string (perfbench's tracer names its
    targets so, as in "TorusConfig.__init__")."""
    out = set()
    for node in (n for top in nodes for n in ast.walk(top)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(p.isidentifier() for p in parts):
                out.update(parts)
    return out


def test_every_public_name_has_a_reader():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in READERS}
    reads = {path: named([tree]) for path, tree in trees.items()}
    orphans = []
    for path in MODULES:
        for name, definition in public_definitions(trees[path]):
            # its own module counts, outside the definition itself
            own = named(node for node in trees[path].body if node is not definition)
            if name not in own and not any(name in reads[other]
                                           for other in reads if other != path):
                orphans.append(f"{path.stem}.{name}")
    assert not orphans, ("public names that no command, demo, acceptance "
                         f"criterion or benchmark reads: {orphans}")


# public members kept without a reader, each for a stated reason
UNREAD_MEMBERS = {
    "perturbation.SelectorRule.admits":
        "the routing-word rule a selector pins, kept with its selector",
    "tiles.Tile.rotation":
        "the tileset JSON key, which the rotation tests read",
    "tiles.Violation.detail": "the pair of ids a violation names",
    "tiles.CountResult.nodes": "the budget a count used, which CI prints",
    "machines.RunResult.state":
        "the final state, compared by the universal-interpreter tests",
    "gibbs.MetropolisResult.config":
        "the final torus, which the identity tests rescan",
}


def public_members(tree):
    """(class name, member name, node) of each public member of a top-level
    class: a method or property, an annotated name in the class body (a
    dataclass field), or a `self.name = ...` target in `__init__`."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        members = []
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members.append((node.name, node))
                if node.name == "__init__":
                    members += [(sub.attr, sub) for sub in ast.walk(node)
                                if isinstance(sub, ast.Attribute)
                                and isinstance(sub.ctx, ast.Store)
                                and isinstance(sub.value, ast.Name)
                                and sub.value.id == "self"]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                members.append((node.target.id, node.target))
        yield from ((cls.name, name, node) for name, node in members
                    if not name.startswith("_"))


def member_reads(node):
    """Counter of the attribute names the node's code reads (`.name` loads
    only, so a variable of the same name does not count) and of each
    `Class.member` pair in a dotted string, as the tracer writes
    "TorusConfig.recompute_energy"."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if len(parts) > 1 and all(p.isidentifier() for p in parts):
                out.update(".".join(pair) for pair in zip(parts, parts[1:]))
    return out


def test_every_public_member_has_a_reader():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in READERS}
    reads = {path: member_reads(tree) for path, tree in trees.items()}
    orphans = []
    for path in MODULES:
        for cls, name, definition in public_members(trees[path]):
            # its own module counts, outside the member's own body
            own = reads[path] - member_reads(definition)
            if not any(r[name] or r[f"{cls}.{name}"]
                       for r in (own, *(reads[p] for p in reads if p != path))):
                orphans.append(f"{path.stem}.{cls}.{name}")
    unexpected = sorted(set(orphans) - set(UNREAD_MEMBERS))
    assert not unexpected, ("public members that no command, demo, acceptance "
                            f"criterion or benchmark reads: {unexpected}")
    stale = sorted(set(UNREAD_MEMBERS) - set(orphans))
    assert not stale, f"exempt members that now have a reader or are gone: {stale}"


WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def ci_snippet_names(text):
    """(the `from groundlab.X import` lines, the modules `from groundlab
    import` names, the names groundlab lacks) of a workflow text.  A `from
    groundlab import a, b` line must name modules, and each `a.Name`,
    `a.Name.attr` and `mock.patch.object(a.Name, "attr", ...)` in the text
    must then resolve.  The text is read, never run."""
    found = re.findall(r"^\s*from groundlab\.(\w+) import (.+)$", text, re.M)
    missing = [f"{module}.{name}" for module, names in found
               for name in map(str.strip, names.split(","))
               if not hasattr(importlib.import_module(f"groundlab.{module}"), name)]
    modules = {}
    for names in re.findall(r"^\s*from groundlab import (.+)$", text, re.M):
        for alias in map(str.strip, names.split(",")):
            try:
                modules[alias] = importlib.import_module(f"groundlab.{alias}")
            except ImportError:
                missing.append(f"groundlab.{alias}")
    if modules:
        alt = "|".join(map(re.escape, modules))
        chains = (re.findall(rf"(?<![\w.])({alt})\.(\w+)(?:\.(\w+))?", text)
                  + re.findall(rf'mock\.patch\.object\(({alt})\.(\w+),\s*"(\w+)"', text))
        for alias, *attrs in chains:
            obj, path = modules[alias], [alias]
            for attr in filter(None, attrs):
                path.append(attr)
                if not hasattr(obj, attr):
                    missing.append(".".join(path))
                    break
                obj = getattr(obj, attr)
    return found, modules, missing


def test_ci_snippets_import_existing_names():
    # the workflow's informational steps end in `|| true`, which would hide
    # an ImportError or AttributeError of a name a later change deletes
    found, modules, missing = ci_snippet_names(WORKFLOW.read_text())
    assert found and modules
    assert not missing, f"{WORKFLOW.name} reads names groundlab lacks: {missing}"


def test_ci_snippet_guard_sees_module_qualified_names():
    text = ("from groundlab import cli, machines, nosuch\n"
            "machines._Sweep = cli.main\n"
            "machines._Sweep._gone.append\n"
            'mock.patch.object(machines._Sweep, "_nope", 1)\n'
            "python -m groundlab.cli.absent\n")
    assert ci_snippet_names(text)[2] == ["groundlab.nosuch", "machines._Sweep._gone",
                                         "machines._Sweep._nope"]
