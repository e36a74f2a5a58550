"""The shape of the package's functions, read from the source."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import multinv

SRC = Path(multinv.__file__).parent

# parameters that a calling convention requires but the body has no use for
UNREAD_BY_CONVENTION = {
    "cli.py cmd_selftest(_args)",  # every command is called as args.func(args)
}


def _unread_parameters():
    """``file function(parameter)`` for each parameter of a function or
    lambda in the package that its body never reads."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(node, "name", "lambda")
            for p in params:
                if p not in read and p not in ("self", "cls"):
                    yield f"{path.name} {name}({p})"


def test_every_parameter_is_read():
    unread = list(_unread_parameters())
    assert set(UNREAD_BY_CONVENTION) <= set(unread), "the walk misses an unread parameter"
    assert [u for u in unread if u not in UNREAD_BY_CONVENTION] == []


def _unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, ``__future__``
    features aside."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_every_import_is_used():
    """Every name a package module imports is read there; ``__init__.py``
    re-exports, which ``test_every_export_resolves`` checks."""
    planted = "from __future__ import annotations\nimport os.path\nimport numpy as np\nnp.eye(2)"
    assert _unused_imports(planted) == ["os"], "the walk misses an unused import"
    unused = [f"{path.name} {name}" for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py"
              for name in _unused_imports(path.read_text(encoding="utf-8"))]
    assert unused == []


def _private_imports(source: str) -> list[str]:
    """The underscore names that ``source`` imports from a package module."""
    return [a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").partition(".")[0] == "multinv")
            for a in node.names if a.name.startswith("_")]


def test_no_module_imports_a_private_name():
    """Package modules meet only at public names."""
    planted = ("from __future__ import annotations\nfrom os import _exit\n"
               "from .matgroup import MatGroup, _p_part\nfrom multinv.fparith import _echelon")
    assert _private_imports(planted) == ["_p_part", "_echelon"], "the walk misses a private import"
    private = [f"{path.name} {name}" for path in sorted(SRC.glob("*.py"))
               for name in _private_imports(path.read_text(encoding="utf-8"))]
    assert private == []


def test_every_export_resolves():
    """``__all__`` names exactly the public names that ``__init__.py`` binds,
    and each of them is an attribute of the package."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {name for name in bound if not name.startswith("_")}
    assert [name for name in multinv.__all__ if not hasattr(multinv, name)] == []
    assert sorted(public - set(multinv.__all__)) == []


# functions that no command reaches, each with the reason it stays
LIBRARY_ONLY = {
    "action.py stabilizer": "API: the stabilizer of a point; bench/checks.py checks witnesses with it",
    "cli.py build_parser": "API: the full parser, which parse_args matches reading each argument once",
    "cohomology.py FpResolution.check_complex": "test oracle: consecutive boundaries compose to 0",
    "cohomology.py FpResolution.is_minimal": "test oracle: boundaries in the augmentation ideal",
    "intlinalg.py Sublattice.__eq__": "lattice equality, for tests and callers",
    "intlinalg.py Sublattice.__hash__": "lattices as dict keys, with __eq__",
    "intlinalg.py Sublattice.__repr__": "printing a lattice (demos/01)",
    "intlinalg.py quotient_invariants": "API over the invariant factors that saturation reads",
    "matgroup.py MatGroup.__eq__": "group equality, for tests and callers",
    "matgroup.py MatGroup.__hash__": "groups as dict keys, with __eq__",
    "matgroup.py MatGroup.__repr__": "printing a group",
    "matgroup.py MatGroup.canonical_key": "API: the group's canonical form",
    "matgroup.py MatGroup.validate": "test oracle: re-checks the group axioms and the table",
    "matgroup.py trivial_group": "API: the trivial group, which generate builds from no list",
}

# Records (file, first line) of every package function called while every
# command runs on every corpus group, each --human render on one --input
# jobspec, and selftest.  The profile hook is set before the package is
# imported, so functions run at import time count.
_REACH_SCRIPT = """
import contextlib, io, json, os, sys, tempfile
src, called = sys.argv[1], set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(src):
        called.add((os.path.basename(frame.f_code.co_filename), frame.f_code.co_firstlineno))

sys.setprofile(profile)
from multinv.cli import main
from multinv.corpus import corpus_entry, corpus_names

with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    entry, path = corpus_entry("s3"), os.path.join(tmp, "job.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": entry.n, "p": entry.p, "generators": entry.generators,
                   "options": {"ball": 1, "audit": True}}, fh)
    for name in corpus_names():
        for argv in (["classify"], ["classify", "--audit"], ["analyze"], ["invariants"]):
            main(argv + ["--builtin", name])
        main(["cohomology", "--group", name])
    for command in ("classify", "analyze", "cohomology", "invariants"):
        main([command, "--input", path, "--human"])
    main(["selftest", "--human"])
sys.setprofile(None)
print(json.dumps(sorted(called)))
"""


def _functions(path):
    """(qualified name, first line) of each function in a source file; the
    first line of a decorated function is its first decorator's, as in its
    code object."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield (f"{prefix}{child.name}",
                       min([d.lineno for d in child.decorator_list] + [child.lineno]))
                yield from walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    return walk(ast.parse(path.read_text(encoding="utf-8")), "")


def test_every_function_is_reached_or_listed():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _REACH_SCRIPT, str(SRC) + os.sep], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    called = {tuple(c) for c in json.loads(proc.stdout)}
    never_called = {f"{path.name} {name}" for path in sorted(SRC.glob("*.py"))
                    for name, line in _functions(path) if (path.name, line) not in called}
    assert sorted(never_called - set(LIBRARY_ONLY)) == [], "no command reaches these"
    assert sorted(set(LIBRARY_ONLY) - never_called) == [], "a command reaches these now"
