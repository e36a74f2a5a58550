"""The shape of the package's functions, read from the source."""

import ast
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
