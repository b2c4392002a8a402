"""The protocol facts live in ``protocols.py`` alone.

``SLOTS`` and ``WEIGHTS`` say what each protocol measures and which
inequalities it evaluates; a module that branches on a dichotomic protocol
restates them.  Standard library only (``ast``): any comparison (``is``,
``is not``, ``==``, ``!=``, ``in``, ``not in``) with ``ProtocolId.A_ONLY`` or
``ProtocolId.B_ONLY`` as an operand, or inside one, fails outside
``protocols.py``.  Dispatch on ``ProtocolId.FULL``, which picks an analytic
engine, stays allowed.

The sampler's draws have one home too: ``montecarlo._draws`` has exactly one
caller in ``src/ncycle``, the one sampler loop ``_Sampler.tally``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ncycle"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "protocols.py")
DICHOTOMIC = {"A_ONLY", "B_ONLY"}
OPS = (ast.Is, ast.IsNot, ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def names_a_dichotomic_protocol(node: ast.AST) -> bool:
    """True if ``ProtocolId.A_ONLY`` or ``ProtocolId.B_ONLY`` (bare or qualified)
    appears anywhere in ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in DICHOTOMIC:
            owner = sub.value
            if "ProtocolId" in (getattr(owner, "id", None), getattr(owner, "attr", None)):
                return True
    return False


def restatements(tree: ast.Module) -> list[int]:
    """Line numbers of the comparisons against a dichotomic protocol."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, OPS) for op in node.ops)
        and any(names_a_dichotomic_protocol(x) for x in [node.left, *node.comparators])
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_branches_on_a_dichotomic_protocol(path):
    lines = restatements(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name} compares against ProtocolId.A_ONLY/B_ONLY at lines {lines}"


def test_guard_sees_the_branches_it_forbids():
    tree = ast.parse(
        "if p is ProtocolId.A_ONLY:\n    pass\n"
        "ok = p is ProtocolId.FULL\n"
        "x = p in (protocols.ProtocolId.B_ONLY,)\n"
        "y = ProtocolId.B_ONLY != q\n"
    )
    assert restatements(tree) == [1, 4, 5]


def draws_callers(tree: ast.Module) -> list[int]:
    """Line numbers of the calls to ``_draws``, bare or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "_draws" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


def test_draws_have_one_caller():
    callers = {
        p.name: lines
        for p in sorted(SRC.glob("*.py"))
        if (lines := draws_callers(ast.parse(p.read_text(encoding="utf-8"))))
    }
    assert sum(map(len, callers.values())) == 1, f"_draws is called at {callers}"


def test_draws_guard_sees_every_call():
    tree = ast.parse("a = _draws(s, ids, n)\nb = montecarlo._draws(s, ids, n)\n"
                     "c = _first_draws(s, ids, n)\nd = _draws\n")
    assert draws_callers(tree) == [1, 2]
