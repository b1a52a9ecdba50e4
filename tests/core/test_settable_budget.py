"""Settable budget: the count of values a caller can set stays put.

A settable value is a parameter default (positional or keyword-only, in
any ``def`` or ``lambda``) or a class-level annotated assignment with a
value (a dataclass field default) anywhere under ``src/``; ``ClassVar``
annotations are constants, not settables. Every default is a knob some
caller may turn, and one that no run compares is surface to maintain. A
change that adds a knob raises :data:`BUDGET` and argues for it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Settable values under ``src/``.
BUDGET = 519


def settables(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.arguments):
            count += len(node.defaults)
            count += sum(default is not None for default in node.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            for statement in node.body:
                if (
                    isinstance(statement, ast.AnnAssign)
                    and statement.value is not None
                    and "ClassVar" not in ast.unparse(statement.annotation)
                ):
                    count += 1
    return count


def count_src() -> int:
    return sum(
        settables(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        for path in sorted(SRC.rglob("*.py"))
    )


def test_settables_within_budget():
    count = count_src()
    assert count <= BUDGET, (
        f"{count} settable values under src/, budget {BUDGET}: argue for "
        f"the new knob and raise BUDGET in the same change"
    )


def test_counter_sees_both_kinds():
    tree = ast.parse(
        "import dataclasses, typing\n"
        "def f(a, b=1, *, c=2, d):\n"
        "    return lambda x=3: x\n"
        "@dataclasses.dataclass\n"
        "class C:\n"
        "    e: int\n"
        "    g: int = 4\n"
        "    h: typing.ClassVar[int] = 5\n"
    )
    assert settables(tree) == 4
