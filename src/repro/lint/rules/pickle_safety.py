"""Pickle-safety family: trial callables must survive a process hop.

``run_trials`` fans trials out over a ``ProcessPoolExecutor`` when
``workers > 1``. A lambda or nested function cannot be pickled, so the
run raises the pickling error the first time it is fanned out. This
rule catches such a task at review time, before it runs: callables
handed to ``run_trials`` or an executor's ``submit`` must be
module-level (the trial-task dataclasses in ``core/parallel.py`` are
the intended vehicles).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..context import FileContext, nested_function_names
from ..findings import Finding
from ..registry import rule

#: call name -> (positional index, keyword name) of the trial callable.
_CALLABLE_SLOT = {
    "run_trials": (1, "trial_fn"),
    "submit": (0, None),
}


def _simple_call_name(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _callable_arg(
    node: ast.Call, index: int, keyword: Optional[str]
) -> Optional[ast.AST]:
    if keyword is not None:
        for kw in node.keywords:
            if kw.arg == keyword:
                return kw.value
    if len(node.args) > index:
        return node.args[index]
    return None


@rule(
    "pickle-nonportable-task",
    family="pickle-safety",
    rationale=(
        "lambdas/closures passed to run_trials/submit cannot cross "
        "the process boundary, so the run raises when fanned out; use "
        "a module-level trial task"
    ),
)
def check_nonportable_task(ctx: FileContext) -> Iterator[Finding]:
    nested = nested_function_names(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _simple_call_name(node)
        if name in _CALLABLE_SLOT:
            index, keyword = _CALLABLE_SLOT[name]
            arg = _callable_arg(node, index, keyword)
            offender = _nonportable(arg, nested)
            if offender is not None:
                yield _finding(ctx, node, name, offender)


def _nonportable(arg: Optional[ast.AST], nested: frozenset) -> Optional[str]:
    if isinstance(arg, ast.Lambda):
        return "a lambda"
    if isinstance(arg, ast.Name) and arg.id in nested:
        return f"nested function {arg.id!r}"
    return None


def _finding(
    ctx: FileContext, node: ast.Call, call: str, offender: str
) -> Finding:
    return Finding(
        rule_id="pickle-nonportable-task",
        path=ctx.path,
        line=node.lineno,
        col=node.col_offset,
        message=(
            f"{offender} passed to {call}() cannot be pickled; the "
            f"trial loop raises when fanned out — use a module-level "
            f"task (see core/parallel.py)"
        ),
    )
