"""Code-hygiene rule pack.

- ``no-print``  library code must not write to stdout with ``print()``;
  measurements flow through the telemetry hub, and human
  output belongs to the user-facing surfaces. Modules whose dotted name
  ends in ``.cli``, ``.plots``, ``.tables`` or ``.__main__`` *are* those
  surfaces and are exempt (``repro.cli`` itself matches the ``.cli``
  suffix).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.framework import FileContext, Finding, Rule, register

#: Dotted-module suffixes that identify user-facing output surfaces.
_OUTPUT_SURFACE_SUFFIXES = (".cli", ".plots", ".tables", ".__main__")


def _is_output_surface(module: str) -> bool:
    return module.endswith(_OUTPUT_SURFACE_SUFFIXES)


@register
class NoPrintRule(Rule):
    id = "no-print"
    description = (
        "no print() in library code; emit telemetry events/metrics or "
        "return data — stdout belongs to CLI/plots/tables modules"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if _is_output_surface(ctx.module):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                yield ctx.finding(
                    node,
                    self.id,
                    f"print() in library module {ctx.module}",
                )
