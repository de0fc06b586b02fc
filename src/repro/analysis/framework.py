"""frieda-lint core: findings, pragmas, rule registry, analysis driver.

The simulator documents contracts it cannot enforce at runtime — "two
runs with the same seeds replay identically" (``sim/kernel.py``),
"nothing in the library touches global NumPy/`random` state"
(``util/seeding.py``).  This package turns those documented invariants
into machine-checked ones: each rule walks a file's ``ast`` and emits
:class:`Finding`\\ s, which the CLI (``python -m repro.analysis``)
compares against a baseline file and reports.

Suppression is explicit and line-scoped::

    started = time.time()  # frieda: allow[wall-clock] -- user-facing timing

A pragma comment that is the *whole* line covers the following
statement (useful for multi-line calls), and
``# frieda: allow-file[rule-id]`` anywhere in a file suppresses the
rule for the entire file.  Every pragma should carry a justification
after ``--``; the pragma is the paper trail for a deliberate exception.
"""

from __future__ import annotations

import ast
import os
import re
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

#: Packages whose modules run *inside* the simulation: virtual time
#: only, no real I/O, no global randomness. ``runtime/`` is the real
#: execution plane and is deliberately not listed.
SIM_PACKAGES = (
    "repro.sim",
    "repro.cloud",
    "repro.core",
    "repro.engines",
    "repro.data",
)

_PRAGMA_RE = re.compile(r"#\s*frieda:\s*(allow|allow-file)\[([A-Za-z0-9_,\- ]+)\]")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    rule: str
    message: str

    @property
    def key(self) -> tuple[str, str, int]:
        """Identity used for baseline matching."""
        return (self.path, self.rule, self.line)

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


@dataclass
class FileContext:
    """Everything a rule needs to inspect one source file."""

    path: str
    module: str
    source: str
    tree: ast.Module
    line_pragmas: dict[int, set[str]] = field(default_factory=dict)
    file_pragmas: set[str] = field(default_factory=set)

    def in_package(self, *packages: str) -> bool:
        """True when this module lives under any of the dotted packages."""
        return any(
            self.module == pkg or self.module.startswith(pkg + ".")
            for pkg in packages
        )

    @property
    def is_simulation_module(self) -> bool:
        return self.in_package(*SIM_PACKAGES)

    def finding(self, node: ast.AST | int, rule: str, message: str) -> Finding:
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(self.path, line, rule, message)

    def suppressed(self, finding: Finding) -> bool:
        if finding.rule in self.file_pragmas:
            return True
        return finding.rule in self.line_pragmas.get(finding.line, ())


class Rule:
    """Base class for lint rules.

    Subclasses set ``id`` (the kebab-case name used in pragmas and
    reports) and ``description``, and implement :meth:`check`.
    """

    id: str = ""
    description: str = ""

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError


class ProjectRule:
    """Base class for whole-program rules.

    Where :class:`Rule` sees one file's AST, a project rule sees the
    :class:`repro.analysis.project.ProjectContext` — every module
    summary plus the derived call graph — and can emit findings that
    depend on cross-file facts (transitive reachability, lock
    discipline inferred over a whole file, protocol traffic between
    modules). Findings still point at one concrete source line, so the
    existing pragma/baseline machinery applies unchanged.
    """

    id: str = ""
    description: str = ""

    def check_project(self, project) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}
_PROJECT_REGISTRY: dict[str, ProjectRule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _REGISTRY[rule.id] = rule
    return cls


def register_project(cls: type[ProjectRule]) -> type[ProjectRule]:
    """Class decorator adding a whole-program rule to the registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"project rule {cls.__name__} has no id")
    if rule.id in _PROJECT_REGISTRY or rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _PROJECT_REGISTRY[rule.id] = rule
    return cls


def iter_rules() -> list[Rule]:
    """All registered rules, sorted by id."""
    _ensure_rules_loaded()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def iter_project_rules() -> list[ProjectRule]:
    """All registered whole-program rules, sorted by id."""
    _ensure_project_rules_loaded()
    return [_PROJECT_REGISTRY[rule_id] for rule_id in sorted(_PROJECT_REGISTRY)]


def all_rule_ids() -> set[str]:
    """Every known rule id, per-file and whole-program."""
    _ensure_rules_loaded()
    _ensure_project_rules_loaded()
    return set(_REGISTRY) | set(_PROJECT_REGISTRY)


def _ensure_rules_loaded() -> None:
    # Rule modules self-register on import; importing lazily here keeps
    # `from repro.analysis.framework import Finding` cheap and avoids
    # circular imports between framework and the rule packs.
    from repro.analysis import (  # noqa: F401
        rules_api,
        rules_boundary,
        rules_determinism,
        rules_hygiene,
        rules_process,
    )


def _ensure_project_rules_loaded() -> None:
    from repro.analysis import (  # noqa: F401
        rules_async,
        rules_locks,
        rules_protocol,
        rules_taint,
    )


# -- pragma parsing ---------------------------------------------------------

def parse_pragmas(source: str) -> tuple[dict[int, set[str]], set[str]]:
    """Extract ``# frieda: allow[...]`` pragmas from source text.

    Returns ``(line_pragmas, file_pragmas)``. A standalone pragma
    comment line also covers the *next* physical line, so multi-line
    statements can be annotated from above.
    """
    line_pragmas: dict[int, set[str]] = {}
    file_pragmas: set[str] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        for kind, raw_ids in _PRAGMA_RE.findall(text):
            rule_ids = {part.strip() for part in raw_ids.split(",") if part.strip()}
            if kind == "allow-file":
                file_pragmas |= rule_ids
            else:
                line_pragmas.setdefault(lineno, set()).update(rule_ids)
                if text.lstrip().startswith("#"):
                    line_pragmas.setdefault(lineno + 1, set()).update(rule_ids)
    return line_pragmas, file_pragmas


# -- AST helpers shared by rule packs ---------------------------------------

def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map names bound by imports to the dotted thing they refer to.

    ``import time as _t`` → ``{"_t": "time"}``,
    ``from datetime import datetime as dt`` → ``{"dt": "datetime.datetime"}``,
    ``import numpy.random`` → ``{"numpy": "numpy"}`` (attribute access
    still spells the full path).  Relative imports are left alone: they
    cannot name a stdlib module.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    aliases[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name != "*":
                    aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
    return aliases


def canonical_name(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Like :func:`dotted_name`, but with import aliases resolved.

    With ``import time as _t`` in scope, ``_t.time`` renders as
    ``time.time`` so name-based rules cannot be dodged by renaming.
    """
    dotted = dotted_name(node)
    if dotted is None:
        return None
    root, _, rest = dotted.partition(".")
    target = aliases.get(root)
    if target is None:
        return dotted
    return f"{target}.{rest}" if rest else target


def scope_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node``'s subtree without descending into nested functions."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(child))


def function_defs(tree: ast.Module) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def is_generator(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True when the function's own scope contains a yield."""
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom)) for node in scope_walk(fn)
    )


def statement_lists(node: ast.AST) -> Iterator[list[ast.stmt]]:
    """Every suite (body/orelse/finalbody/handler body) under ``node``."""
    for child in ast.walk(node):
        for attr in ("body", "orelse", "finalbody"):
            suite = getattr(child, attr, None)
            if isinstance(suite, list) and suite and isinstance(suite[0], ast.stmt):
                yield suite


# -- driver -----------------------------------------------------------------

def module_for_path(path: str) -> str:
    """Best-effort dotted module name for a file path.

    ``src/repro/sim/kernel.py`` → ``repro.sim.kernel``. Files outside a
    recognizable package root fall back to their stem, which keeps them
    out of the simulation-scoped rules unless the caller overrides
    ``module`` explicitly.
    """
    parts = os.path.normpath(path).split(os.sep)
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    anchor = None
    if "src" in parts:
        anchor = parts.index("src") + 1
    elif "repro" in parts:
        anchor = parts.index("repro")
    if anchor is None or anchor >= len(parts):
        return stem
    dotted = parts[anchor:-1] + ([] if stem == "__init__" else [stem])
    return ".".join(dotted) if dotted else stem


def load_context(
    path: str, *, source: str | None = None, module: str | None = None
) -> FileContext:
    if source is None:
        with open(path, "r", encoding="utf-8") as handle:  # frieda: allow[real-io]
            source = handle.read()
    tree = ast.parse(source, filename=path)
    line_pragmas, file_pragmas = parse_pragmas(source)
    return FileContext(
        path=path,
        module=module or module_for_path(path),
        source=source,
        tree=tree,
        line_pragmas=line_pragmas,
        file_pragmas=file_pragmas,
    )


def run_rules(
    ctx: FileContext,
    rules: Sequence[Rule] | None = None,
    *,
    timings: dict[str, float] | None = None,
) -> list[Finding]:
    findings: list[Finding] = []
    for rule in rules if rules is not None else iter_rules():
        if timings is not None:
            started = time.perf_counter()  # frieda: allow[wall-clock] -- lint --stats timing
        checked = [f for f in rule.check(ctx) if not ctx.suppressed(f)]
        if timings is not None:
            elapsed = time.perf_counter() - started  # frieda: allow[wall-clock] -- lint --stats timing
            timings[rule.id] = timings.get(rule.id, 0.0) + elapsed
        findings.extend(checked)
    return sorted(findings)


def analyze_source(
    source: str,
    *,
    path: str = "<memory>",
    module: str | None = None,
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    """Analyze in-memory source (used by tests to inject violations)."""
    return run_rules(load_context(path, source=source, module=module), rules)


def analyze_file(
    path: str,
    *,
    module: str | None = None,
    rules: Sequence[Rule] | None = None,
) -> list[Finding]:
    return run_rules(load_context(path, module=module), rules)


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames if d not in ("__pycache__", ".git")
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def analyze_paths(
    paths: Sequence[str],
    rules: Sequence[Rule] | None = None,
    *,
    timings: dict[str, float] | None = None,
) -> list[Finding]:
    """Analyze every ``.py`` file under ``paths`` (files or directories)."""
    findings: list[Finding] = []
    for file_path in iter_python_files(paths):
        # Key findings by the repo-relative posix path so baselines are
        # stable across machines and working directories.
        rel = os.path.relpath(file_path).replace(os.sep, "/")
        with open(file_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        ctx = load_context(rel, source=source)
        findings.extend(run_rules(ctx, rules, timings=timings))
    return sorted(findings)
