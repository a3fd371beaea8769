"""The ``reprolint`` engine: rule registry, suppressions, file walking.

Rules are small classes registered with :func:`lint_rule`; each one
inspects a parsed module (:class:`ModuleInfo`) and yields raw findings.
The engine handles everything rule-independent: discovering ``.py``
files, parsing, inline suppressions, severity overrides and assembling
the :class:`~repro.analysis.findings.FindingsReport`.

Suppressions are source comments::

    raise AttributeError(...)  # reprolint: disable=REP001 -- why it is ok
    # reprolint: disable-file=REP005 -- whole-module opt-out

A line-level ``disable`` silences the listed codes on that line only; a
``disable-file`` silences them for the whole module. The ``-- reason``
trailer is encouraged (and what code review should look for) but not
enforced by the engine. Suppressions that no longer silence anything
are themselves flagged (REP016) on full runs, so dead opt-outs cannot
accumulate.

Comments are found with :mod:`tokenize`, not a per-line regex, so a
suppression *example inside a string or docstring* (like the ones
above) is never treated as a real suppression.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.analysis.findings import (
    FindingsReport,
    Severity,
    finding_fingerprint,
)
from repro.errors import AnalysisError
from repro.monitoring import counters

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable(?:-file)?)\s*=\s*([A-Z0-9,\s]+?)(?:\s*--.*)?$"
)


@dataclass(frozen=True)
class SuppressionComment:
    """One parsed ``# reprolint: disable[...]`` comment."""

    line: int
    kind: str  # 'line' | 'file'
    codes: frozenset[str]
    has_reason: bool


@dataclass
class ModuleInfo:
    """One parsed source module handed to every applicable rule."""

    path: str
    rel_path: str
    source: str
    tree: ast.Module
    line_suppressions: dict[int, set[str]] = field(default_factory=dict)
    file_suppressions: set[str] = field(default_factory=set)
    suppression_comments: list[SuppressionComment] = field(
        default_factory=list
    )

    @property
    def in_package_root(self) -> bool:
        return "/" not in self.rel_path

    def top_dir(self) -> str:
        """First path segment below the lint root ('' for root files)."""
        return self.rel_path.split("/", 1)[0] if "/" in self.rel_path else ""

    _symbol_spans: list[tuple[int, int, str]] | None = None

    def qualified_symbol(self, line: int) -> str:
        """The innermost def/class enclosing ``line`` ('<module>' if none)."""
        if self._symbol_spans is None:
            spans: list[tuple[int, int, str]] = []

            def visit(node: ast.AST, prefix: str) -> None:
                for child in ast.iter_child_nodes(node):
                    if isinstance(
                        child,
                        (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                    ):
                        qual = prefix + child.name
                        start = min(
                            [child.lineno]
                            + [d.lineno for d in child.decorator_list]
                        )
                        spans.append(
                            (start, child.end_lineno or child.lineno, qual)
                        )
                        visit(child, qual + ".")
                    else:
                        visit(child, prefix)

            visit(self.tree, "")
            self._symbol_spans = spans
        best = "<module>"
        best_size: int | None = None
        for start, end, qual in self._symbol_spans:
            if start <= line <= end:
                size = end - start
                if best_size is None or size < best_size:
                    best, best_size = qual, size
        return best


@dataclass(frozen=True)
class RawFinding:
    """A rule observation before suppression/severity resolution."""

    line: int
    col: int
    message: str


class LintRule:
    """Base class for reprolint rules.

    Subclasses set ``code``, ``name``, ``description`` and
    ``default_severity``, and implement :meth:`check`. Path scoping is
    declarative: ``only_dirs`` restricts a rule to top-level package
    directories, ``only_files`` to specific package-relative paths
    (matched by full relative path, or by basename so linting a single
    file directly still applies the rule), and ``exempt_files`` lists
    package-relative paths the rule never applies to.
    """

    code: str = ""
    name: str = ""
    description: str = ""
    default_severity: Severity = Severity.ERROR
    only_dirs: tuple[str, ...] | None = None
    only_files: tuple[str, ...] | None = None
    exempt_files: tuple[str, ...] = ()

    def applies_to(self, module: ModuleInfo) -> bool:
        if module.rel_path in self.exempt_files:
            return False
        if self.only_files is not None:
            basenames = {path.rsplit("/", 1)[-1] for path in self.only_files}
            return (
                module.rel_path in self.only_files
                or module.rel_path in basenames
            )
        if self.only_dirs is not None:
            return module.top_dir() in self.only_dirs
        return True

    def check(self, module: ModuleInfo) -> Iterable[RawFinding]:
        raise NotImplementedError


_REGISTRY: dict[str, type[LintRule]] = {}


def lint_rule(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator registering a rule under its ``code``."""
    if not cls.code:
        raise AnalysisError(f"rule {cls.__name__} has no code")
    if cls.code in _REGISTRY:
        raise AnalysisError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> list[type[LintRule]]:
    """Registered rule classes, ordered by code."""
    _ensure_rules_loaded()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> type[LintRule]:
    _ensure_rules_loaded()
    try:
        return _REGISTRY[code]
    except KeyError:
        raise AnalysisError(
            f"unknown rule {code!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def _ensure_rules_loaded() -> None:
    # The built-in rules self-register on import; keep the import here
    # so ``lint`` stays importable from ``rules`` without a cycle.
    import tools.reprolint.rules  # noqa: F401  (registration side effect)


# -- discovery & parsing ----------------------------------------------------


def iter_python_files(paths: Iterable[str]) -> Iterator[tuple[str, str]]:
    """Yield (absolute_path, rel_path) for every ``.py`` under ``paths``."""
    for root in paths:
        root = os.path.abspath(root)
        if os.path.isfile(root):
            yield root, os.path.basename(root)
            continue
        if not os.path.isdir(root):
            raise AnalysisError(f"lint path does not exist: {root}")
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                full = os.path.join(dirpath, filename)
                yield full, os.path.relpath(full, root).replace(os.sep, "/")


def _parse_suppressions(
    source: str,
) -> tuple[dict[int, set[str]], set[str], list[SuppressionComment]]:
    """Extract suppression comments via :mod:`tokenize`.

    Only real COMMENT tokens count — a suppression spelled inside a
    string or docstring is documentation, not a directive.
    """
    per_line: dict[int, set[str]] = {}
    per_file: set[str] = set()
    comments: list[SuppressionComment] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            codes = {
                c.strip() for c in match.group(2).split(",") if c.strip()
            }
            if not codes:
                continue
            lineno = token.start[0]
            has_reason = "--" in token.string
            if match.group(1) == "disable-file":
                per_file |= codes
                comments.append(
                    SuppressionComment(
                        lineno, "file", frozenset(codes), has_reason
                    )
                )
            else:
                per_line.setdefault(lineno, set()).update(codes)
                comments.append(
                    SuppressionComment(
                        lineno, "line", frozenset(codes), has_reason
                    )
                )
    except tokenize.TokenError:  # pragma: no cover — ast.parse ran first
        pass
    return per_line, per_file, comments


def load_module(path: str, rel_path: str) -> ModuleInfo:
    """Read and parse one module, including its suppression comments."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        raise AnalysisError(f"cannot parse {path}: {error}") from error
    per_line, per_file, comments = _parse_suppressions(source)
    return ModuleInfo(
        path, rel_path, source, tree, per_line, per_file, comments
    )


# -- the run ----------------------------------------------------------------


@dataclass(frozen=True)
class _Pending:
    """A finding awaiting symbol resolution and fingerprinting."""

    code: str
    severity: Severity
    message: str
    rel_path: str
    line: int
    col: int


def run_lint(
    paths: Iterable[str] | str,
    select: Iterable[str] | None = None,
    severity_overrides: dict[str, Severity] | None = None,
) -> FindingsReport:
    """Lint every ``.py`` file under ``paths`` with the registered rules.

    ``select`` restricts the run to the given rule codes;
    ``severity_overrides`` maps rule codes to severities replacing each
    rule's default. Suppressed findings are counted but not reported.

    Rules run file by file, each on one parsed module. On full runs (no
    ``select``), suppression comments that silenced nothing are reported
    as REP016 — a selective run leaves most rules un-run, so unused-ness
    cannot be judged there.
    """
    if isinstance(paths, str):
        paths = [paths]
    overrides = severity_overrides or {}
    for code in overrides:
        get_rule(code)  # validate early
    if select is not None:
        rules = [get_rule(code)() for code in select]
    else:
        rules = [cls() for cls in all_rules()]

    report = FindingsReport(tool="reprolint")
    modules: dict[str, ModuleInfo] = {}
    for path, rel_path in iter_python_files(paths):
        modules[rel_path] = load_module(path, rel_path)
        report.items_checked += 1
        counters.increment("analysis.lint.files_scanned")

    # (rel_path, line-or-None-for-file-level, code) of suppressions
    # that actually silenced a finding this run.
    used_suppressions: set[tuple[str, int | None, str]] = set()
    pending: list[_Pending] = []

    def record(rule: LintRule, module: ModuleInfo, raw: RawFinding) -> None:
        if rule.code in module.line_suppressions.get(raw.line, set()):
            used_suppressions.add((module.rel_path, raw.line, rule.code))
            report.suppressed += 1
            counters.increment("analysis.lint.suppressed")
            return
        if rule.code in module.file_suppressions:
            used_suppressions.add((module.rel_path, None, rule.code))
            report.suppressed += 1
            counters.increment("analysis.lint.suppressed")
            return
        pending.append(
            _Pending(
                rule.code,
                overrides.get(rule.code, rule.default_severity),
                raw.message,
                module.rel_path,
                raw.line,
                raw.col,
            )
        )
        counters.increment("analysis.lint.findings")

    for module in modules.values():
        for rule in rules:
            if not rule.applies_to(module):
                continue
            for raw in rule.check(module):
                record(rule, module, raw)

    if select is None:
        hygiene = get_rule("REP016")()
        for module in modules.values():
            for comment in module.suppression_comments:
                line_key = comment.line if comment.kind == "line" else None
                for code in sorted(comment.codes):
                    if (module.rel_path, line_key, code) in used_suppressions:
                        continue
                    scope = (
                        "file-level suppression"
                        if comment.kind == "file"
                        else "suppression"
                    )
                    record(
                        hygiene,
                        module,
                        RawFinding(
                            comment.line,
                            0,
                            f"{scope} for {code} matches no finding; "
                            "delete the stale comment",
                        ),
                    )

    # Resolve symbols and occurrence-stable fingerprints in source
    # order so fingerprints do not depend on rule execution order.
    pending.sort(key=lambda p: (p.rel_path, p.line, p.col, p.code))
    occurrence: dict[tuple[str, str, str], int] = {}
    for item in pending:
        symbol = modules[item.rel_path].qualified_symbol(item.line)
        key = (item.code, item.rel_path, symbol)
        index = occurrence.get(key, 0)
        occurrence[key] = index + 1
        report.add(
            item.code,
            item.severity,
            item.message,
            where=f"{item.rel_path}:{item.line}:{item.col}",
            symbol=symbol,
            fingerprint=finding_fingerprint(
                item.code, item.rel_path, symbol, index
            ),
        )
    report.findings.sort(key=lambda f: (f.where, f.code))
    return report
