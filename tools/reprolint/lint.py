"""The ``reprolint`` engine: rule registry, suppressions, file walking.

Rules are small classes registered with :func:`lint_rule`; each one
inspects a parsed module (:class:`ModuleInfo`) and yields raw findings.
The engine handles everything rule-independent: discovering ``.py``
files, parsing, inline suppressions and assembling the
:class:`~repro.analysis.findings.FindingsReport`.

Suppressions are source comments::

    future.result()  # reprolint: disable=REP017 -- why it is ok
    # reprolint: disable-file=REP018 -- whole-module opt-out

A line-level ``disable`` silences the listed codes on that line only; a
``disable-file`` silences them for the whole module. The ``-- reason``
trailer is encouraged (and what code review should look for) but not
enforced by the engine.

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


@dataclass
class ModuleInfo:
    """One parsed source module handed to every applicable rule."""

    rel_path: str
    tree: ast.Module
    line_suppressions: dict[int, set[str]] = field(default_factory=dict)
    file_suppressions: set[str] = field(default_factory=set)
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
    """A rule observation before suppressions are applied."""

    line: int
    col: int
    message: str


class LintRule:
    """Base class for reprolint rules.

    Subclasses set ``code``, ``name``, ``description`` and
    ``default_severity``, and implement :meth:`check`. Path scoping is
    declarative: ``only_files`` restricts a rule to specific
    package-relative paths (matched by full relative path, or by
    basename so linting a single file directly still applies the rule),
    and ``exempt_files`` lists package-relative paths the rule never
    applies to.
    """

    code: str = ""
    name: str = ""
    description: str = ""
    default_severity: Severity = Severity.ERROR
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


def _parse_suppressions(source: str) -> tuple[dict[int, set[str]], set[str]]:
    """Extract suppression comments via :mod:`tokenize`.

    Only real COMMENT tokens count — a suppression spelled inside a
    string or docstring is documentation, not a directive.
    """
    per_line: dict[int, set[str]] = {}
    per_file: set[str] = set()
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
            if match.group(1) == "disable-file":
                per_file |= codes
            else:
                per_line.setdefault(token.start[0], set()).update(codes)
    except tokenize.TokenError:  # pragma: no cover — ast.parse ran first
        pass
    return per_line, per_file


def load_module(path: str, rel_path: str) -> ModuleInfo:
    """Read and parse one module, including its suppression comments."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        raise AnalysisError(f"cannot parse {path}: {error}") from error
    return ModuleInfo(rel_path, tree, *_parse_suppressions(source))


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


def run_lint(paths: Iterable[str] | str) -> FindingsReport:
    """Lint every ``.py`` file under ``paths`` with the registered rules.

    Rules run file by file, each on one parsed module. Suppressed
    findings are counted but not reported.
    """
    if isinstance(paths, str):
        paths = [paths]
    rules = [cls() for cls in all_rules()]

    report = FindingsReport(tool="reprolint")
    modules: dict[str, ModuleInfo] = {}
    for path, rel_path in iter_python_files(paths):
        modules[rel_path] = load_module(path, rel_path)
        report.items_checked += 1
        counters.increment("analysis.lint.files_scanned")

    pending: list[_Pending] = []
    for module in modules.values():
        for rule in rules:
            if not rule.applies_to(module):
                continue
            for raw in rule.check(module):
                if (
                    rule.code in module.line_suppressions.get(raw.line, ())
                    or rule.code in module.file_suppressions
                ):
                    report.suppressed += 1
                    counters.increment("analysis.lint.suppressed")
                    continue
                pending.append(
                    _Pending(
                        rule.code,
                        rule.default_severity,
                        raw.message,
                        module.rel_path,
                        raw.line,
                        raw.col,
                    )
                )
                counters.increment("analysis.lint.findings")

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
