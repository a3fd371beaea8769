"""The built-in reprolint rules (REP017 — REP018).

Each rule encodes one repo convention a test run does not exercise:

- REP017 — bounded waits on the execution hot path: inside
  ``core/executor.py`` every ``.result()``/``.join()`` call must pass
  a timeout, so no wait can outlive the supervision deadline — an
  unbounded wait on a dead or hung worker is exactly the wedge the
  supervisor exists to survive.

- REP018 — codec choice belongs to the encoding advisor: no registered
  codec-name string literal may appear in a codec-selecting position
  (registry-call arguments, ``codec=`` keywords, assignments to or
  comparisons with ``codec``-named bindings) outside
  ``compress/registry.py``, ``compress/advisor.py`` and *declared
  defaults* — function parameter defaults and module-level ALL_CAPS
  constants, which are the sanctioned way to name a static fallback.

Every rule is a per-module AST check. The gaps in the numbering are
retired codes (REP001–REP016 and REP019: rules that never caught a
defect, or whose invariant a runtime check holds — see DESIGN.md);
they are never reused, so a code in an old suppression or CI log cannot
alias a newer rule.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.findings import Severity
from tools.reprolint.lint import (
    LintRule,
    ModuleInfo,
    RawFinding,
    lint_rule,
)


@lint_rule
class UnboundedFutureWaitRule(LintRule):
    """REP017: hot-path future waits must carry a bounded timeout.

    The process supervisor's whole fault model rests on one mechanical
    guarantee: no wait in ``core/executor.py`` can outlive the task
    deadline. A bare ``future.result()`` blocks forever on a hung
    worker, and a bare ``worker.join()`` blocks forever on one that
    never exits — either reintroduces exactly the wedge the
    supervision layer exists to survive, silently, on the module most
    likely to be edited under pressure. Every ``.result``/``.join``
    call there must pass a timeout (``str.join`` always takes its one
    iterable argument, so zero-argument calls cannot be it). The one
    sanctioned exception — the thread strategy, whose workers cannot
    be killed so a deadline adds no recovery path — carries a line
    suppression with that reason.
    """

    code = "REP017"
    name = "unbounded-future-wait"
    description = (
        "a zero-argument .result() or .join() call in core/executor.py "
        "can block forever on a dead or hung worker; pass a bounded "
        "timeout (see SupervisionConfig.task_deadline_seconds)"
    )
    default_severity = Severity.ERROR
    only_files = ("core/executor.py",)

    def check(self, module: ModuleInfo) -> Iterable[RawFinding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("result", "join")
                and not node.args
                and not node.keywords
            ):
                yield RawFinding(
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"unbounded .{node.func.attr}() wait on the "
                        "execution hot path; pass timeout= so a dead or "
                        "hung worker cannot wedge the supervisor"
                    ),
                )


def _registered_codec_names() -> frozenset[str]:
    """The live registry's codec names (imported lazily: the registry
    pulls in numpy-heavy codec modules the other rules never need)."""
    from repro.compress.registry import available_codecs

    return frozenset(available_codecs())


@lint_rule
class HardcodedCodecNameRule(LintRule):
    """REP018: codec choice belongs to the encoding advisor.

    A registered codec name inlined at a call site pins a layout
    decision the advisor can no longer revisit — and silently breaks
    if the codec is renamed. The rule flags string literals matching a
    registered codec name whenever they sit in a *codec-selecting
    position*: a positional argument to a registry entry point
    (``get_codec``, ``compress``, ``decompress``, ...), any ``codec``
    keyword, an assignment to a ``codec``-named binding, or a
    comparison against one. Two kinds of *declared defaults* are
    sanctioned and exempt: function parameter defaults (the documented
    static fallback of ``write_columnio``) and module-level ALL_CAPS
    constants (a bench's pinned baseline).
    ``compress/registry.py`` and ``compress/advisor.py`` — the two
    modules whose job *is* naming codecs — are exempt wholesale.
    """

    code = "REP018"
    name = "hardcoded-codec-name"
    description = (
        "registered codec-name string literal in a codec-selecting "
        "position; route the choice through the encoding advisor, a "
        "parameter default, or a module-level ALL_CAPS constant"
    )
    default_severity = Severity.ERROR
    exempt_files = ("compress/registry.py", "compress/advisor.py")

    #: Registry entry points whose positional string args select codecs.
    _REGISTRY_CALLS = {
        "get_codec",
        "compress",
        "decompress",
        "compression_stats",
        "register_cascade",
        "cascade_stages",
    }

    @staticmethod
    def _terminal_name(node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    @staticmethod
    def _declared_default_nodes(tree: ast.Module) -> set[int]:
        """Node ids inside sanctioned declared-default expressions."""
        exempt: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                for default in [
                    *node.args.defaults,
                    *node.args.kw_defaults,
                ]:
                    if default is not None:
                        exempt.update(id(sub) for sub in ast.walk(default))
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
                value = stmt.value
            else:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if (
                value is not None
                and names
                and len(names) == len(targets)
                and all(name == name.upper() for name in names)
            ):
                exempt.update(id(sub) for sub in ast.walk(value))
        return exempt

    def check(self, module: ModuleInfo) -> Iterable[RawFinding]:
        watched = _registered_codec_names()

        def is_watched(node: ast.expr) -> bool:
            return (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in watched
            )

        def finding(node: ast.expr, context: str) -> RawFinding:
            return RawFinding(
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"hardcoded codec name {node.value!r} {context}; "
                    "let the encoding advisor choose, or declare it as "
                    "a parameter default / module-level ALL_CAPS "
                    "constant"
                ),
            )

        exempt = self._declared_default_nodes(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                func_name = self._terminal_name(node.func)
                if func_name in self._REGISTRY_CALLS:
                    for arg in node.args:
                        if is_watched(arg) and id(arg) not in exempt:
                            yield finding(
                                arg, f"passed to {func_name}()"
                            )
                for keyword in node.keywords:
                    if (
                        keyword.arg is not None
                        and "codec" in keyword.arg.lower()
                        and is_watched(keyword.value)
                        and id(keyword.value) not in exempt
                    ):
                        yield finding(
                            keyword.value, f"as keyword {keyword.arg}="
                        )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                value = node.value
                if value is None or not is_watched(value):
                    continue
                if id(value) in exempt:
                    continue
                for target in targets:
                    target_name = self._terminal_name(target)
                    if target_name and "codec" in target_name.lower():
                        yield finding(
                            value, f"assigned to {target_name}"
                        )
                        break
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                codec_named = any(
                    (name := self._terminal_name(side)) is not None
                    and "codec" in name.lower()
                    for side in sides
                )
                if not codec_named:
                    continue
                for side in sides:
                    if is_watched(side) and id(side) not in exempt:
                        yield finding(
                            side, "compared against a codec binding"
                        )
                        break
