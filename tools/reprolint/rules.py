"""The built-in reprolint rules (REP001 — REP010, REP016 — REP018).

Each rule encodes one repo convention that keeps the storage layer's
invariants enforceable:

- REP001 — raises stay inside the :mod:`repro.errors` hierarchy so
  callers can rely on ``except ReproError``.
- REP002 — no blanket ``except Exception`` that would swallow
  corruption signals.
- REP003 — codecs are resolved via :mod:`repro.compress.registry`
  only, so every codec in use is covered by the registry round-trip
  tests.
- REP004 — no cross-module mutation of ``_``-private state (chunk
  dictionaries, dictionary payloads, ...).
- REP005 — public storage/core/formats functions carry type
  annotations.
- REP006 — library code reports through :mod:`repro.monitoring`, not
  ``print``.
- REP007 — ``run_partial`` implementations never mutate ``self``:
  the parallel executor calls them concurrently; mutable state belongs
  in ``apply()`` on the merge thread.
- REP008 — no ``time.sleep`` and no ad-hoc retry loops outside the
  sanctioned backoff helper in :mod:`repro.distributed.faults`: delays
  and retries are *simulated* and deterministic, never slept for real.
- REP009 — the hot import modules stay vectorized: no per-row loops
  over ``column.values`` and no per-id ``.value(gid)`` calls inside
  loops there; bulk kernels (``factorize_list``, the bulk trie
  builder, ``Dictionary.global_ids``/``values()``) are the sanctioned
  replacements, and deliberate scalar fallbacks carry a justified
  suppression.
- REP010 — the codec modules stay vectorized: no per-byte index
  walks (``while`` cursor loops or ``for i in range(...)`` loops
  subscripting buffers element-by-element) in ``repro/compress/*``;
  the numpy bulk kernels are the sanctioned replacements, and the
  few deliberate scalar loops (greedy LZ parses, the Huffman heap
  merge) carry justified suppressions.

- REP016 — suppression hygiene: a ``# reprolint: disable=...`` comment
  that silences nothing is itself flagged (full runs only), so dead
  opt-outs cannot accumulate. The detection lives in the engine
  (:func:`tools.reprolint.lint.run_lint`), which alone knows which
  suppressions matched.

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
retired codes (five interprocedural concurrency rules and a service
queue rule, whose invariants runtime checks hold — see DESIGN.md);
they are never reused, so a code in an old suppression or CI log cannot
alias a newer rule.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

import repro.errors as _errors
from repro.analysis.findings import Severity
from tools.reprolint.lint import (
    LintRule,
    ModuleInfo,
    RawFinding,
    lint_rule,
)

#: Exception names a library ``raise`` may use: the repro hierarchy,
#: plus NotImplementedError (the abstract-interface idiom).
ALLOWED_RAISES = {
    name
    for name, obj in vars(_errors).items()
    if isinstance(obj, type) and issubclass(obj, Exception)
} | {"NotImplementedError"}

#: Codec implementation modules whose entry points must not be imported
#: directly outside ``compress/`` — resolve through the registry instead.
CODEC_MODULES = {
    "repro.compress.zippy",
    "repro.compress.lzo_like",
    "repro.compress.huffman",
    "repro.compress.rle",
    "repro.compress.transforms",
}

#: The codec entry-point functions covered by the registry.
CODEC_FUNCTIONS = {
    "zippy_compress",
    "zippy_decompress",
    "lzo_compress",
    "lzo_decompress",
    "huffman_compress",
    "huffman_decompress",
    "rle_encode_bytes",
    "rle_decode_bytes",
    "delta_encode_bytes",
    "delta_decode_bytes",
    "wordpack_encode_bytes",
    "wordpack_decode_bytes",
    "bytedict_encode_bytes",
    "bytedict_decode_bytes",
}


def _exception_name(node: ast.expr | None) -> str | None:
    """The exception class name a ``raise``/``except`` refers to."""
    if node is None:
        return None
    if isinstance(node, ast.Call):
        return _exception_name(node.func)
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@lint_rule
class RaiseHierarchyRule(LintRule):
    """REP001: every raise must use the repro.errors hierarchy."""

    code = "REP001"
    name = "raise-outside-hierarchy"
    description = (
        "raise statements in library code must raise repro.errors "
        "classes (NotImplementedError is allowed for abstract interfaces)"
    )
    default_severity = Severity.ERROR

    def check(self, module: ModuleInfo) -> Iterable[RawFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise):
                continue
            if node.exc is None:
                continue  # bare re-raise keeps the original type
            name = _exception_name(node.exc)
            if name is None:
                yield RawFinding(
                    node.lineno,
                    node.col_offset,
                    "raise of a dynamic expression; raise a repro.errors "
                    "class directly so callers can catch ReproError",
                )
            elif name not in ALLOWED_RAISES:
                yield RawFinding(
                    node.lineno,
                    node.col_offset,
                    f"raise {name} is outside the repro.errors hierarchy; "
                    "use a ReproError subclass",
                )


@lint_rule
class BroadExceptRule(LintRule):
    """REP002: no ``except Exception`` / bare ``except`` in the library."""

    code = "REP002"
    name = "broad-except"
    description = (
        "bare except / except Exception swallow corruption signals; "
        "catch ReproError subclasses (cli.py is exempt as the top-level "
        "error boundary)"
    )
    default_severity = Severity.ERROR
    exempt_files = ("cli.py",)

    def _broad_names(self, node: ast.expr | None) -> Iterator[str]:
        if node is None:
            yield "bare except"
            return
        targets = node.elts if isinstance(node, ast.Tuple) else [node]
        for target in targets:
            name = _exception_name(target)
            if name in ("Exception", "BaseException"):
                yield f"except {name}"

    def check(self, module: ModuleInfo) -> Iterable[RawFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            for label in self._broad_names(node.type):
                yield RawFinding(
                    node.lineno,
                    node.col_offset,
                    f"{label} in library code; catch specific "
                    "repro.errors classes",
                )


@lint_rule
class CodecImportRule(LintRule):
    """REP003: codecs are resolved via the registry, never imported."""

    code = "REP003"
    name = "direct-codec-import"
    description = (
        "codec entry points (zippy_compress, ...) may only be reached "
        "through repro.compress.registry outside compress/"
    )
    default_severity = Severity.ERROR

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.top_dir() != "compress"

    def check(self, module: ModuleInfo) -> Iterable[RawFinding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom):
                if node.module not in CODEC_MODULES:
                    continue
                bad = [
                    alias.name
                    for alias in node.names
                    if alias.name in CODEC_FUNCTIONS or alias.name == "*"
                ]
                if bad:
                    yield RawFinding(
                        node.lineno,
                        node.col_offset,
                        f"direct import of codec function(s) "
                        f"{', '.join(bad)} from {node.module}; use "
                        "repro.compress.registry.get_codec instead",
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in CODEC_MODULES:
                        yield RawFinding(
                            node.lineno,
                            node.col_offset,
                            f"direct import of codec module {alias.name}; "
                            "use repro.compress.registry.get_codec instead",
                        )


def _is_self_or_cls(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


@lint_rule
class PrivateMutationRule(LintRule):
    """REP004: no mutation of another module's ``_``-private attributes.

    ColumnChunk / Dictionary internals (``_values``, ``_buf``, ...) are
    only assignable from the module that defines them. A module "owns"
    a private attribute when any of its classes assigns it via
    ``self._attr`` / ``cls._attr``; assignments through any other base
    expression are flagged unless the attribute is owned locally.
    """

    code = "REP004"
    name = "private-mutation"
    description = (
        "assignment to a _-prefixed attribute of a non-self object "
        "outside the attribute's defining module"
    )
    default_severity = Severity.ERROR

    def _owned_attrs(self, module: ModuleInfo) -> set[str]:
        owned: set[str] = set()
        for node in ast.walk(module.tree):
            for target in _assignment_targets(node):
                if (
                    isinstance(target, ast.Attribute)
                    and _is_self_or_cls(target.value)
                    and target.attr.startswith("_")
                ):
                    owned.add(target.attr)
        return owned

    def check(self, module: ModuleInfo) -> Iterable[RawFinding]:
        owned = self._owned_attrs(module)
        for node in ast.walk(module.tree):
            for target in _assignment_targets(node):
                if not isinstance(target, ast.Attribute):
                    continue
                attr = target.attr
                if not attr.startswith("_") or _is_dunder(attr):
                    continue
                if _is_self_or_cls(target.value) or attr in owned:
                    continue
                yield RawFinding(
                    target.lineno,
                    target.col_offset,
                    f"mutation of private attribute .{attr} from outside "
                    "its defining module; add a constructor or method "
                    "instead",
                )


def _assignment_targets(node: ast.AST) -> Iterator[ast.expr]:
    if isinstance(node, ast.Assign):
        for target in node.targets:
            yield from _flatten_target(target)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        yield from _flatten_target(node.target)


def _flatten_target(target: ast.expr) -> Iterator[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten_target(element)
    else:
        yield target


@lint_rule
class AnnotationRule(LintRule):
    """REP005: public storage/core/formats functions are annotated."""

    code = "REP005"
    name = "missing-annotations"
    description = (
        "public functions in storage/, core/ and formats/ must annotate "
        "every parameter and the return type"
    )
    default_severity = Severity.ERROR
    only_dirs = ("storage", "core", "formats")

    def check(self, module: ModuleInfo) -> Iterable[RawFinding]:
        yield from self._check_body(module.tree.body, in_class=None)

    def _check_body(
        self, body: list[ast.stmt], in_class: str | None
    ) -> Iterator[RawFinding]:
        for node in body:
            if isinstance(node, ast.ClassDef):
                if not node.name.startswith("_"):
                    yield from self._check_body(node.body, in_class=node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("_") and not _is_dunder(name):
                    continue
                yield from self._check_function(node, in_class)

    def _check_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, in_class: str | None
    ) -> Iterator[RawFinding]:
        missing: list[str] = []
        args = list(node.args.posonlyargs) + list(node.args.args)
        if in_class is not None and args and args[0].arg in ("self", "cls"):
            args = args[1:]
        for arg in args + list(node.args.kwonlyargs):
            if arg.annotation is None:
                missing.append(arg.arg)
        if node.returns is None:
            missing.append("return")
        if missing:
            label = f"{in_class}.{node.name}" if in_class else node.name
            yield RawFinding(
                node.lineno,
                node.col_offset,
                f"public function {label} missing annotations for: "
                f"{', '.join(missing)}",
            )


#: Method names that mutate the common containers aggregators hold
#: (lists, sets, dicts) — calling one on a ``self`` attribute inside
#: ``run_partial`` is a thread-safety violation.
MUTATING_METHODS = {
    "add",
    "append",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "sort",
    "update",
}


def _attribute_root(node: ast.expr) -> ast.expr:
    """Strip attribute/subscript chains: self.x[k].y -> the Name self."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node


@lint_rule
class RunPartialMutationRule(LintRule):
    """REP007: ``run_partial`` must not mutate ``self``.

    The parallel executor (:mod:`repro.core.executor`) calls
    ``run_partial`` concurrently from worker threads; the aggregator
    contract keeps all mutable state in ``apply()``, which runs on the
    merge thread in deterministic chunk order. Any class defining a
    ``run_partial`` method is held to the contract: no assignment to
    (or through) a ``self`` attribute, and no calls to mutating
    container methods on ``self`` attributes, inside that method.
    """

    code = "REP007"
    name = "run-partial-mutates-self"
    description = (
        "run_partial implementations must be read-only on self; "
        "mutable aggregator state belongs in apply() on the merge thread"
    )
    default_severity = Severity.ERROR

    def check(self, module: ModuleInfo) -> Iterable[RawFinding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == "run_partial"
                ):
                    yield from self._check_method(node.name, item)

    def _check_method(
        self, class_name: str, method: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[RawFinding]:
        for node in ast.walk(method):
            for target in _assignment_targets(node):
                root = _attribute_root(target)
                if isinstance(target, (ast.Attribute, ast.Subscript)) and (
                    _is_self_or_cls(root)
                ):
                    yield RawFinding(
                        target.lineno,
                        target.col_offset,
                        f"{class_name}.run_partial assigns through self; "
                        "move mutable state into apply() (REP007 "
                        "executor thread-safety contract)",
                    )
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
                and isinstance(node.func.value, (ast.Attribute, ast.Subscript))
                and _is_self_or_cls(_attribute_root(node.func.value))
            ):
                yield RawFinding(
                    node.lineno,
                    node.col_offset,
                    f"{class_name}.run_partial calls mutating "
                    f".{node.func.attr}() on a self attribute; move "
                    "mutable state into apply() (REP007 executor "
                    "thread-safety contract)",
                )


@lint_rule
class SleepRetryRule(LintRule):
    """REP008: no bare sleeps or ad-hoc retry loops in library code.

    Retry/backoff behaviour must go through the sanctioned, *simulated*
    backoff helper in :mod:`repro.distributed.faults` (which is exempt,
    being that helper's home). Two patterns are flagged:

    - any call to a ``sleep`` function (``time.sleep(...)``, a bare
      ``sleep(...)``, ``asyncio.sleep(...)``): real delays make the
      deterministic simulation and the test suite wall-clock-dependent;
    - an *attempt* loop (``while ...`` or ``for ... in range(...)``)
      whose body catches an exception and ``continue``s — the classic
      hand-rolled retry loop, which hides unbounded retries and
      swallows the failure accounting the fault layer centralizes.
      Loops over data (``for kind in (int, float)`` fallback chains)
      are not retry loops and are left alone.
    """

    code = "REP008"
    name = "ad-hoc-retry"
    description = (
        "time.sleep / bare sleep calls and except-then-continue retry "
        "loops are banned outside distributed/faults.py; use the "
        "sanctioned simulated backoff helper (backoff_delay)"
    )
    default_severity = Severity.ERROR
    exempt_files = ("distributed/faults.py",)

    def _is_sleep_call(self, node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Name):
            return func.id == "sleep"
        if isinstance(func, ast.Attribute):
            return func.attr == "sleep"
        return False

    def _is_attempt_loop(self, node: ast.stmt) -> bool:
        """While loops and ``for ... in range(...)`` count attempts."""
        if isinstance(node, ast.While):
            return True
        if isinstance(node, (ast.For, ast.AsyncFor)):
            call = node.iter
            return (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "range"
            )
        return False

    def check(self, module: ModuleInfo) -> Iterable[RawFinding]:
        flagged_handlers: set[int] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and self._is_sleep_call(node):
                yield RawFinding(
                    node.lineno,
                    node.col_offset,
                    "sleep() call in library code; delays are simulated "
                    "via repro.distributed.faults.backoff_delay (REP008)",
                )
            elif self._is_attempt_loop(node):
                yield from self._check_loop(node, flagged_handlers)

    def _check_loop(
        self, loop: ast.For | ast.While | ast.AsyncFor,
        flagged_handlers: set[int],
    ) -> Iterator[RawFinding]:
        for node in ast.walk(loop):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if id(node) in flagged_handlers:
                continue
            if any(
                isinstance(stmt, ast.Continue)
                for body_node in node.body
                for stmt in ast.walk(body_node)
            ):
                flagged_handlers.add(id(node))
                yield RawFinding(
                    node.lineno,
                    node.col_offset,
                    "ad-hoc retry loop (except-then-continue); route "
                    "retries through the fault layer's dispatch/backoff "
                    "helpers (REP008)",
                )


@lint_rule
class NoPrintRule(LintRule):
    """REP006: library code must not print; use repro.monitoring."""

    code = "REP006"
    name = "print-in-library"
    description = (
        "print() in library code; report via repro.monitoring or return "
        "data (the cli modules are exempt as the user-facing surface)"
    )
    default_severity = Severity.ERROR
    exempt_files = ("cli.py", "analysis/cli.py")

    def check(self, module: ModuleInfo) -> Iterable[RawFinding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield RawFinding(
                    node.lineno,
                    node.col_offset,
                    "print() in library code; use repro.monitoring "
                    "counters/reports instead",
                )


#: Import-pipeline modules held to the vectorized-kernel contract.
HOT_IMPORT_MODULES = (
    "partition/codes.py",
    "storage/trie.py",
    "storage/subdict.py",
)


@lint_rule
class ScalarImportLoopRule(LintRule):
    """REP009: hot import modules must not fall back to per-row loops.

    The import pipeline's throughput rests on three bulk kernels
    (factorize, the bulk trie builder, batched dictionary lookups).
    Inside the modules that implement them, a ``for``-loop or
    comprehension iterating a ``.values`` attribute (one Python
    iteration per row), or a single-argument ``.value(gid)`` call
    inside a loop (one dictionary probe per id), silently reintroduces
    the scalar behaviour this PR removed. Deliberate scalar fallbacks
    (the equivalence oracles) carry a line suppression with a reason.
    """

    code = "REP009"
    name = "scalar-import-loop"
    description = (
        "per-row loop over a .values attribute, or per-id .value(gid) "
        "call inside a loop, in a hot import module; use the bulk "
        "kernels (factorize_list, bulk trie build, global_ids) instead"
    )
    default_severity = Severity.ERROR
    only_files = HOT_IMPORT_MODULES

    def _is_values_attribute(self, node: ast.expr) -> bool:
        """``something.values`` as a bare attribute (not a ``.values()``)."""
        return isinstance(node, ast.Attribute) and node.attr == "values"

    def _iter_loop_iterables(
        self, node: ast.AST
    ) -> Iterator[tuple[ast.expr, int, int]]:
        """(iterable, line, col) for every loop/comprehension at ``node``."""
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, node.lineno, node.col_offset
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for gen in node.generators:
                yield gen.iter, node.lineno, node.col_offset

    def _is_scalar_value_call(self, node: ast.AST) -> bool:
        """A single-argument ``.value(x)`` call — one probe per id."""
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "value"
            and len(node.args) == 1
            and not node.keywords
        )

    def check(self, module: ModuleInfo) -> Iterable[RawFinding]:
        flagged_calls: set[int] = set()
        for node in ast.walk(module.tree):
            for iterable, line, col in self._iter_loop_iterables(node):
                if self._is_values_attribute(iterable):
                    yield RawFinding(
                        line,
                        col,
                        "per-row loop over .values in a hot import "
                        "module; use a bulk kernel (REP009)",
                    )
            if isinstance(
                node,
                (
                    ast.For,
                    ast.AsyncFor,
                    ast.While,
                    ast.ListComp,
                    ast.SetComp,
                    ast.DictComp,
                    ast.GeneratorExp,
                ),
            ):
                for inner in ast.walk(node):
                    if (
                        self._is_scalar_value_call(inner)
                        and id(inner) not in flagged_calls
                    ):
                        flagged_calls.add(id(inner))
                        yield RawFinding(
                            inner.lineno,
                            inner.col_offset,
                            "per-id .value() call inside a loop in a hot "
                            "import module; batch through "
                            "Dictionary.global_ids/values() (REP009)",
                        )


def _is_simple_scalar_index(node: ast.expr) -> bool:
    """An index expression built only from names, constants and arithmetic.

    ``data[pos]``, ``out[i + 1]``, ``buf[-k]`` qualify; anything
    involving a call, an attribute, another subscript or a numpy-style
    fancy index (tuple/array expressions) does not — those are how the
    bulk kernels legitimately subscript.
    """
    return all(
        isinstance(
            sub, (ast.Name, ast.Constant, ast.BinOp, ast.UnaryOp,
                  ast.operator, ast.unaryop, ast.expr_context)
        )
        for sub in ast.walk(node)
    )


def _walk_own_body(loop: ast.While | ast.For | ast.AsyncFor) -> Iterator[ast.AST]:
    """Walk a loop's subtree without descending into nested loops.

    Nested loops are separate ``check`` subjects — judging (and
    suppressing) each at its own header line keeps findings precise.
    """
    stack: list[ast.AST] = list(ast.iter_child_nodes(loop))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.While, ast.For, ast.AsyncFor)):
            stack.extend(ast.iter_child_nodes(node))


@lint_rule
class PerByteCodecLoopRule(LintRule):
    """REP010: codec modules must not walk buffers one index at a time.

    The compression kernels' throughput rests on numpy bulk operations
    (see :mod:`repro.compress.bulk` and the vectorized codecs). Two
    shapes reintroduce the scalar behaviour:

    - a ``while`` loop that advances a cursor (``pos += ...``) and
      subscripts with a plain scalar index (``data[pos]``) — the
      classic per-byte decode walk;
    - a ``for i in range(...)`` loop subscripting with its loop
      variable (``out[i] = ...``).

    Slices (``data[a:b]``) are always fine: slice-based loops advance
    by whole matches/runs, not bytes. The deliberate scalar loops that
    remain (greedy LZ parses, the Huffman heap merge) carry same-line
    suppressions with reasons.
    """

    code = "REP010"
    name = "per-byte-codec-loop"
    description = (
        "per-index while/for walk over a buffer in repro/compress/*; "
        "use the numpy bulk kernels"
    )
    default_severity = Severity.ERROR
    only_dirs = ("compress",)

    def _scalar_subscripts(
        self, loop: ast.While | ast.For | ast.AsyncFor
    ) -> Iterator[ast.Subscript]:
        for node in _walk_own_body(loop):
            if (
                isinstance(node, ast.Subscript)
                and not isinstance(node.slice, ast.Slice)
                and _is_simple_scalar_index(node.slice)
            ):
                yield node

    def _check_while(self, loop: ast.While) -> Iterator[RawFinding]:
        has_cursor = any(
            isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Name)
            for node in _walk_own_body(loop)
        )
        if not has_cursor:
            return
        for node in self._scalar_subscripts(loop):
            yield RawFinding(
                loop.lineno,
                loop.col_offset,
                "while loop advances a cursor and subscripts "
                f"element-by-element (line {node.lineno}); use a numpy "
                "bulk kernel (REP010)",
            )
            return  # one finding per loop header

    def _check_for(self, loop: ast.For | ast.AsyncFor) -> Iterator[RawFinding]:
        if not (
            isinstance(loop.iter, ast.Call)
            and isinstance(loop.iter.func, ast.Name)
            and loop.iter.func.id == "range"
            and isinstance(loop.target, ast.Name)
        ):
            return
        loop_var = loop.target.id
        for node in self._scalar_subscripts(loop):
            if any(
                isinstance(sub, ast.Name) and sub.id == loop_var
                for sub in ast.walk(node.slice)
            ):
                yield RawFinding(
                    loop.lineno,
                    loop.col_offset,
                    "for-range loop subscripts with its loop variable "
                    f"(line {node.lineno}); use a numpy bulk kernel "
                    "(REP010)",
                )
                return  # one finding per loop header

    def check(self, module: ModuleInfo) -> Iterable[RawFinding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.While):
                yield from self._check_while(node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_for(node)


@lint_rule
class UnusedSuppressionRule(LintRule):
    """REP016: suppression comments must still suppress something.

    The detection itself lives in :func:`tools.reprolint.lint.run_lint`
    — only the engine knows which suppressions matched a finding across
    *all* rules, so this class is the registration/catalog anchor and
    carries the severity. It only fires on full runs (no ``--select``):
    under a selective run most rules never execute, and their
    suppressions would all look dead.
    """

    code = "REP016"
    name = "unused-suppression"
    description = (
        "a # reprolint: disable comment that silences no finding; "
        "delete it so dead opt-outs cannot accumulate (detected by the "
        "engine on full runs)"
    )
    default_severity = Severity.WARNING

    def check(self, module: ModuleInfo) -> Iterable[RawFinding]:
        return ()  # engine-driven; see run_lint


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
