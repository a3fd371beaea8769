"""Comparison helpers and the runtime shared-state sanitizer.

Two families of helpers live here:

- **Float-tolerant result comparison** (:func:`values_equal`,
  :func:`rows_equal`, :func:`results_equal`,
  :func:`assert_results_equal`): all backends produce identical results
  *up to floating-point summation order* — SUM/AVG accumulate in
  different orders (row order vs. per-chunk vectorized bincounts), and
  FP addition is not associative — so floats compare with a relative
  tolerance, everything else exactly.

- **The shared-state sanitizer** (:class:`SanitizingExecutor`): the
  runtime holder of "a submitted callable, and everything
  ``run_partial`` reaches, never writes captured or shared state".
  Wrapping any :class:`~repro.core.executor.ExecutionStrategy`, it
  fingerprints every object the submitted callable closes over
  *before* the fan-out and re-fingerprints *after*; any observed
  mutation of captured state fails the test with an attribute-level
  diff.
"""

from __future__ import annotations

import functools
import hashlib
import math
import types
from collections.abc import Callable, Sequence
from typing import Any

from repro.core.datastore import FieldStore
from repro.core.executor import ExecutionStrategy

_DEFAULT_REL_TOL = 1e-9
_DEFAULT_ABS_TOL = 1e-12


def values_equal(
    a: Any,
    b: Any,
    rel_tol: float = _DEFAULT_REL_TOL,
    abs_tol: float = _DEFAULT_ABS_TOL,
) -> bool:
    """Equality with float tolerance; ints and floats may mix."""
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return rows_equal(a, b, rel_tol=rel_tol, abs_tol=abs_tol)
    return a == b


def rows_equal(
    row_a: Sequence[Any],
    row_b: Sequence[Any],
    rel_tol: float = _DEFAULT_REL_TOL,
    abs_tol: float = _DEFAULT_ABS_TOL,
) -> bool:
    """Tuple equality with per-value float tolerance."""
    if len(row_a) != len(row_b):
        return False
    return all(
        values_equal(a, b, rel_tol=rel_tol, abs_tol=abs_tol)
        for a, b in zip(row_a, row_b)
    )


def results_equal(
    rows_a: Sequence[Sequence[Any]],
    rows_b: Sequence[Sequence[Any]],
    rel_tol: float = _DEFAULT_REL_TOL,
    abs_tol: float = _DEFAULT_ABS_TOL,
) -> bool:
    """Row-list equality with float tolerance (order-sensitive)."""
    if len(rows_a) != len(rows_b):
        return False
    return all(
        rows_equal(a, b, rel_tol=rel_tol, abs_tol=abs_tol)
        for a, b in zip(rows_a, rows_b)
    )


def assert_results_equal(
    rows_a: Sequence[Sequence[Any]],
    rows_b: Sequence[Sequence[Any]],
    rel_tol: float = _DEFAULT_REL_TOL,
    abs_tol: float = _DEFAULT_ABS_TOL,
    context: str = "",
) -> None:
    """Assert row-list equality with a helpful diff on failure."""
    if len(rows_a) != len(rows_b):
        # Test helpers must raise AssertionError so pytest renders the
        # failure as an assertion, not a library error.
        raise AssertionError(  # reprolint: disable=REP001 -- test assertion
            f"{context}: {len(rows_a)} rows vs {len(rows_b)} rows\n"
            f"  a: {list(rows_a)[:5]}\n  b: {list(rows_b)[:5]}"
        )
    for index, (a, b) in enumerate(zip(rows_a, rows_b)):
        if not rows_equal(a, b, rel_tol=rel_tol, abs_tol=abs_tol):
            raise AssertionError(  # reprolint: disable=REP001 -- test assertion
                f"{context}: rows differ at index {index}:\n"
                f"  a: {a}\n  b: {b}"
            )


# -- the runtime shared-state sanitizer -------------------------------------

#: Lazily-memoized attributes the sanitizer deliberately ignores,
#: keyed by class name (any class in the object's MRO matches).
#:
#: These slots may fill *during* worker execution by design: every
#: fill is an idempotent decode of immutable encoded state published by
#: one assignment (``FieldStore.row_positions`` and ``value_array``,
#: the trie decode under it, a trie rank walk), so two racing writers
#: publish equal values. They are caches of derived data, not shared
#: mutable state, and fingerprinting them would fail every parallel
#: scan for behaviour that is correct by construction.
LAZY_MEMO_ATTRS: dict[str, frozenset[str]] = {
    "FieldStore": frozenset(FieldStore._MEMO_ATTRS),
    "TrieDictionary": frozenset({"_all_values", "_walked"}),
}

_MAX_FINGERPRINT_DEPTH = 10

#: Modules whose instances are runtime machinery, not data: their
#: internal state legitimately changes across a fan-out (pool threads
#: spin up, locks toggle) and never feeds results.
_OPAQUE_MODULES = (
    "_thread",
    "threading",
    "concurrent",
    "queue",
    "_io",
    "io",
    "multiprocessing",
    "mmap",
)


def captured_objects(fn: Callable[..., Any]) -> dict[str, Any]:
    """The objects ``fn`` will carry into an executor submission.

    Covers closure cells (by free-variable name), the ``__self__`` of
    bound methods, and the pieces of a :func:`functools.partial`
    (wrapped callable, positional and keyword arguments). Plain
    module-level functions capture nothing and return ``{}``.
    """
    captured: dict[str, Any] = {}
    if isinstance(fn, functools.partial):
        captured["partial.func"] = fn.func
        for index, value in enumerate(fn.args):
            captured[f"partial.args[{index}]"] = value
        for key, value in fn.keywords.items():
            captured[f"partial.keywords[{key}]"] = value
        inner = captured_objects(fn.func)
        for name, value in inner.items():
            captured.setdefault(name, value)
        return captured
    bound_self = getattr(fn, "__self__", None)
    if bound_self is not None:
        captured["self"] = bound_self
        return captured
    code = getattr(fn, "__code__", None)
    closure = getattr(fn, "__closure__", None)
    if code is not None and closure is not None:
        for name, cell in zip(code.co_freevars, closure):
            try:
                captured[name] = cell.cell_contents
            except ValueError:
                continue  # still-empty cell (recursive def)
    elif code is None and not isinstance(
        fn,
        (
            types.FunctionType,
            types.BuiltinFunctionType,
            types.MethodType,
            type,
        ),
    ):
        # A callable instance (e.g. a picklable scan task): everything
        # it carries lives on the instance itself.
        captured["self"] = fn
    return captured


def _is_opaque(obj: Any) -> bool:
    obj_type = type(obj)
    module = obj_type.__module__ or ""
    if module.split(".")[0] in _OPAQUE_MODULES:
        return True
    return isinstance(
        obj,
        (
            types.ModuleType,
            types.FunctionType,
            types.BuiltinFunctionType,
            types.MethodType,
            types.GeneratorType,
            type,
            ExecutionStrategy,
        ),
    )


def state_fingerprint(
    obj: Any,
    _depth: int = 0,
    _on_path: frozenset[int] = frozenset(),
) -> Any:
    """A structural, order-insensitive-where-unordered snapshot of ``obj``.

    Numpy arrays hash their raw bytes (shape + dtype + sha1), dicts
    compare sorted by key representation, sets by sorted element
    fingerprints, ordinary objects by type name plus their attribute
    dict (minus :data:`LAZY_MEMO_ATTRS`). Runtime machinery — locks,
    pools, modules, functions, executors — fingerprints as its type
    name only: its internals legitimately change across a fan-out.
    Cycles and over-deep nesting degrade to type-name stubs rather
    than recursing forever.
    """
    if isinstance(obj, float):
        # NaN != NaN would flag an unchanged NaN as a mutation.
        return ("nan",) if math.isnan(obj) else obj
    if obj is None or isinstance(obj, (bool, int, complex, str, bytes)):
        return obj
    if _depth >= _MAX_FINGERPRINT_DEPTH:
        return ("max-depth", type(obj).__name__)
    if id(obj) in _on_path:
        return ("cycle", type(obj).__name__)
    if _is_opaque(obj):
        return ("opaque", type(obj).__name__)
    on_path = _on_path | {id(obj)}
    nxt = _depth + 1
    type_name = type(obj).__name__
    if type_name == "ChunkArena" and hasattr(obj, "fingerprint_key"):
        # The arena's backing handles (SharedMemory, mmap) are runtime
        # machinery; its mapped *bytes* are what workers must never
        # write. Hash the contents instead of walking the wrapper.
        return ("arena", obj.fingerprint_key())
    if type_name == "ndarray":  # numpy, without importing it here
        if obj.dtype == object:
            return (
                "ndarray-object",
                obj.shape,
                tuple(
                    state_fingerprint(item, nxt, on_path)
                    for item in obj.ravel().tolist()
                ),
            )
        import numpy as np

        data = np.ascontiguousarray(obj)
        return (
            "ndarray",
            tuple(obj.shape),
            str(obj.dtype),
            hashlib.sha1(data.tobytes()).hexdigest(),
        )
    if isinstance(obj, dict):
        entries = [
            (repr(key), state_fingerprint(value, nxt, on_path))
            for key, value in obj.items()
        ]
        return ("dict", tuple(sorted(entries, key=lambda e: e[0])))
    if isinstance(obj, (list, tuple)):
        kind = "list" if isinstance(obj, list) else "tuple"
        return (
            kind,
            tuple(state_fingerprint(item, nxt, on_path) for item in obj),
        )
    if isinstance(obj, (set, frozenset)):
        members = [
            repr(state_fingerprint(item, nxt, on_path)) for item in obj
        ]
        return ("set", tuple(sorted(members)))
    if isinstance(obj, (bytearray, memoryview)):
        return ("buffer", hashlib.sha1(bytes(obj)).hexdigest())
    skipped = _skipped_attrs(type(obj))
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        entries = [
            (name, state_fingerprint(value, nxt, on_path))
            for name, value in attrs.items()
            if name not in skipped
        ]
        return ("object", type_name, tuple(sorted(entries, key=lambda e: e[0])))
    slots = getattr(type(obj), "__slots__", None)
    if slots is not None:
        names = [slots] if isinstance(slots, str) else list(slots)
        entries = [
            (name, state_fingerprint(getattr(obj, name, None), nxt, on_path))
            for name in sorted(names)
            if name not in skipped
        ]
        return ("object", type_name, tuple(entries))
    return ("repr", type_name, repr(obj))


def _skipped_attrs(obj_type: type) -> frozenset[str]:
    skipped: set[str] = set()
    for klass in obj_type.__mro__:
        skipped |= LAZY_MEMO_ATTRS.get(klass.__name__, frozenset())
    return frozenset(skipped)


def _diff_fingerprints(before: Any, after: Any, path: str) -> list[str]:
    """Human-readable paths where two fingerprints diverge."""
    if before == after:
        return []
    if (
        isinstance(before, tuple)
        and isinstance(after, tuple)
        and before[:1] == after[:1]
        and before
        and before[0] in ("dict", "object", "list", "tuple")
    ):
        if before[0] in ("dict", "object"):
            b_entries = dict(before[-1])
            a_entries = dict(after[-1])
            diffs: list[str] = []
            for key in sorted(set(b_entries) | set(a_entries)):
                if key not in b_entries:
                    diffs.append(f"{path}.{key} (added)")
                elif key not in a_entries:
                    diffs.append(f"{path}.{key} (removed)")
                else:
                    diffs.extend(
                        _diff_fingerprints(
                            b_entries[key], a_entries[key], f"{path}.{key}"
                        )
                    )
            return diffs or [path]
        b_items, a_items = before[1], after[1]
        if len(b_items) != len(a_items):
            return [f"{path} (length {len(b_items)} -> {len(a_items)})"]
        diffs = []
        for index, (b, a) in enumerate(zip(b_items, a_items)):
            diffs.extend(_diff_fingerprints(b, a, f"{path}[{index}]"))
        return diffs or [path]
    return [path]


class CapturedStateMutation(AssertionError):
    """A submitted callable's captured state changed during fan-out."""


class SanitizingExecutor(ExecutionStrategy):
    """An :class:`ExecutionStrategy` decorator that fails on mutation.

    Wrap any executor (``store.executor =
    SanitizingExecutor(store.executor)``); every ``map_ordered``
    fingerprints the submitted callable's captured objects before the
    fan-out and re-fingerprints them after the last result is
    collected. A difference means a worker (or the callable itself)
    mutated shared state, and raises
    :class:`CapturedStateMutation` with the diverging attribute paths.

    ``checked_submissions`` / ``checked_captures`` count what was
    actually verified, so tests can assert the sanitizer saw real work.
    """

    name = "sanitizing"

    def __init__(self, inner: ExecutionStrategy) -> None:
        self.inner = inner
        self.checked_submissions = 0
        self.checked_captures = 0
        self._tracked_arenas: list[Any] = []

    @property
    def wants_picklable_tasks(self) -> bool:
        """Forwarded so a wrapped process pool still gets arena tasks."""
        return self.inner.wants_picklable_tasks

    @property
    def workers(self) -> int:
        """Forwarded so a wrapped pool still gets one run per worker."""
        return self.inner.workers

    def track_arena(self, arena: Any) -> None:
        """Adopt the arena for lifecycle *and* put it under watch."""
        if all(existing is not arena for existing in self._tracked_arenas):
            self._tracked_arenas.append(arena)
        self.inner.track_arena(arena)

    def map_ordered(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
    ) -> list[Any]:
        return self._checked_fanout(
            fn, lambda: self.inner.map_ordered(fn, items), "map_ordered"
        )

    def map_supervised(self, fn: Callable[[Any], Any], items: Sequence[Any]):
        """Supervised fan-out under the same mutation watch.

        Forwarded (not re-derived from ``map_ordered``) so the wrapped
        strategy's real recovery/degradation path is what runs — and is
        itself certified not to mutate captured state.
        """
        return self._checked_fanout(
            fn,
            lambda: self.inner.map_supervised(fn, items),
            "map_supervised",
        )

    def _checked_fanout(
        self, fn: Callable[[Any], Any], fanout: Callable[[], Any], label: str
    ) -> Any:
        captured = captured_objects(fn)
        for index, arena in enumerate(self._tracked_arenas):
            # Arena bytes are shared with every worker; any write there
            # is a mutation even if no captured object references it.
            captured.setdefault(f"arena[{index}]", arena)
        before = {
            name: state_fingerprint(value)
            for name, value in captured.items()
        }
        results = fanout()
        mutated: list[str] = []
        for name, value in captured.items():
            after = state_fingerprint(value)
            mutated.extend(_diff_fingerprints(before[name], after, name))
        self.checked_submissions += 1
        self.checked_captures += len(captured)
        if mutated:
            fn_label = getattr(fn, "__name__", type(fn).__name__)
            # Test infrastructure raises AssertionError so pytest
            # renders the failure as an assertion, not a library error.
            raise CapturedStateMutation(  # reprolint: disable=REP001 -- test assertion
                f"captured state mutated during {label}({fn_label}): "
                + ", ".join(sorted(set(mutated)))
            )
        return results

    def close(self) -> None:
        self.inner.close()

    def describe(self) -> str:
        return f"sanitizing({self.inner.describe()})"
