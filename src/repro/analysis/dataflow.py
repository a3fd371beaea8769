"""Dataflow machinery behind the concurrency rules (REP011 — REP015).

Three layers, all over stdlib ``ast`` (no new dependencies), all
deliberately *unsound-but-useful* in the classic lint tradition — they
over-approximate where that keeps real violations visible and
under-approximate where precision would drown the tree in noise. The
documented false-negative boundaries live in DESIGN.md ("Dataflow
framework").

1. **Per-function control-flow graphs** (:func:`build_cfg`): basic
   blocks of consecutive statements linked by branch/loop/exception
   edges. ``if``/``while``/``for``/``try``/``with``, ``break``/
   ``continue``/``return``/``raise`` are modelled; comprehensions are
   expressions (their generators are visited by the scope analysis,
   not the CFG).

2. **Reaching definitions** (:func:`reaching_definitions`): the
   forward may-analysis on the powerset-of-definitions lattice (join =
   union). A definition is any binding occurrence — parameter,
   assignment, augmented assignment, loop target, ``with``/``except``
   alias, import, nested ``def``/``class``. :class:`ReachingDefs`
   answers "which bindings of ``name`` can flow into this statement?",
   which is what the value-shape queries below are built on.

3. **A project model** (:class:`Project`): every module under the lint
   root, its module-level bindings, classes/methods and imports, plus
   a name-resolved call graph (:meth:`Project.callees`,
   :meth:`Project.reachable_from`). Resolution is intentionally
   shallow: direct names resolve through local scope, imports and
   module globals; ``self.m()``/``cls.m()`` resolve through the
   enclosing class and its project-local bases; ``obj.m()`` resolves
   only when ``obj`` is a parameter/variable with a project-class
   annotation. Unresolvable receivers are skipped — a documented
   false-negative boundary, not an error.

On top sit the value-shape helpers the rules share:

- :func:`mutable_value_expr` — does an expression evaluate to a
  known-mutable container (list/dict/set displays and constructors)?
- :func:`unpicklable_value_expr` — does it evaluate to a value that
  can never cross a process boundary (locks, pools, open files,
  sockets, generators, lambdas)?
- :func:`set_typed_expr` / dict-from-set detection for the merge
  determinism rule.
- :class:`TaintAnalysis` — forward taint over reaching definitions:
  sources are ``np.frombuffer`` views and calls to project functions
  whose returns are tainted (computed to fixpoint over the call
  graph); propagation follows view-preserving operations (slices,
  ``.view``/``.reshape``/``.ravel``/``.astype(copy=False)``,
  ``np.asarray``); sinks are in-place stores (``t[i] = ...``,
  ``t += ...``, ``out=t``, in-place methods).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Control-flow graphs
# ---------------------------------------------------------------------------


@dataclass
class BasicBlock:
    """A maximal run of straight-line statements."""

    index: int
    statements: list[ast.stmt] = field(default_factory=list)
    successors: set[int] = field(default_factory=set)
    predecessors: set[int] = field(default_factory=set)


class ControlFlowGraph:
    """Basic blocks + edges for one function body.

    ``entry`` is always block 0 (empty when the body starts with a
    branch); ``exit_index`` is a synthetic empty block every return
    path feeds. Unreachable blocks (after ``return``/``raise``) stay
    in ``blocks`` but have no predecessors.
    """

    def __init__(self) -> None:
        self.blocks: list[BasicBlock] = []
        self.exit_index: int = -1

    def new_block(self) -> BasicBlock:
        block = BasicBlock(len(self.blocks))
        self.blocks.append(block)
        return block

    def add_edge(self, src: int, dst: int) -> None:
        self.blocks[src].successors.add(dst)
        self.blocks[dst].predecessors.add(src)

    def reachable_blocks(self) -> list[BasicBlock]:
        seen = {0}
        stack = [0]
        while stack:
            for succ in self.blocks[stack.pop()].successors:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return [b for b in self.blocks if b.index in seen]


class _LoopContext:
    def __init__(self, head: int, after: int) -> None:
        self.head = head
        self.after = after


class _CFGBuilder:
    def __init__(self) -> None:
        self.cfg = ControlFlowGraph()
        self._loops: list[_LoopContext] = []
        # Blocks that jump straight to the function exit.
        self._exit_jumps: list[int] = []

    def build(self, body: list[ast.stmt]) -> ControlFlowGraph:
        entry = self.cfg.new_block()
        last = self._emit_body(body, entry.index)
        exit_block = self.cfg.new_block()
        self.cfg.exit_index = exit_block.index
        if last is not None:
            self.cfg.add_edge(last, exit_block.index)
        for src in self._exit_jumps:
            self.cfg.add_edge(src, exit_block.index)
        return self.cfg

    def _emit_body(self, body: list[ast.stmt], current: int) -> int | None:
        """Emit statements into ``current``; return the live tail block
        (None when every path left via return/raise/break/continue)."""
        for stmt in body:
            if current is None:
                # Dead code after a terminator: park it in a fresh,
                # unreachable block so its definitions still exist for
                # whole-function queries.
                current = self.cfg.new_block().index
            current = self._emit_stmt(stmt, current)
        return current

    def _emit_stmt(self, stmt: ast.stmt, current: int) -> int | None:
        cfg = self.cfg
        if isinstance(stmt, (ast.Return, ast.Raise)):
            cfg.blocks[current].statements.append(stmt)
            self._exit_jumps.append(current)
            return None
        if isinstance(stmt, ast.Break):
            cfg.blocks[current].statements.append(stmt)
            if self._loops:
                cfg.add_edge(current, self._loops[-1].after)
            return None
        if isinstance(stmt, ast.Continue):
            cfg.blocks[current].statements.append(stmt)
            if self._loops:
                cfg.add_edge(current, self._loops[-1].head)
            return None
        if isinstance(stmt, ast.If):
            return self._emit_if(stmt, current)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._emit_loop(stmt, current)
        if isinstance(stmt, ast.Try):
            return self._emit_try(stmt, current)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            # The with-item assignments belong to the header block;
            # the body is straight-line from there.
            cfg.blocks[current].statements.append(stmt)
            return self._emit_body(stmt.body, current)
        cfg.blocks[current].statements.append(stmt)
        return current

    def _emit_if(self, stmt: ast.If, current: int) -> int | None:
        cfg = self.cfg
        cfg.blocks[current].statements.append(_HeaderMarker(stmt))
        then_block = cfg.new_block()
        cfg.add_edge(current, then_block.index)
        then_tail = self._emit_body(stmt.body, then_block.index)
        if stmt.orelse:
            else_block = cfg.new_block()
            cfg.add_edge(current, else_block.index)
            else_tail = self._emit_body(stmt.orelse, else_block.index)
        else:
            else_tail = current
        if then_tail is None and else_tail is None:
            return None
        join = cfg.new_block()
        if then_tail is not None:
            cfg.add_edge(then_tail, join.index)
        if else_tail is not None:
            cfg.add_edge(else_tail, join.index)
        return join.index

    def _emit_loop(
        self, stmt: ast.While | ast.For | ast.AsyncFor, current: int
    ) -> int:
        cfg = self.cfg
        head = cfg.new_block()
        cfg.add_edge(current, head.index)
        # For-loops bind their target at the head (once per iteration).
        cfg.blocks[head.index].statements.append(_HeaderMarker(stmt))
        after = cfg.new_block()
        body_block = cfg.new_block()
        cfg.add_edge(head.index, body_block.index)
        cfg.add_edge(head.index, after.index)  # zero-iteration path
        self._loops.append(_LoopContext(head.index, after.index))
        body_tail = self._emit_body(stmt.body, body_block.index)
        self._loops.pop()
        if body_tail is not None:
            cfg.add_edge(body_tail, head.index)
        if stmt.orelse:
            # else runs on normal loop exit; model as part of `after`.
            after_tail = self._emit_body(stmt.orelse, after.index)
            if after_tail is None:
                return cfg.new_block().index
            return after_tail
        return after.index

    def _emit_try(self, stmt: ast.Try, current: int) -> int | None:
        cfg = self.cfg
        body_block = cfg.new_block()
        cfg.add_edge(current, body_block.index)
        body_tail = self._emit_body(stmt.body, body_block.index)
        join = cfg.new_block()
        # Any statement in the body may raise: every handler is
        # reachable from the body's entry (the conservative edge).
        handler_tails: list[int | None] = []
        for handler in stmt.handlers:
            handler_block = cfg.new_block()
            cfg.add_edge(body_block.index, handler_block.index)
            cfg.blocks[handler_block.index].statements.append(
                _HeaderMarker(handler)
            )
            handler_tails.append(
                self._emit_body(handler.body, handler_block.index)
            )
        if stmt.orelse and body_tail is not None:
            body_tail = self._emit_body(stmt.orelse, body_tail)
        live_tails = [t for t in [body_tail, *handler_tails] if t is not None]
        if stmt.finalbody:
            final_block = cfg.new_block()
            for tail in live_tails:
                cfg.add_edge(tail, final_block.index)
            if not live_tails:
                cfg.add_edge(body_block.index, final_block.index)
            final_tail = self._emit_body(stmt.finalbody, final_block.index)
            if final_tail is None:
                return None
            cfg.add_edge(final_tail, join.index)
            return join.index
        if not live_tails:
            return None
        for tail in live_tails:
            cfg.add_edge(tail, join.index)
        return join.index


class _HeaderMarker(ast.stmt):
    """Wraps a compound statement so only its *header* (test / iter /
    target bindings) is attributed to the block, not its body."""

    _fields = ()

    def __init__(self, stmt: ast.stmt) -> None:
        super().__init__()
        self.stmt = stmt
        self.lineno = stmt.lineno
        self.col_offset = stmt.col_offset


def build_cfg(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> ControlFlowGraph:
    """The control-flow graph of one function's body."""
    return _CFGBuilder().build(fn.body)


# ---------------------------------------------------------------------------
# Reaching definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Definition:
    """One binding occurrence of ``name``.

    ``value`` is the bound expression when statically evident (simple
    assignments and ``with ... as`` items); None for parameters, loop
    targets, aug-assigns and other opaque bindings. ``kind`` is one of
    ``param/assign/aug/for/with/except/import/def/class/global``.
    """

    name: str
    line: int
    col: int
    kind: str
    value: ast.expr | None = None

    def __repr__(self) -> str:  # compact — these show up in test asserts
        return f"Definition({self.name!r}, L{self.line}, {self.kind})"


def _target_names(target: ast.expr) -> Iterator[ast.Name]:
    if isinstance(target, ast.Name):
        yield target
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


def statement_definitions(stmt: ast.stmt) -> list[Definition]:
    """The definitions a single (non-compound) statement generates."""
    defs: list[Definition] = []
    if isinstance(stmt, _HeaderMarker):
        inner = stmt.stmt
        if isinstance(inner, (ast.For, ast.AsyncFor)):
            for name in _target_names(inner.target):
                defs.append(
                    Definition(name.id, name.lineno, name.col_offset, "for")
                )
        elif isinstance(inner, ast.ExceptHandler) and inner.name:
            defs.append(
                Definition(inner.name, inner.lineno, inner.col_offset, "except")
            )
        return defs
    if isinstance(stmt, ast.Assign):
        value = stmt.value if len(stmt.targets) == 1 else None
        for target in stmt.targets:
            for name in _target_names(target):
                bound = value if isinstance(target, ast.Name) else None
                defs.append(
                    Definition(
                        name.id, name.lineno, name.col_offset, "assign", bound
                    )
                )
    elif isinstance(stmt, ast.AnnAssign):
        if isinstance(stmt.target, ast.Name) and stmt.value is not None:
            defs.append(
                Definition(
                    stmt.target.id,
                    stmt.target.lineno,
                    stmt.target.col_offset,
                    "assign",
                    stmt.value,
                )
            )
    elif isinstance(stmt, ast.AugAssign):
        if isinstance(stmt.target, ast.Name):
            defs.append(
                Definition(
                    stmt.target.id, stmt.lineno, stmt.col_offset, "aug"
                )
            )
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                for name in _target_names(item.optional_vars):
                    defs.append(
                        Definition(
                            name.id,
                            name.lineno,
                            name.col_offset,
                            "with",
                            item.context_expr,
                        )
                    )
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            bound = alias.asname or alias.name.split(".")[0]
            defs.append(
                Definition(bound, stmt.lineno, stmt.col_offset, "import")
            )
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        defs.append(Definition(stmt.name, stmt.lineno, stmt.col_offset, "def"))
    elif isinstance(stmt, ast.ClassDef):
        defs.append(
            Definition(stmt.name, stmt.lineno, stmt.col_offset, "class")
        )
    return defs


class ReachingDefs:
    """Reaching-definition sets for one function.

    ``block_in[i]`` is the set of definitions reaching the entry of
    block ``i``; :meth:`at_statement` refines that to a specific
    statement by walking the block prefix. :meth:`definitions_of`
    ignores program points entirely (every binding of a name anywhere
    in the function) — the conservative query the closure rules use,
    since a closure may be called at any later point.
    """

    def __init__(
        self,
        cfg: ControlFlowGraph,
        fn: ast.FunctionDef | ast.AsyncFunctionDef | None = None,
    ) -> None:
        self.cfg = cfg
        self._param_defs = _parameter_definitions(fn) if fn is not None else []
        self.block_in: list[set[Definition]] = []
        self._solve()

    def _solve(self) -> None:
        blocks = self.cfg.blocks
        gen: list[dict[str, set[Definition]]] = []
        for block in blocks:
            block_gen: dict[str, set[Definition]] = {}
            for stmt in block.statements:
                for definition in statement_definitions(stmt):
                    # A later same-name def in the block kills earlier
                    # ones (strong update within straight-line code).
                    block_gen[definition.name] = {definition}
            gen.append(block_gen)

        entry_defs = {d for d in self._param_defs}
        self.block_in = [set() for _ in blocks]
        self.block_in[0] = set(entry_defs)
        out: list[set[Definition]] = [set() for _ in blocks]
        changed = True
        while changed:
            changed = False
            for block in blocks:
                in_set: set[Definition] = (
                    set(entry_defs) if block.index == 0 else set()
                )
                for pred in block.predecessors:
                    in_set |= out[pred]
                killed = set(gen[block.index])
                out_set = {
                    d for d in in_set if d.name not in killed
                } | {d for defs in gen[block.index].values() for d in defs}
                if in_set != self.block_in[block.index] or out_set != out[
                    block.index
                ]:
                    self.block_in[block.index] = in_set
                    out[block.index] = out_set
                    changed = True

    def at_statement(self, stmt: ast.stmt) -> dict[str, set[Definition]]:
        """name -> definitions that may reach ``stmt``."""
        for block in self.cfg.blocks:
            current: dict[str, set[Definition]] = {}
            for d in self.block_in[block.index]:
                current.setdefault(d.name, set()).add(d)
            for member in block.statements:
                target = member.stmt if isinstance(member, _HeaderMarker) else member
                if target is stmt or member is stmt:
                    return current
                for definition in statement_definitions(member):
                    current[definition.name] = {definition}
        return {}

    def definitions_of(self, name: str) -> set[Definition]:
        """Every binding of ``name`` anywhere in the function."""
        found = {d for d in self._param_defs if d.name == name}
        for block in self.cfg.blocks:
            for stmt in block.statements:
                for definition in statement_definitions(stmt):
                    if definition.name == name:
                        found.add(definition)
        return found


def _parameter_definitions(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[Definition]:
    args = fn.args
    params = (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    )
    return [
        Definition(a.arg, a.lineno, a.col_offset, "param") for a in params
    ]


def reaching_definitions(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> ReachingDefs:
    """Convenience: CFG + solved reaching definitions for ``fn``."""
    return ReachingDefs(build_cfg(fn), fn)


# ---------------------------------------------------------------------------
# Scopes, closures and mutation shapes
# ---------------------------------------------------------------------------

#: Container methods that mutate their receiver in place.
MUTATING_CONTAINER_METHODS = {
    "add", "append", "clear", "discard", "extend", "insert", "pop",
    "popitem", "remove", "setdefault", "sort", "update",
    "__setitem__", "__delitem__",
}

#: numpy ndarray methods that mutate the array in place.
INPLACE_NDARRAY_METHODS = {
    "fill", "sort", "partition", "put", "itemset", "byteswap", "resize",
    "setfield", "setflags",
}


def bound_names(fn: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda) -> set[str]:
    """Names the function binds locally (params + every binding form)."""
    args = fn.args
    names = {
        a.arg
        for a in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        )
    }
    body = fn.body if isinstance(fn.body, list) else [ast.Expr(fn.body)]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                names.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ExceptHandler) and node.name:
                names.add(node.name)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                # global/nonlocal names are *not* local bindings.
                names.difference_update(node.names)
    return names


def _comprehension_bound(node: ast.AST) -> set[str]:
    bound: set[str] = set()
    if isinstance(
        node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    ):
        for gen in node.generators:
            for name in _target_names(gen.target):
                bound.add(name.id)
    return bound


def free_names(
    fn: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
) -> set[str]:
    """Names ``fn`` reads but does not bind — closure/global candidates.

    Nested functions contribute their own free names (minus what the
    outer function binds is handled by the caller); comprehension
    targets are bound within the comprehension.
    """
    local = bound_names(fn)
    free: set[str] = set()
    body = fn.body if isinstance(fn.body, list) else [ast.Expr(fn.body)]

    def visit(node: ast.AST, extra_bound: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inner_free = free_names(node)
            for name in inner_free:
                if name not in local and name not in extra_bound:
                    free.add(name)
            # Default expressions evaluate in the enclosing scope.
            for default in list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]:
                visit(default, extra_bound)
            return
        comp_bound = _comprehension_bound(node)
        if comp_bound:
            extra_bound = extra_bound | comp_bound
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local and node.id not in extra_bound:
                free.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, extra_bound)

    for stmt in body:
        visit(stmt, frozenset())
    return free


def attribute_root(node: ast.expr) -> ast.expr:
    """Strip attribute/subscript chains: ``a.b[c].d`` -> Name ``a``."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node


@dataclass(frozen=True)
class Mutation:
    """One write through a name: what kind, and where."""

    name: str
    line: int
    col: int
    kind: str  # 'attr-store' | 'subscript-store' | 'aug' | 'method' | 'rebind' | 'del'
    detail: str = ""


def mutations_through(
    fn: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
    names: Iterable[str] | None = None,
    imported: Iterable[str] = (),
) -> list[Mutation]:
    """Writes the function performs *through* each root name.

    Catches attribute stores (``x.a = ...``), subscript stores
    (``x[k] = ...``), augmented assigns on the name or through it,
    deletes, rebinding via ``global``/``nonlocal``, and calls to
    known mutating container methods rooted at the name. Reads are
    never mutations; so ``x.a`` on the RHS is fine. A call rooted at
    one of the ``imported`` names (bound by ``import`` / ``from ...
    import``) is a function call — ``np.sort(x)`` — not a container
    method; stores through such a name still count.
    """
    imported = frozenset(imported)
    wanted = set(names) if names is not None else None
    found: list[Mutation] = []
    declared_nonlocal: set[str] = set()
    body = fn.body if isinstance(fn.body, list) else [ast.Expr(fn.body)]

    def note(name: str, node: ast.AST, kind: str, detail: str = "") -> None:
        if wanted is None or name in wanted:
            found.append(
                Mutation(
                    name, node.lineno, node.col_offset, kind, detail
                )
            )

    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared_nonlocal.update(node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    for sub in _flatten(target):
                        root = attribute_root(sub)
                        if not isinstance(root, ast.Name):
                            continue
                        if isinstance(sub, ast.Attribute):
                            note(root.id, sub, "attr-store", sub.attr)
                        elif isinstance(sub, ast.Subscript):
                            note(root.id, sub, "subscript-store")
                        elif (
                            isinstance(sub, ast.Name)
                            and isinstance(node, ast.AugAssign)
                        ):
                            note(root.id, sub, "aug")
                        elif (
                            isinstance(sub, ast.Name)
                            and sub.id in declared_nonlocal
                        ):
                            note(root.id, sub, "rebind", "global/nonlocal")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    root = attribute_root(target)
                    if isinstance(root, ast.Name) and not isinstance(
                        target, ast.Name
                    ):
                        note(root.id, target, "del")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_CONTAINER_METHODS
            ):
                root = attribute_root(node.func.value)
                if isinstance(root, ast.Name) and root.id not in imported:
                    note(root.id, node, "method", node.func.attr)
    # Late-pass fixup: `global`/`nonlocal` declarations may appear
    # after the first assignment textually; re-scan plain rebinds.
    if declared_nonlocal:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        for sub in _flatten(target):
                            if (
                                isinstance(sub, ast.Name)
                                and sub.id in declared_nonlocal
                            ):
                                note(sub.id, sub, "rebind", "global/nonlocal")
    return found


def _flatten(target: ast.expr) -> Iterator[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _flatten(element)
    elif isinstance(target, ast.Starred):
        yield from _flatten(target.value)
    else:
        yield target


# ---------------------------------------------------------------------------
# Value-shape classification
# ---------------------------------------------------------------------------

#: Constructors whose results are mutable containers.
MUTABLE_CONSTRUCTORS = {
    "list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
    "Counter", "deque",
}

#: Constructors whose results can never cross a process boundary.
#: (threading primitives, pools, OS handles, live iterators)
UNPICKLABLE_CONSTRUCTORS = {
    "Lock", "RLock", "Condition", "Event", "Semaphore", "BoundedSemaphore",
    "Barrier", "local", "ThreadPoolExecutor", "ProcessPoolExecutor",
    "Thread", "open", "socket", "Popen", "connect", "allocate_lock",
    "mmap",
}


def call_name(node: ast.expr) -> str | None:
    """The trailing name of a call target: ``threading.Lock`` -> Lock."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def mutable_value_expr(expr: ast.expr | None) -> bool:
    """Does ``expr`` evaluate to a known-mutable container?"""
    if expr is None:
        return False
    if isinstance(expr, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp)):
        return True
    if isinstance(expr, ast.Call):
        return call_name(expr) in MUTABLE_CONSTRUCTORS
    return False


def unpicklable_value_expr(expr: ast.expr | None) -> str | None:
    """The constructor name when ``expr`` builds an unpicklable value."""
    if expr is None:
        return None
    if isinstance(expr, ast.Call):
        name = call_name(expr)
        if name in UNPICKLABLE_CONSTRUCTORS:
            return name
    if isinstance(expr, ast.Lambda):
        return "lambda"
    if isinstance(expr, ast.GeneratorExp):
        return "generator"
    return None


def set_typed_expr(expr: ast.expr | None) -> bool:
    """Does ``expr`` evaluate to a set (hash-ordered iteration)?"""
    if expr is None:
        return False
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        name = call_name(expr)
        if name in ("set", "frozenset"):
            return True
        # s.union(...) / s.intersection(...) / s.difference(...)
        if isinstance(expr.func, ast.Attribute) and expr.func.attr in (
            "union", "intersection", "difference", "symmetric_difference",
            "copy",
        ):
            return set_typed_expr(expr.func.value)
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return set_typed_expr(expr.left) or set_typed_expr(expr.right)
    return False


def sorted_wrapped(expr: ast.expr) -> bool:
    """Is the iteration source explicitly ordered (``sorted(...)`` or
    ``sorted``-adjacent helpers)?"""
    return (
        isinstance(expr, ast.Call)
        and call_name(expr) in ("sorted", "min", "max")
    )


# ---------------------------------------------------------------------------
# The project model & call graph
# ---------------------------------------------------------------------------


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    rel_path: str
    qualname: str  # module-relative: "f" or "Class.f"
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class ClassInfo:
    rel_path: str
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    bases: list[str] = field(default_factory=list)
    #: attr name -> value exprs assigned via self.attr anywhere in the class
    attr_assigns: dict[str, list[ast.expr]] = field(default_factory=dict)

    def has_pickle_protocol(self) -> bool:
        return any(
            name in self.methods
            for name in ("__getstate__", "__reduce__", "__reduce_ex__")
        )


@dataclass
class ModuleModel:
    """Symbols of one module: functions, classes, globals, imports."""

    rel_path: str
    tree: ast.Module
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level name -> assigned value expressions
    globals: dict[str, list[ast.expr]] = field(default_factory=dict)
    #: local alias -> dotted module ("np" -> "numpy"), for `import x as y`
    import_modules: dict[str, str] = field(default_factory=dict)
    #: local alias -> (module, original name), for `from m import x [as y]`
    import_names: dict[str, tuple[str, str]] = field(default_factory=dict)


def _index_module(rel_path: str, tree: ast.Module) -> ModuleModel:
    model = ModuleModel(rel_path, tree)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            model.functions[stmt.name] = FunctionInfo(
                rel_path, stmt.name, stmt
            )
        elif isinstance(stmt, ast.ClassDef):
            info = ClassInfo(
                rel_path,
                stmt,
                bases=[
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in stmt.bases
                    if isinstance(base, (ast.Name, ast.Attribute))
                ],
            )
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method = FunctionInfo(
                        rel_path,
                        f"{stmt.name}.{item.name}",
                        item,
                        class_name=stmt.name,
                    )
                    info.methods[item.name] = method
            for node in ast.walk(stmt):
                for target in _assign_targets(node):
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in ("self", "cls")
                    ):
                        value = _assigned_value(node)
                        info.attr_assigns.setdefault(target.attr, [])
                        if value is not None:
                            info.attr_assigns[target.attr].append(value)
            model.classes[stmt.name] = info
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for name in _target_names(target):
                    model.globals.setdefault(name.id, []).append(stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                model.globals.setdefault(stmt.target.id, []).append(stmt.value)
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                model.import_modules[
                    alias.asname or alias.name.split(".")[0]
                ] = alias.name
        elif isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                model.import_names[alias.asname or alias.name] = (
                    stmt.module or "", alias.name
                )
    return model


def _assign_targets(node: ast.AST) -> Iterator[ast.expr]:
    if isinstance(node, ast.Assign):
        for target in node.targets:
            yield from _flatten(target)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        yield from _flatten(node.target)


def _assigned_value(node: ast.AST) -> ast.expr | None:
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        return node.value
    return None


def _module_name_of(rel_path: str) -> str:
    """'storage/trie.py' -> 'repro.storage.trie' (lint-root relative)."""
    stem = rel_path[:-3] if rel_path.endswith(".py") else rel_path
    if stem.endswith("/__init__"):
        stem = stem[: -len("/__init__")]
    dotted = stem.replace("/", ".")
    return f"repro.{dotted}" if dotted else "repro"


class Project:
    """Whole-project symbol table + name-resolved call graph.

    Built once per lint run from every parsed module; rules query it
    through :meth:`function_infos`, :meth:`resolve_call`,
    :meth:`callees` and :meth:`reachable_from`.
    """

    def __init__(self, modules: Iterable[tuple[str, ast.Module]]) -> None:
        self.modules: dict[str, ModuleModel] = {}
        for rel_path, tree in modules:
            self.modules[rel_path] = _index_module(rel_path, tree)
        #: dotted module name -> ModuleModel, for import resolution
        self._by_module_name = {
            _module_name_of(rel): model for rel, model in self.modules.items()
        }
        self._callee_cache: dict[tuple[str, str], list[FunctionInfo]] = {}
        self._returns_tainted: dict[tuple[str, str], bool] | None = None

    # -- lookup -------------------------------------------------------------

    def function_infos(self) -> Iterator[FunctionInfo]:
        for model in self.modules.values():
            yield from model.functions.values()
            for cls in model.classes.values():
                yield from cls.methods.values()

    def functions_named(self, name: str) -> list[FunctionInfo]:
        return [f for f in self.function_infos() if f.name == name]

    def class_named(self, name: str) -> ClassInfo | None:
        for model in self.modules.values():
            if name in model.classes:
                return model.classes[name]
        return None

    def model_for(self, rel_path: str) -> ModuleModel | None:
        return self.modules.get(rel_path)

    def _resolve_project_module(self, dotted: str) -> ModuleModel | None:
        return self._by_module_name.get(dotted)

    # -- call resolution ----------------------------------------------------

    def resolve_call(
        self, call: ast.Call, caller: FunctionInfo
    ) -> list[FunctionInfo]:
        """The project functions a call may invoke (possibly empty).

        Resolution order for ``f(...)``: enclosing class method (bare
        recursion is rare), same-module function, ``from m import f``,
        class constructor (-> ``__init__``). For ``x.m(...)``: ``self``
        / ``cls`` receivers through the class and its project bases;
        ``mod.f`` through ``import`` aliases; annotated parameters /
        locals through their class annotation. Anything else is
        unresolved (skipped).
        """
        model = self.modules[caller.rel_path]
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_bare_name(func.id, model)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute(func, caller, model)
        return []

    def _resolve_bare_name(
        self, name: str, model: ModuleModel
    ) -> list[FunctionInfo]:
        if name in model.functions:
            return [model.functions[name]]
        if name in model.classes:
            init = model.classes[name].methods.get("__init__")
            return [init] if init else []
        if name in model.import_names:
            module_name, original = model.import_names[name]
            target = self._resolve_project_module(module_name)
            if target is not None:
                return self._resolve_bare_name(original, target)
        return []

    def _resolve_attribute(
        self, func: ast.Attribute, caller: FunctionInfo, model: ModuleModel
    ) -> list[FunctionInfo]:
        receiver = func.value
        method = func.attr
        # self.m() / cls.m(): the enclosing class, then project bases.
        if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
            if caller.class_name is not None:
                return self._resolve_method_in_hierarchy(
                    caller.class_name, method
                )
            return []
        # mod.f(): import alias of a project module.
        if isinstance(receiver, ast.Name):
            dotted = model.import_modules.get(receiver.id)
            if dotted is not None:
                target = self._resolve_project_module(dotted)
                if target is not None:
                    return self._resolve_bare_name(method, target)
                return []  # stdlib/third-party module: out of scope
            # Annotated parameter / local: resolve through the class.
            ann = _annotation_of(caller.node, receiver.id)
            if ann is not None:
                cls = self.class_named(ann)
                if cls is not None:
                    return self._resolve_method_in_hierarchy(
                        cls.node.name, method
                    )
        return []

    def _resolve_method_in_hierarchy(
        self, class_name: str, method: str
    ) -> list[FunctionInfo]:
        seen: set[str] = set()
        queue = [class_name]
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            cls = self.class_named(name)
            if cls is None:
                continue
            if method in cls.methods:
                return [cls.methods[method]]
            queue.extend(cls.bases)
        return []

    def callees(self, fn: FunctionInfo) -> list[FunctionInfo]:
        key = (fn.rel_path, fn.qualname)
        cached = self._callee_cache.get(key)
        if cached is not None:
            return cached
        out: list[FunctionInfo] = []
        seen: set[tuple[str, str]] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                for callee in self.resolve_call(node, fn):
                    ckey = (callee.rel_path, callee.qualname)
                    if ckey not in seen:
                        seen.add(ckey)
                        out.append(callee)
        self._callee_cache[key] = out
        return out

    def reachable_from(
        self, root: FunctionInfo
    ) -> dict[tuple[str, str], list[str]]:
        """Every function reachable from ``root`` (root excluded),
        mapped to one witness call chain of qualnames."""
        found: dict[tuple[str, str], list[str]] = {}
        queue: list[tuple[FunctionInfo, list[str]]] = [
            (root, [f"{root.rel_path}:{root.qualname}"])
        ]
        while queue:
            fn, chain = queue.pop(0)
            for callee in self.callees(fn):
                key = (callee.rel_path, callee.qualname)
                if key == (root.rel_path, root.qualname) or key in found:
                    continue
                found[key] = chain + [f"{callee.rel_path}:{callee.qualname}"]
                queue.append((callee, found[key]))
        return found

    def info_by_key(self, key: tuple[str, str]) -> FunctionInfo | None:
        model = self.modules.get(key[0])
        if model is None:
            return None
        qualname = key[1]
        if "." in qualname:
            class_name, method = qualname.split(".", 1)
            cls = model.classes.get(class_name)
            return cls.methods.get(method) if cls else None
        return model.functions.get(qualname)

    # -- return-taint summaries (REP014) ------------------------------------

    def returns_tainted(self, fn: FunctionInfo) -> bool:
        """Does ``fn`` (possibly) return a frombuffer-derived view?

        Computed to fixpoint over the whole project: a function is
        return-tainted when any ``return e`` has ``e`` tainted under
        :class:`TaintAnalysis` seeded with the current summaries.
        """
        if self._returns_tainted is None:
            self._solve_return_taint()
        return self._returns_tainted.get((fn.rel_path, fn.qualname), False)

    def _solve_return_taint(self) -> None:
        summaries: dict[tuple[str, str], bool] = {}
        functions = list(self.function_infos())
        changed = True
        rounds = 0
        while changed and rounds < 10:
            changed = False
            rounds += 1
            for fn in functions:
                key = (fn.rel_path, fn.qualname)
                if summaries.get(key, False):
                    continue
                analysis = TaintAnalysis(fn, self, _summaries=summaries)
                if analysis.any_return_tainted():
                    summaries[key] = True
                    changed = True
        self._returns_tainted = summaries


def _annotation_of(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, name: str
) -> str | None:
    """The (string) class name a parameter/variable is annotated with."""
    args = fn.args
    for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
        if a.arg == name and a.annotation is not None:
            return _annotation_name(a.annotation)
    for node in ast.walk(fn.node if hasattr(fn, "node") else fn):
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == name
        ):
            return _annotation_name(node.annotation)
    return None


def _annotation_name(annotation: ast.expr) -> str | None:
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        # 'ChunkData' string annotations; strip Optional-ish wrappers.
        text = annotation.value.strip()
        return text.split("[")[0].split(".")[-1] or None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        # "X | None": take the non-None side.
        for side in (annotation.left, annotation.right):
            name = _annotation_name(side)
            if name is not None and name != "None":
                return name
    if isinstance(annotation, ast.Subscript):
        return _annotation_name(annotation.value)
    return None


# ---------------------------------------------------------------------------
# Buffer taint (REP014)
# ---------------------------------------------------------------------------

#: Receiver methods that keep a view onto the same memory.
_VIEWING_METHODS = {"view", "reshape", "ravel", "squeeze", "transpose",
                    "swapaxes", "newbyteorder"}


@dataclass(frozen=True)
class TaintSink:
    """An in-place write on a tainted (buffer-derived) array."""

    line: int
    col: int
    name: str
    kind: str  # 'subscript-store' | 'aug' | 'out-kwarg' | 'inplace-method'
    source_line: int  # the frombuffer/source binding that tainted it


class TaintAnalysis:
    """Forward may-taint over one function's reaching definitions.

    A *source* is ``np.frombuffer(...)`` (any receiver ending in
    ``frombuffer``) or a call to a project function whose summary says
    it returns a tainted view. Taint propagates through aliasing
    assignments and view-preserving expressions; it does **not**
    propagate through copying operations (arithmetic, ``.astype()``
    with default copy, ``np.unique``/``bincount``/boolean indexing),
    which allocate fresh memory.
    """

    def __init__(
        self,
        fn: FunctionInfo,
        project: Project | None = None,
        _summaries: dict[tuple[str, str], bool] | None = None,
    ) -> None:
        self.fn = fn
        self.project = project
        self._summaries = _summaries
        self.rdefs = reaching_definitions(fn.node)
        self._tainted_defs: set[Definition] = set()
        self._taint_source_line: dict[Definition, int] = {}
        self._solve_local()

    # -- classification -----------------------------------------------------

    def _call_is_source(self, call: ast.Call) -> bool:
        name = call_name(call)
        if name == "frombuffer":
            return True
        if self.project is not None:
            if self._summaries is not None:
                for callee in self.project.resolve_call(call, self.fn):
                    if self._summaries.get(
                        (callee.rel_path, callee.qualname), False
                    ):
                        return True
            else:
                for callee in self.project.resolve_call(call, self.fn):
                    if self.project.returns_tainted(callee):
                        return True
        return False

    def expr_tainted(self, expr: ast.expr, at: ast.stmt | None = None) -> bool:
        return self._expr_tainted(expr, at)

    def _name_tainted(self, name: str, at: ast.stmt | None) -> bool:
        if at is not None:
            reaching = self.rdefs.at_statement(at).get(name)
            if reaching is not None:
                return any(d in self._tainted_defs for d in reaching)
        return any(
            d in self._tainted_defs for d in self.rdefs.definitions_of(name)
        )

    def _expr_tainted(self, expr: ast.expr, at: ast.stmt | None) -> bool:
        if isinstance(expr, ast.Name):
            return self._name_tainted(expr.id, at)
        if isinstance(expr, ast.Call):
            if self._call_is_source(expr):
                return True
            func = expr.func
            if isinstance(func, ast.Attribute):
                if func.attr in _VIEWING_METHODS:
                    return self._expr_tainted(func.value, at)
                if func.attr == "astype":
                    # astype copies by default; only copy=False views.
                    for kw in expr.keywords:
                        if (
                            kw.arg == "copy"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is False
                        ):
                            return self._expr_tainted(func.value, at)
                    return False
                if func.attr == "asarray":
                    return any(
                        self._expr_tainted(a, at) for a in expr.args
                    )
            return False
        if isinstance(expr, ast.Subscript):
            # Slice of a view is a view; scalar/fancy indexing copies
            # (a scalar read is not an array at all).
            if isinstance(expr.slice, ast.Slice):
                return self._expr_tainted(expr.value, at)
            return False
        if isinstance(expr, ast.Attribute):
            if expr.attr == "T":
                return self._expr_tainted(expr.value, at)
            return False
        if isinstance(expr, ast.IfExp):
            return self._expr_tainted(expr.body, at) or self._expr_tainted(
                expr.orelse, at
            )
        if isinstance(expr, (ast.Tuple, ast.List)):
            return any(self._expr_tainted(e, at) for e in expr.elts)
        return False

    # -- solving ------------------------------------------------------------

    def _all_statements(self) -> Iterator[ast.stmt]:
        for block in self.rdefs.cfg.blocks:
            for stmt in block.statements:
                yield stmt.stmt if isinstance(stmt, _HeaderMarker) else stmt

    def _solve_local(self) -> None:
        # Iterate assignment re-classification to a local fixpoint:
        # taint introduced by a later-seen def can flow through an
        # earlier-seen alias in loop bodies.
        for _ in range(len(self.rdefs.cfg.blocks) + 2):
            changed = False
            for stmt in self._all_statements():
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    value = _assigned_value(stmt)
                    if value is None:
                        continue
                    if not self._expr_tainted(value, stmt):
                        continue
                    for definition in statement_definitions(stmt):
                        if definition not in self._tainted_defs:
                            self._tainted_defs.add(definition)
                            self._taint_source_line[definition] = value.lineno
                            changed = True
            if not changed:
                break

    def any_return_tainted(self) -> bool:
        for stmt in self._all_statements():
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                if self._expr_tainted(stmt.value, stmt):
                    return True
        return False

    def _source_line_for(self, name: str) -> int:
        for definition in self.rdefs.definitions_of(name):
            if definition in self._tainted_defs:
                return self._taint_source_line.get(definition, definition.line)
        return 0

    def sinks(self) -> list[TaintSink]:
        """Every in-place write on a tainted array in this function."""
        out: list[TaintSink] = []
        for stmt in self._all_statements():
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for sub in _flatten(target):
                        if isinstance(sub, ast.Subscript):
                            root = attribute_root(sub)
                            base = sub.value
                            if isinstance(
                                base, ast.Name
                            ) and self._name_tainted(base.id, stmt):
                                out.append(
                                    TaintSink(
                                        sub.lineno, sub.col_offset,
                                        base.id, "subscript-store",
                                        self._source_line_for(base.id),
                                    )
                                )
                            del root
            elif isinstance(stmt, ast.AugAssign):
                target = stmt.target
                base: ast.expr | None = None
                if isinstance(target, ast.Name):
                    base = target
                elif isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    base = target.value
                if (
                    isinstance(base, ast.Name)
                    and self._name_tainted(base.id, stmt)
                ):
                    out.append(
                        TaintSink(
                            stmt.lineno, stmt.col_offset, base.id, "aug",
                            self._source_line_for(base.id),
                        )
                    )
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                for kw in node.keywords:
                    if kw.arg == "out" and isinstance(kw.value, ast.Name):
                        if self._name_tainted(kw.value.id, stmt):
                            out.append(
                                TaintSink(
                                    node.lineno, node.col_offset,
                                    kw.value.id, "out-kwarg",
                                    self._source_line_for(kw.value.id),
                                )
                            )
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in INPLACE_NDARRAY_METHODS
                    and isinstance(func.value, ast.Name)
                    and self._name_tainted(func.value.id, stmt)
                ):
                    out.append(
                        TaintSink(
                            node.lineno, node.col_offset,
                            func.value.id, "inplace-method",
                            self._source_line_for(func.value.id),
                        )
                    )
                if (
                    call_name(node) == "copyto"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and self._name_tainted(node.args[0].id, stmt)
                ):
                    out.append(
                        TaintSink(
                            node.lineno, node.col_offset,
                            node.args[0].id, "inplace-method",
                            self._source_line_for(node.args[0].id),
                        )
                    )
        return out


# ---------------------------------------------------------------------------
# Submission-site discovery (shared by REP011 / REP015)
# ---------------------------------------------------------------------------


@dataclass
class SubmissionSite:
    """One callable handed to an executor-shaped seam."""

    seam: str  # 'map_ordered' | 'dispatch_sub_query'
    call: ast.Call
    callable_expr: ast.expr
    enclosing: FunctionInfo


def submission_sites(
    project: Project, rel_path: str
) -> Iterator[SubmissionSite]:
    """Executor submissions in one module: ``*.map_ordered(fn, ...)``
    and ``dispatch_sub_query(..., attempt_cost, ...)``."""
    model = project.model_for(rel_path)
    if model is None:
        return
    for fn in project.function_infos():
        if fn.rel_path != rel_path:
            continue
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "map_ordered":
                if node.args:
                    yield SubmissionSite("map_ordered", node, node.args[0], fn)
            elif call_name(func) == "dispatch_sub_query":
                target = None
                if len(node.args) >= 5:
                    target = node.args[4]
                for kw in node.keywords:
                    if kw.arg == "attempt_cost":
                        target = kw.value
                if target is not None:
                    yield SubmissionSite(
                        "dispatch_sub_query", node, target, fn
                    )


def resolve_callable(
    site: SubmissionSite, project: Project
) -> tuple[ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda | None, str]:
    """The function node a submitted callable expression denotes.

    Returns (node, label). Lambdas resolve to themselves; names resolve
    to nested ``def``s in the enclosing function, then module-level
    functions. Unresolvable expressions return (None, description).
    """
    expr = site.callable_expr
    if isinstance(expr, ast.Lambda):
        return expr, "lambda"
    if isinstance(expr, ast.Name):
        for node in ast.walk(site.enclosing.node):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == expr.id
                and node is not site.enclosing.node
            ):
                return node, expr.id
        model = project.model_for(site.enclosing.rel_path)
        if model is not None and expr.id in model.functions:
            return model.functions[expr.id].node, expr.id
        return None, expr.id
    if isinstance(expr, ast.Attribute):
        return None, f".{expr.attr}"
    return None, type(expr).__name__
