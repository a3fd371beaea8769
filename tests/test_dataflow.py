"""Unit tests for the dataflow engine and the REP011-REP015 rules.

Two layers:

- the engine primitives (CFG shape, reaching definitions, free names,
  mutation detection, call resolution, buffer taint) exercised on
  synthetic snippets covering branches, loops, try/except,
  comprehensions and nested defs;
- seeded known-bad fixtures proving each interprocedural rule fires
  exactly where the concurrency contract is broken, plus the matching
  known-good variants proving the legal idioms stay silent.
"""

import ast
import textwrap

from repro.analysis import run_lint
from repro.analysis.dataflow import (
    Project,
    TaintAnalysis,
    bound_names,
    build_cfg,
    free_names,
    mutations_through,
    reaching_definitions,
    resolve_callable,
    submission_sites,
)


def fn_node(source, name=None):
    """The (first, or named) function definition in a snippet."""
    tree = ast.parse(textwrap.dedent(source))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            if name is None or node.name == name:
                return node
    raise AssertionError("snippet defines no function")


def project_of(source, rel_path="core/mod.py"):
    return Project([(rel_path, ast.parse(textwrap.dedent(source)))])


def lint_snippet(tmp_path, source, rel_path="core/mod.py", select=None):
    target = tmp_path / rel_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return run_lint([str(tmp_path)], select=select)


class TestControlFlowGraph:
    def test_straight_line_is_one_block_plus_exit(self):
        cfg = build_cfg(
            fn_node(
                """
                def f():
                    a = 1
                    b = a + 1
                    return b
                """
            )
        )
        bodied = [b for b in cfg.reachable_blocks() if b.statements]
        assert len(bodied) == 1
        assert cfg.exit_index in bodied[0].successors

    def test_if_else_branches_rejoin(self):
        cfg = build_cfg(
            fn_node(
                """
                def f(flag):
                    if flag:
                        x = 1
                    else:
                        x = 2
                    return x
                """
            )
        )
        # Entry splits two ways; both arms feed the join block holding
        # the return, which feeds the synthetic exit.
        entry = cfg.blocks[0]
        assert len(entry.successors) == 2
        join = [
            b
            for b in cfg.reachable_blocks()
            if any(isinstance(s, ast.Return) for s in b.statements)
        ]
        assert len(join) == 1
        assert len(join[0].predecessors) == 2

    def test_while_loop_has_back_edge(self):
        cfg = build_cfg(
            fn_node(
                """
                def f(n):
                    i = 0
                    while i < n:
                        i = i + 1
                    return i
                """
            )
        )
        assert any(
            succ <= block.index
            for block in cfg.reachable_blocks()
            for succ in block.successors
        )

    def test_code_after_return_is_unreachable(self):
        source = fn_node(
            """
            def f():
                return 1
                x = 2
            """
        )
        cfg = build_cfg(source)
        reachable = {
            id(stmt)
            for block in cfg.reachable_blocks()
            for stmt in block.statements
        }
        assert id(source.body[1]) not in reachable

    def test_break_exits_loop(self):
        source = fn_node(
            """
            def f(items):
                for item in items:
                    if item:
                        break
                    unreached_only_after_break = 0
                return item
            """
        )
        cfg = build_cfg(source)
        reachable = {
            id(stmt)
            for block in cfg.reachable_blocks()
            for stmt in block.statements
        }
        # Both the post-break loop body and the statement after the
        # loop stay reachable (break only skips the rest of *this*
        # iteration's body on its path).
        assert id(source.body[-1]) in reachable

    def test_except_handler_is_reachable(self):
        source = fn_node(
            """
            def f():
                try:
                    risky()
                except ValueError:
                    handled = 1
                return 0
            """
        )
        cfg = build_cfg(source)
        handler_stmt = source.body[0].handlers[0].body[0]
        reachable = {
            id(stmt)
            for block in cfg.reachable_blocks()
            for stmt in block.statements
        }
        assert id(handler_stmt) in reachable


class TestReachingDefinitions:
    def test_both_branch_definitions_reach_the_join(self):
        source = fn_node(
            """
            def f(flag):
                if flag:
                    x = 1
                else:
                    x = 2
                return x
            """
        )
        defs = reaching_definitions(source)
        at_return = defs.at_statement(source.body[-1])
        assert sorted(d.line for d in at_return["x"]) == [4, 6]

    def test_straight_line_strong_update(self):
        source = fn_node(
            """
            def f():
                x = 1
                x = 2
                return x
            """
        )
        defs = reaching_definitions(source)
        at_return = defs.at_statement(source.body[-1])
        assert [d.line for d in at_return["x"]] == [4]

    def test_loop_body_definition_survives_the_back_edge(self):
        source = fn_node(
            """
            def f(n):
                i = 0
                while i < n:
                    i = i + 1
                return i
            """
        )
        defs = reaching_definitions(source)
        at_return = defs.at_statement(source.body[-1])
        assert sorted(d.line for d in at_return["i"]) == [3, 5]

    def test_try_body_definition_reaches_the_handler(self):
        source = fn_node(
            """
            def f():
                x = 1
                try:
                    x = 2
                    risky()
                except ValueError:
                    return x
                return x
            """
        )
        defs = reaching_definitions(source)
        handler_return = source.body[-2].handlers[0].body[0]
        assert {d.line for d in defs.at_statement(handler_return)["x"]} == {5}

    def test_parameters_are_definitions(self):
        source = fn_node("def f(n, *rest, **extra):\n    return n\n")
        defs = reaching_definitions(source)
        assert {d.kind for d in defs.definitions_of("n")} == {"param"}
        assert defs.definitions_of("rest")
        assert defs.definitions_of("extra")

    def test_definitions_of_collects_every_binding(self):
        source = fn_node(
            """
            def f(flag):
                x = 1
                if flag:
                    x = 2
                for x in ():
                    pass
                return x
            """
        )
        defs = reaching_definitions(source)
        assert len(defs.definitions_of("x")) == 3


class TestScopes:
    def test_comprehension_targets_are_bound(self):
        source = fn_node(
            """
            def f(items):
                doubled = [x * 2 for x in items]
                pairs = {k: v for k, v in items}
                return doubled, pairs
            """
        )
        assert {"x", "k", "v"} <= bound_names(source)
        assert free_names(source) == set()

    def test_nested_function_frees_propagate(self):
        source = fn_node(
            """
            def outer(items):
                total = sum(items)
                def inner(y):
                    return y + offset + total
                return inner
            """,
            "outer",
        )
        # ``total`` is bound in outer; ``offset`` is free all the way
        # out; ``sum`` is a builtin and still counts as free here
        # (callers intersect with the names they care about).
        frees = free_names(source)
        assert "offset" in frees
        assert "total" not in frees

    def test_mutation_kinds(self):
        source = fn_node(
            """
            def work(item):
                acc.append(item)
                state.count += 1
                table[item] = 1
                obj.attr = 2
                del table[0]
            """,
            "work",
        )
        kinds = {
            (m.name, m.kind)
            for m in mutations_through(
                source, {"acc", "state", "table", "obj"}
            )
        }
        assert ("acc", "method") in kinds
        assert ("state", "aug") in kinds or ("state", "attr-store") in kinds
        assert ("table", "subscript-store") in kinds
        assert ("obj", "attr-store") in kinds

    def test_reads_are_not_mutations(self):
        source = fn_node(
            """
            def work(item):
                local = list(acc)
                local.append(item)
                return acc[0] + state.count
            """,
            "work",
        )
        assert mutations_through(source, {"acc", "state"}) == []


class TestProjectResolution:
    def test_submission_site_and_nested_def_resolution(self):
        project = project_of(
            """
            def run(executor, items):
                def work(item):
                    return item
                return executor.map_ordered(work, items)
            """
        )
        sites = list(submission_sites(project, "core/mod.py"))
        assert [s.seam for s in sites] == ["map_ordered"]
        node, label = resolve_callable(sites[0], project)
        assert label == "work"
        assert isinstance(node, ast.FunctionDef)

    def test_lambda_resolves_to_itself(self):
        project = project_of(
            """
            def run(executor, items):
                return executor.map_ordered(lambda x: x + 1, items)
            """
        )
        (site,) = submission_sites(project, "core/mod.py")
        node, label = resolve_callable(site, project)
        assert label == "lambda"
        assert isinstance(node, ast.Lambda)

    def test_reachability_follows_self_calls(self):
        project = project_of(
            """
            class Agg:
                def chunk_partial(self, data):
                    return self._helper(data)

                def _helper(self, data):
                    return self._leaf(data)

                def _leaf(self, data):
                    return data
            """
        )
        (root,) = [
            info
            for info in project.function_infos()
            if info.name == "chunk_partial"
        ]
        reached = project.reachable_from(root)
        names = {key[1] for key in reached}
        assert {"Agg._helper", "Agg._leaf"} <= names


class TestBufferTaint:
    def _sinks(self, source):
        project = project_of(source)
        (info,) = [
            fn for fn in project.function_infos() if fn.name == "decode"
        ]
        return TaintAnalysis(info, project).sinks()

    def test_view_of_frombuffer_is_tainted(self):
        sinks = self._sinks(
            """
            def decode(buf):
                import numpy as np
                arr = np.frombuffer(buf, dtype="uint8")
                view = arr[4:]
                view[0] = 1
                return view
            """
        )
        assert [s.name for s in sinks] == ["view"]
        assert sinks[0].kind == "subscript-store"

    def test_copy_launders_the_taint(self):
        sinks = self._sinks(
            """
            def decode(buf):
                import numpy as np
                arr = np.frombuffer(buf, dtype="uint8")
                fresh = arr.copy()
                fresh[0] = 1
                return fresh
            """
        )
        assert sinks == []


class TestSeededFixtures:
    """Each known-bad fixture produces exactly the expected finding."""

    def test_rep011_closure_write(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def run(executor, items):
                acc = []
                def work(item):
                    acc.append(item)
                    return item
                return executor.map_ordered(work, items)
            """,
            select=["REP011"],
        )
        assert report.codes() == {"REP011"}
        assert len(report.findings) == 1
        assert "writes through captured 'acc'" in report.findings[0].message

    def test_rep011_module_registry_capture(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            REGISTRY = {}

            def run(executor, items):
                def work(item):
                    return len(REGISTRY) + item
                return executor.map_ordered(work, items)
            """,
            select=["REP011"],
        )
        assert report.codes() == {"REP011"}
        assert "module-level mutable binding" in report.findings[0].message

    def test_rep011_pure_closure_passes(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def run(executor, items):
                offset = 3
                def work(item):
                    local = []
                    local.append(item)
                    return item + offset
                return executor.map_ordered(work, items)
            """,
            select=["REP011"],
        )
        assert report.ok

    def test_rep012_transitive_self_write(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            class Agg:
                def chunk_partial(self, data):
                    return self._helper(data)

                def _helper(self, data):
                    self.cache = data
                    return data
            """,
            select=["REP012"],
        )
        assert report.codes() == {"REP012"}
        assert len(report.findings) == 1
        assert "_helper" in report.findings[0].message

    def test_rep012_pure_closure_passes(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            class Agg:
                def chunk_partial(self, data):
                    return self._helper(data)

                def _helper(self, data):
                    shaped = [data, data]
                    shaped.append(data)
                    return shaped
            """,
            select=["REP012"],
        )
        assert report.ok

    def test_rep012_imported_function_call_is_not_a_container_mutation(
        self, tmp_path
    ):
        """``np.sort(x)`` calls a function of an imported module; only
        ``.sort()`` on a module-level container writes shared state."""
        source = """
            import numpy as np
            from bisect import insort as insert

            shared_list = []

            class Agg:
                def chunk_partial(self, data):
                    keys = np.sort(data)
                    insert.update(keys)
                    return np.add(keys, 1)
            """
        assert lint_snippet(tmp_path, source, select=["REP012"]).ok
        dirty = lint_snippet(
            tmp_path,
            source.replace("keys = np.sort(data)", "shared_list.sort(); np.cache = 1"),
            select=["REP012"],
        )
        assert sorted(f.message.split(" on a ")[0] for f in dirty.findings) == [
            "Agg.chunk_partial writes to module-level 'np' (attr-store)",
            "Agg.chunk_partial writes to module-level 'shared_list' via .sort()",
        ]

    def test_rep013_set_iteration_in_merge(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def merge_partials(parts):
                keys = {p.key for p in parts}
                out = []
                for key in keys:
                    out.append(key)
                return out
            """,
            select=["REP013"],
        )
        assert report.codes() == {"REP013"}
        assert len(report.findings) == 1

    def test_rep013_sorted_wrapper_passes(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def merge_partials(parts):
                keys = {p.key for p in parts}
                out = []
                for key in sorted(keys):
                    out.append(key)
                return out
            """,
            select=["REP013"],
        )
        assert report.ok

    def test_rep013_dict_iteration_is_exempt(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            def merge_partials(parts):
                out = []
                for key in parts:
                    out.append(parts[key])
                return out
            """,
            select=["REP013"],
        )
        assert report.ok

    def test_rep014_frombuffer_view_store(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def decode(buf):
                arr = np.frombuffer(buf, dtype=np.uint8)
                view = arr[4:]
                view[0] = 1
                return view
            """,
            select=["REP014"],
        )
        assert report.codes() == {"REP014"}
        assert len(report.findings) == 1
        assert "frombuffer" in report.findings[0].message

    def test_rep014_copy_passes(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def decode(buf):
                arr = np.frombuffer(buf, dtype=np.uint8)
                fresh = arr.copy()
                fresh[0] = 1
                return fresh
            """,
            select=["REP014"],
        )
        assert report.ok

    def test_rep015_lock_capture(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import threading

            def run(executor, items):
                lock = threading.Lock()
                def work(item):
                    with lock:
                        return item
                return executor.map_ordered(work, items)
            """,
            select=["REP015"],
        )
        assert report.codes() == {"REP015"}
        assert "'lock'" in report.findings[0].message

    def test_rep015_getstate_class_passes(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def __getstate__(self):
                    state = dict(self.__dict__)
                    del state["_lock"]
                    return state

                def scan(self, executor, items):
                    def work(item):
                        return self.weigh(item)
                    return executor.map_ordered(work, items)

                def weigh(self, item):
                    return item
            """,
            select=["REP015"],
        )
        assert report.ok

    def test_rep015_lockful_class_capture_flagged(self, tmp_path):
        report = lint_snippet(
            tmp_path,
            """
            import threading

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def scan(self, executor, items):
                    def work(item):
                        return self.weigh(item)
                    return executor.map_ordered(work, items)

                def weigh(self, item):
                    return item
            """,
            select=["REP015"],
        )
        assert report.codes() == {"REP015"}
