"""RACE rules: shared mutable state under the pluggable executors.

The file executor serves each disk on its own worker thread (one lane
per disk).  The analysis layer proves the *algorithms* are
conflict-free (disjoint footprints); these rules police the *Python
objects*: any mutable state reachable from two executor lanes must either
be confined, redesigned, or carry an explicit synchronisation declaration
— the ``# detlint: guarded(<lock>)`` pragma on its definition line, which
doubles as the inventory of lane-shared state.

* RACE201 — module- or class-level mutable containers mutated at runtime
  (interpreter-wide state: every thread in the process shares it);
* RACE202 — a per-instance cache with a check-then-act access pattern
  (read miss → compute → write) and no declared guard;
* RACE203 — mutating a container while iterating it (corrupts under
  concurrency, RuntimeError at best without it).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.finding import Finding
from repro.lint.flow import exprs
from repro.lint.flow.project import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
    in_packages,
)
from repro.lint.rules.base import Rule, register

#: read accessors that, followed by a write in the same closure, form the
#: check-then-act shape RACE202 looks for
_READ_METHODS = {"get", "keys", "values", "items", "setdefault"}


def _function_mutates_name(fn_node: ast.AST, name: str) -> Optional[ast.AST]:
    """A node in ``fn_node`` that mutates global ``name`` at runtime, or
    None.  Functions that bind ``name`` locally (param / bare assignment
    without ``global``) are skipped — they shadow the global."""
    has_global = any(
        isinstance(n, ast.Global) and name in n.names
        for n in ast.walk(fn_node)
    )
    if not has_global:
        args = fn_node.args
        params = {
            a.arg
            for a in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *( [args.vararg] if args.vararg else [] ),
                *( [args.kwarg] if args.kwarg else [] ),
            )
        }
        if name in params:
            return None
        for n in ast.walk(fn_node):
            if isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    n.targets if isinstance(n, ast.Assign) else [n.target]
                )
                for tgt in targets:
                    if isinstance(tgt, ast.Name) and tgt.id == name:
                        return None  # local rebind: shadows the global
    for stmt in exprs.body_statements(fn_node):
        for container in exprs.mutated_containers(stmt):
            if exprs.chain_str(container) == name:
                return container
    if has_global:
        for n in ast.walk(fn_node):
            if isinstance(n, (ast.Assign, ast.AugAssign)):
                targets = (
                    n.targets if isinstance(n, ast.Assign) else [n.target]
                )
                for tgt in targets:
                    if isinstance(tgt, ast.Name) and tgt.id == name:
                        return tgt
    return None


@register
class UnguardedModuleStateRule(Rule):
    code = "RACE201"
    name = "unguarded-module-state"
    summary = (
        "module/class-level mutable container is mutated at runtime "
        "without a declared guard"
    )
    rationale = (
        "A module-level dict/list/set (or a mutable class attribute) is "
        "one object per interpreter: under the planned executors every "
        "worker thread mutates the same instance, and the determinism "
        "argument — same inputs, same layout — dies with the first lost "
        "update.  Make the state per-instance, or declare its discipline "
        "with `# detlint: guarded(<lock>)` on the definition line (e.g. "
        "guarded(import-time) for registries sealed before workers start)."
    )
    project_scope = True

    def check_project(self, project: Project) -> Iterator[Finding]:
        for info in project.strict_modules():
            yield from self._check_module_globals(info)
            yield from self._check_class_attrs(info)

    def _check_module_globals(self, info: ModuleInfo) -> Iterator[Finding]:
        for name, stmt, value in info.global_assigns:
            if not exprs.is_mutable_container_expr(info.imports, value):
                continue
            mutators = [
                fn.name
                for fn in info.functions.values()
                if _function_mutates_name(fn.node, name) is not None
            ]
            if not mutators:
                continue
            yield info.finding(
                stmt,
                self.code,
                f"module-level mutable `{name}` is mutated at runtime by "
                f"{', '.join(sorted(set(mutators))[:3])}(); every executor "
                f"lane shares this object — confine it or annotate the "
                f"definition with `# detlint: guarded(<lock>)`",
            )

    def _check_class_attrs(self, info: ModuleInfo) -> Iterator[Finding]:
        for ci in info.classes.values():
            for name, stmt, value in ci.class_assigns:
                if not exprs.is_mutable_container_expr(info.imports, value):
                    continue
                chains = {f"self.{name}", f"cls.{name}", f"{ci.name}.{name}"}
                mutators: List[str] = []
                for method in ci.methods.values():
                    if self._method_mutates(method, name, chains):
                        mutators.append(method.name)
                if not mutators:
                    continue
                yield info.finding(
                    stmt,
                    self.code,
                    f"class attribute `{ci.name}.{name}` is a mutable "
                    f"container shared by every instance and mutated by "
                    f"{', '.join(sorted(set(mutators))[:3])}(); make it "
                    f"per-instance in __init__ or annotate with "
                    f"`# detlint: guarded(<lock>)`",
                )

    @staticmethod
    def _method_mutates(
        method: FunctionInfo, name: str, chains: Set[str]
    ) -> bool:
        # ``self.name = ...`` rebinding creates an *instance* attribute —
        # only in-place mutation (subscript/mutator-call) hits the shared
        # class object, and only while no instance rebind exists.
        for n in ast.walk(method.node):
            if isinstance(n, ast.Assign):
                for tgt in n.targets:
                    if (
                        isinstance(tgt, ast.Attribute)
                        and tgt.attr == name
                        and isinstance(tgt.value, ast.Name)
                        and tgt.value.id == "self"
                    ):
                        return False
        for stmt in exprs.body_statements(method.node):
            for container in exprs.mutated_containers(stmt):
                if exprs.chain_str(container) in chains:
                    return True
        return False


def _init_container_attrs(
    info: ModuleInfo, ci: ClassInfo
) -> Dict[str, ast.stmt]:
    """Attrs assigned a plain mutable container in ``__init__`` -> the
    assignment statement (the finding anchor and pragma site)."""
    init = ci.methods.get("__init__")
    if init is None:
        return {}
    out: Dict[str, ast.stmt] = {}
    for node in ast.walk(init.node):
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        if not exprs.is_mutable_container_expr(info.imports, value):
            continue
        for tgt in targets:
            if (
                isinstance(tgt, ast.Attribute)
                and isinstance(tgt.value, ast.Name)
                and tgt.value.id == "self"
                and tgt.attr not in out
            ):
                out[tgt.attr] = node
    return out


def _attr_accesses(fn_node: ast.AST, attrs: Set[str]) -> Tuple[Set[str], Set[str]]:
    """(read attrs, written attrs) among ``attrs`` touched by this
    function.  Reads are .get/`in`/subscript-load/iteration; writes are
    subscript stores, dels, and mutator calls."""
    reads: Set[str] = set()
    writes: Set[str] = set()

    def self_attr(node: ast.AST) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in attrs
        ):
            return node.attr
        return None

    for stmt in exprs.body_statements(fn_node):
        for container in exprs.mutated_containers(stmt):
            a = self_attr(container)
            if a is not None:
                writes.add(a)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Subscript):
                a = self_attr(node.value)
                if a is not None and isinstance(node.ctx, ast.Load):
                    reads.add(a)
            elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
            ):
                for cmp in node.comparators:
                    target = cmp
                    if (
                        isinstance(cmp, ast.Call)
                        and isinstance(cmp.func, ast.Attribute)
                    ):
                        target = cmp.func.value
                    a = self_attr(target)
                    if a is not None:
                        reads.add(a)
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _READ_METHODS:
                    a = self_attr(node.func.value)
                    if a is not None:
                        reads.add(a)
            elif isinstance(node, (ast.For, ast.comprehension)):
                it = node.iter
                if isinstance(it, ast.Call) and isinstance(
                    it.func, ast.Attribute
                ):
                    it = it.func.value
                a = self_attr(it)
                if a is not None:
                    reads.add(a)
    return reads, writes


def _same_class_closure(
    project: Project, ci: ClassInfo, method: FunctionInfo
) -> List[FunctionInfo]:
    """The method plus same-class methods it transitively calls."""
    out: List[FunctionInfo] = []
    for qual in project.reachable_from(method.qualname):
        fn = project.functions.get(qual)
        if fn is not None and fn.cls == ci.qualname:
            out.append(fn)
    return out


@register
class UnguardedSharedCacheRule(Rule):
    code = "RACE202"
    name = "unguarded-shared-cache"
    summary = (
        "per-instance cache has a check-then-act access path and no "
        "declared guard"
    )
    rationale = (
        "`miss → compute → store` on a plain dict is correct alone and a "
        "lost-update race the moment two executor lanes share the "
        "instance: both miss, both compute, one result (and its charged "
        "memory accounting) is silently dropped.  Confine the object per "
        "lane, or declare the protecting lock/discipline with "
        "`# detlint: guarded(<lock>)` on the attribute's definition line "
        "— the annotation is the contract the executor split implements."
    )
    project_scope = True

    def check_project(self, project: Project) -> Iterator[Finding]:
        for info in project.strict_modules():
            if not in_packages(info.module, project.config.race_scope):
                continue
            for ci in info.classes.values():
                yield from self._check_class(project, info, ci)

    def _check_class(
        self, project: Project, info: ModuleInfo, ci: ClassInfo
    ) -> Iterator[Finding]:
        containers = _init_container_attrs(info, ci)
        if not containers:
            return
        attrs = set(containers)
        per_fn: Dict[str, Tuple[Set[str], Set[str]]] = {
            m.qualname: _attr_accesses(m.node, attrs)
            for m in ci.methods.values()
        }
        flagged: Dict[str, List[str]] = {}
        for method in ci.methods.values():
            if method.name == "__init__":
                continue
            closure = _same_class_closure(project, ci, method)
            reads: Set[str] = set()
            writes: Set[str] = set()
            for fn in closure:
                r, w = per_fn.get(fn.qualname, (set(), set()))
                reads |= r
                writes |= w
            for attr in reads & writes:
                flagged.setdefault(attr, []).append(method.name)
        for attr, methods in flagged.items():
            yield info.finding(
                containers[attr],
                self.code,
                f"`{ci.name}.{attr}` is read and written on the same call "
                f"path ({', '.join(sorted(set(methods))[:4])}) — a "
                f"check-then-act race under shared executors; confine per "
                f"lane or annotate this line with "
                f"`# detlint: guarded(<lock>)`",
            )


@register
class MutationDuringIterationRule(Rule):
    code = "RACE203"
    name = "mutation-during-iteration"
    summary = "container is mutated inside a loop iterating over it"
    rationale = (
        "Mutating a dict/set during iteration raises RuntimeError on size "
        "change and silently skips or repeats elements otherwise; under "
        "concurrent executors the iteration order itself becomes "
        "load-dependent, so even 'safe' in-place value updates break "
        "run-to-run determinism.  Snapshot first (`list(x)`, "
        "`tuple(x.items())`) or collect mutations and apply after the "
        "loop."
    )
    project_scope = True

    def check_project(self, project: Project) -> Iterator[Finding]:
        for info in project.strict_modules():
            for fn in info.functions.values():
                yield from self._check_function(info, fn)

    def _check_function(
        self, info: ModuleInfo, fn: FunctionInfo
    ) -> Iterator[Finding]:
        for node in ast.walk(fn.node):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            it = node.iter
            # unwrap .items()/.keys()/.values()/enumerate(...)
            if (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id == "enumerate"
                and it.args
            ):
                it = it.args[0]
            if (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Attribute)
                and it.func.attr in {"items", "keys", "values"}
            ):
                it = it.func.value
            container = exprs.chain_str(it)
            if container is None:
                continue  # list(...) / sorted(...) snapshots are fine
            for stmt in node.body:
                hit = self._mutation_of(stmt, container)
                if hit is not None:
                    yield info.finding(
                        hit,
                        self.code,
                        f"`{container}` is mutated while being iterated in "
                        f"{fn.qualname}; snapshot the container "
                        f"(list/tuple) before the loop or defer the "
                        f"mutation",
                    )
                    break

    @staticmethod
    def _mutation_of(stmt: ast.stmt, container: str) -> Optional[ast.AST]:
        for mutated in exprs.mutated_containers(stmt):
            if exprs.chain_str(mutated) == container:
                return mutated
        return None
