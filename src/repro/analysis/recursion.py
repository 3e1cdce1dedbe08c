"""Checker 3 — recursion: the document plane must stay iterative.

PR 5 converted every walker that scales with *document* depth to an
explicit stack so 1000-level documents survive (``RecursionError``
would otherwise fire around depth ~1000).  This checker keeps that
true: in the document-plane modules it builds a per-module call graph
— module functions, nested helpers, and ``self.``/``cls.`` method
calls resolved within the enclosing class — and reports every
strongly connected component (direct self-calls included).

Recursion that is *schema*-bounded rather than document-bounded (a
DTD's type graph is small and acyclic after normalisation) is legal
but must say so: ``# lint: allow-recursion`` on the ``def`` line of
any function in the cycle, with the bound in the comment.

The plane is the module list below plus any module declaring
``# lint: recursion-plane`` — or ``# lint: stream-plane`` /
``# lint: codec-plane``, the markers the streaming and codec modules
carry: those modules walk documents too, so opting into their plane
opts into this checker.
Resolution is name-based and
intra-module, so a call to another object's same-named method is only
linked when it goes through ``self``/``cls`` — false edges are rare
and every reported cycle names its members for a human check.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.model import Finding, Module

CHECKER = "recursion"

#: Modules whose call depth scales with document depth.
PLANE_MODULES = frozenset({
    "repro.core.instmap",
    "repro.core.inverse",
    "repro.engine.plan",
    "repro.dtd.validate",
})
PLANE_PREFIXES = ("repro.xtree.",)

MODULE_MARKER = "recursion-plane"

#: Markers that imply document-plane behaviour: the streaming module
#: and the codec module both walk whole documents, and
#: translation-plane composition walks query spines whose length the
#: user controls (deep chains must not recurse).
IMPLIED_MARKERS = ("stream-plane", "codec-plane", "translation-plane")


def _in_plane(module: Module) -> bool:
    if module.name in PLANE_MODULES:
        return True
    if module.name and module.name.startswith(PLANE_PREFIXES):
        return True
    return any(module.has_module_marker(marker)
               for marker in (MODULE_MARKER, *IMPLIED_MARKERS))


class _Function:
    def __init__(self, qualname: str, node: ast.AST,
                 class_name: Optional[str]) -> None:
        self.qualname = qualname
        self.node = node
        self.class_name = class_name
        self.calls: set[str] = set()     # resolved qualnames


def _collect_functions(module: Module) -> dict[str, _Function]:
    """Every function/method with a qualified name and its call sites."""
    functions: dict[str, _Function] = {}

    def visit(node: ast.AST, prefix: str, class_name: Optional[str],
              local_defs: dict[str, str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                functions[qualname] = _Function(qualname, child, class_name)
                local_defs[child.name] = qualname
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{child.name}.", child.name, {})

    visit(module.tree, "", None, {})
    return functions


def _resolve_edges(module: Module,
                   functions: dict[str, _Function]) -> None:
    """Fill each function's ``calls`` with resolved local targets."""
    module_level = {name: qual for qual, fn in functions.items()
                    for name in [qual] if "." not in qual}

    def gather(fn: _Function, node: ast.AST,
               visible: dict[str, str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A nested def is its own function; register it under
                # the parent's scope and descend with it visible (so
                # siblings and the parent can call it).
                nested_qual = f"{fn.qualname}.<locals>.{child.name}"
                nested = functions.setdefault(
                    nested_qual, _Function(nested_qual, child,
                                           fn.class_name))
                inner_visible = dict(visible)
                inner_visible[child.name] = nested_qual
                gather(nested, child, inner_visible)
                visible[child.name] = nested_qual
                continue
            if isinstance(child, ast.ClassDef):
                continue  # classes defined inside functions: out of scope
            if isinstance(child, ast.Call):
                target = _resolve_call(child, fn, visible)
                if target is not None:
                    fn.calls.add(target)
            gather(fn, child, visible)

    def _resolve_call(call: ast.Call, fn: _Function,
                      visible: dict[str, str]) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in visible:
                return visible[func.id]
            return module_level.get(func.id)
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and \
                func.value.id in ("self", "cls") and fn.class_name:
            qual = f"{fn.class_name}.{func.attr}"
            if qual in functions:
                return qual
        return None

    for qualname in list(functions):
        fn = functions[qualname]
        if "<locals>" in qualname:
            continue  # gathered while walking the parent
        visible = dict(module_level)
        gather(fn, fn.node, visible)


def _sccs(graph: dict[str, set[str]]) -> Iterator[list[str]]:
    """Tarjan's SCC algorithm, iterative (the linter of recursion
    limits must not hit them itself)."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = 0
    for start in sorted(graph):
        if start in index:
            continue
        work = [(start, iter(sorted(graph[start])))]
        index[start] = lowlink[start] = counter
        counter += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in graph:
                    continue
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                yield component


def check(modules: list[Module]) -> Iterator[Finding]:
    for module in modules:
        if not _in_plane(module) or module.tree is None:
            continue
        functions = _collect_functions(module)
        _resolve_edges(module, functions)
        graph = {qual: fn.calls for qual, fn in functions.items()}
        for component in _sccs(graph):
            is_cycle = len(component) > 1 or (
                component[0] in graph.get(component[0], ()))
            if not is_cycle:
                continue
            members = sorted(component)
            if any(module.allowed(functions[m].node, "recursion")
                   for m in members):
                continue
            anchor = min(members,
                         key=lambda m: functions[m].node.lineno)
            cycle = " -> ".join(members + [members[0]]) \
                if len(members) > 1 else f"{members[0]} -> {members[0]}"
            yield Finding(
                checker=CHECKER, code="recursion/document-plane-cycle",
                path=module.rel, line=functions[anchor].node.lineno,
                message=(f"recursive call cycle in document-plane "
                         f"module {module.name}: {cycle}; deep "
                         "documents need an explicit stack (or a "
                         "'# lint: allow-recursion' bound note)"))
