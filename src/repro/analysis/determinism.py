"""Checker 2 — determinism: no nondeterministic constructs in the
byte-output planes.

Canonical renderings feed content fingerprints (PR 5's fast-path
contract: equal artifacts must render byte-identically in every
process), and the pack/store formats are compared across workers.  In
those modules, anything whose result depends on hash seeding, object
identity, randomness or the wall clock is a correctness bug even when
every test passes locally:

* iterating a ``set``/``frozenset`` (literal, comprehension or
  constructor call) — order is hash-seed dependent; wrap in
  ``sorted(...)`` or dedup with ``dict.fromkeys`` instead;
* iterating ``vars(x)`` / ``x.__dict__`` — attribute insertion order
  is an implementation detail of unrelated code;
* ``id(...)`` — process-specific object identity;
* ``hash(...)`` — ``PYTHONHASHSEED``-dependent for strings;
* ``random.*`` / ``os.urandom`` / ``uuid.*`` — randomness;
* ``time.time``/``datetime.now`` and friends — wall clock.

The plane is the built-in module list below plus any module that
declares ``# lint: determinism-plane`` — or ``# lint: stream-plane`` /
``# lint: codec-plane`` / ``# lint: translation-plane``: streamed
chunks and codec output are byte contracts (both must concatenate to
the reference serialization), and translation-plane composition
must yield byte-stable state numbering (canonical renderings feed
serve responses and trim certificates), so those planes opt into this
checker too.  Justified
exceptions (e.g.
``id()`` used only as an identity *key* whose value never reaches the
output) carry ``# lint: allow-<rule>`` on the line or the enclosing
``def``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.collect import dotted_name
from repro.analysis.model import Finding, Module

CHECKER = "determinism"

#: Modules whose output bytes are a correctness contract.
PLANE_MODULES = frozenset({
    "repro.dtd.serialize",      # canonical DTD rendering -> fingerprints
    "repro.anfa.model",         # canonical_describe -> serve responses
    "repro.engine.compiled",    # fingerprint-keyed artifacts
    "repro.engine.storepack",   # the packed binary generation format
})

MODULE_MARKER = "determinism-plane"

#: Markers that imply byte-output behaviour (see the module docstring).
#: ``translation-plane`` marks ANFA composition modules whose state
#: numbering must be byte-stable across processes.
IMPLIED_MARKERS = ("stream-plane", "codec-plane", "translation-plane")

_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.localtime", "time.ctime",
    "time.gmtime", "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
})
_RANDOM_PREFIXES = ("random.", "uuid.")
_RANDOM_CALLS = frozenset({"os.urandom"})


def _in_plane(module: Module) -> bool:
    if module.name in PLANE_MODULES:
        return True
    return any(module.has_module_marker(marker)
               for marker in (MODULE_MARKER, *IMPLIED_MARKERS))


def _set_valued(node: ast.AST) -> Optional[str]:
    """Describe ``node`` when it syntactically produces a set."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and \
                node.func.id in ("set", "frozenset"):
            return f"{node.func.id}(...)"
        if isinstance(node.func, ast.Name) and node.func.id == "vars":
            return "vars(...)"
    if isinstance(node, ast.Attribute) and node.attr == "__dict__":
        return "__dict__"
    return None


def check(modules: list[Module]) -> Iterator[Finding]:
    for module in modules:
        if _in_plane(module):
            yield from _check_module(module)


def _check_module(module: Module) -> Iterator[Finding]:
    assert module.tree is not None
    scopes: list[ast.AST] = []

    def walk(node: ast.AST) -> Iterator[Finding]:
        is_scope = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))
        if is_scope:
            scopes.append(node)
        yield from _check_node(module, node, scopes)
        for child in ast.iter_child_nodes(node):
            yield from walk(child)
        if is_scope:
            scopes.pop()

    yield from walk(module.tree)


def _iteration_sources(node: ast.AST) -> Iterator[ast.AST]:
    if isinstance(node, (ast.For, ast.AsyncFor)):
        yield node.iter
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                           ast.GeneratorExp)):
        for generator in node.generators:
            yield generator.iter
    elif isinstance(node, ast.Call) and \
            isinstance(node.func, ast.Name) and node.func.id in (
                "list", "tuple", "enumerate", "reversed", "iter"):
        # list(set(...)) keeps hash order just like `for` does.
        if node.args:
            yield node.args[0]


def _check_node(module: Module, node: ast.AST,
                scopes: list[ast.AST]) -> Iterator[Finding]:
    for source in _iteration_sources(node):
        described = _set_valued(source)
        if described and not module.allowed(source, "set-iteration",
                                            enclosing=scopes):
            yield Finding(
                checker=CHECKER, code="determinism/set-iteration",
                path=module.rel, line=source.lineno,
                message=(f"iteration over {described} in a byte-output "
                         "plane depends on hash order; sort it or "
                         "dedup with dict.fromkeys"))
    if not isinstance(node, ast.Call):
        return
    if isinstance(node.func, ast.Name):
        if node.func.id == "id" and len(node.args) == 1:
            if not module.allowed(node, "id", enclosing=scopes):
                yield Finding(
                    checker=CHECKER, code="determinism/id",
                    path=module.rel, line=node.lineno,
                    message=("id() is process-specific object identity; "
                             "it must never influence output bytes"))
        elif node.func.id == "hash" and len(node.args) == 1:
            if not module.allowed(node, "hash", enclosing=scopes):
                yield Finding(
                    checker=CHECKER, code="determinism/hash",
                    path=module.rel, line=node.lineno,
                    message=("hash() is PYTHONHASHSEED-dependent; use a "
                             "content fingerprint instead"))
        return
    dotted = dotted_name(node.func)
    if dotted is None:
        return
    if dotted in _WALL_CLOCK:
        if not module.allowed(node, "wall-clock", enclosing=scopes):
            yield Finding(
                checker=CHECKER, code="determinism/wall-clock",
                path=module.rel, line=node.lineno,
                message=(f"{dotted}() reads the wall clock inside a "
                         "byte-output plane"))
    elif dotted in _RANDOM_CALLS or \
            dotted.startswith(_RANDOM_PREFIXES):
        if not module.allowed(node, "random", enclosing=scopes):
            yield Finding(
                checker=CHECKER, code="determinism/random",
                path=module.rel, line=node.lineno,
                message=(f"{dotted}() injects randomness inside a "
                         "byte-output plane"))
