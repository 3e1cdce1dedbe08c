"""The DTD normal form ``(E, P, r)`` and its schema graph (Section 2.1).

Productions::

    α ::= str | ε | B1, …, Bn | B1 + … + Bn | B*

The schema graph ``G_S`` has one node per element type and typed edges:

* **AND** edges for concatenation children, labelled with the occurrence
  position ``k`` when a child type repeats (``Bi`` the k-th occurrence of
  a type ``B`` in ``P(A)``);
* **OR** edges (dashed in the paper's figures) for disjunction children;
* **STAR** edges (``*``-labelled) for Kleene-star children.

Footnote 1 of the paper allows an optional type to be written
``A → B + ε``; we realise this with :data:`EPSILON` as a pseudo-child of
a disjunction.  ``EPSILON`` is not an element type: it never appears in
``E``, carries no edge, and contributes an "absent" alternative when
instances are validated or generated.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

#: Pseudo-child of a disjunction denoting the empty alternative
#: (paper footnote 1: ``A → B + ε``).
EPSILON = "#eps"


class SchemaError(ValueError):
    """Raised for ill-formed DTDs (dangling references, bad productions)."""


class Production:
    """Base class for the five normal-form production shapes."""

    def child_types(self) -> tuple[str, ...]:
        """Element types appearing on the right-hand side (no EPSILON)."""
        return ()

    def size(self) -> int:
        """Length of the right-hand side (``k`` in Theorem 4.10)."""
        return 0


@dataclass(frozen=True)
class Str(Production):
    """``A → str`` (PCDATA)."""

    def size(self) -> int:
        return 1

    def __str__(self) -> str:
        return "str"


@dataclass(frozen=True)
class Empty(Production):
    """``A → ε``."""

    def __str__(self) -> str:
        return "epsilon"


@dataclass(frozen=True)
class Concat(Production):
    """``A → B1, …, Bn`` — every child occurs exactly once, in order.

    Child types may repeat; occurrences are then distinguished by
    position labels on the AND edges (and ``position()`` qualifiers in
    XR paths, cf. Fig. 3(c)).
    """

    children: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise SchemaError("a concatenation needs at least one child")
        if EPSILON in self.children:
            raise SchemaError("epsilon is only allowed in disjunctions")

    def child_types(self) -> tuple[str, ...]:
        return self.children

    def size(self) -> int:
        return len(self.children)

    def occurrence(self, index: int) -> int:
        """1-based occurrence number of ``children[index]`` among equals."""
        label = self.children[index]
        return sum(1 for c in self.children[:index + 1] if c == label)

    def occurrence_count(self, label: str) -> int:
        return sum(1 for c in self.children if c == label)

    def index_of_occurrence(self, label: str, occ: int) -> int:
        """Position in the child list of the ``occ``-th occurrence."""
        seen = 0
        for index, child in enumerate(self.children):
            if child == label:
                seen += 1
                if seen == occ:
                    return index
        raise SchemaError(f"no occurrence {occ} of {label!r}")

    def __str__(self) -> str:
        return ", ".join(self.children)


@dataclass(frozen=True)
class Disjunction(Production):
    """``A → B1 + … + Bn`` — one and only one child.

    W.l.o.g. the alternatives are distinct (Section 2.1).  ``optional``
    adds the ε alternative of footnote 1, in which case an ``A`` element
    may also be empty.
    """

    children: tuple[str, ...]
    optional: bool = False

    def __post_init__(self) -> None:
        if not self.children:
            raise SchemaError("a disjunction needs at least one alternative")
        if len(set(self.children)) != len(self.children):
            raise SchemaError("disjunction alternatives must be distinct")
        if EPSILON in self.children:
            # Normalise: pull the epsilon marker into the flag.
            object.__setattr__(self, "children", tuple(
                c for c in self.children if c != EPSILON))
            object.__setattr__(self, "optional", True)
            if not self.children:
                raise SchemaError("a disjunction needs a non-epsilon child")

    def child_types(self) -> tuple[str, ...]:
        return self.children

    def size(self) -> int:
        return len(self.children) + (1 if self.optional else 0)

    def __str__(self) -> str:
        rhs = " + ".join(self.children)
        return rhs + " + eps" if self.optional else rhs


@dataclass(frozen=True)
class Star(Production):
    """``A → B*`` — zero or more ``B`` children."""

    child: str

    def child_types(self) -> tuple[str, ...]:
        return (self.child,)

    def size(self) -> int:
        return 1

    def __str__(self) -> str:
        return f"{self.child}*"


class EdgeKind(enum.Enum):
    """Edge types of the schema graph (Section 2.1)."""

    AND = "and"    # solid
    OR = "or"      # dashed
    STAR = "star"  # solid, '*'-labelled

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Edge:
    """A schema-graph edge ``(A, B)`` with its kind and occurrence label.

    ``occ`` is the paper's position label ``k``: the k-th occurrence of
    child type ``child`` in ``P(parent)``.  It is 1 for OR and STAR
    edges and for non-repeated concatenation children.
    """

    parent: str
    child: str
    kind: EdgeKind
    occ: int = 1

    def key(self) -> tuple[str, str, int]:
        return (self.parent, self.child, self.occ)

    def __str__(self) -> str:
        suffix = f"#{self.occ}" if self.occ != 1 else ""
        return f"{self.parent}-[{self.kind}]->{self.child}{suffix}"


@dataclass
class DTD:
    """A DTD ``(E, P, r)`` in normal form, with schema-graph helpers."""

    elements: dict[str, Production]
    root: str
    name: str = "dtd"
    _edges: dict[str, tuple[Edge, ...]] = field(
        default=None, repr=False, compare=False)  # type: ignore[assignment]
    _fp: Optional[str] = field(default=None, init=False, repr=False,
                               compare=False)

    def __post_init__(self) -> None:
        if self.root not in self.elements:
            raise SchemaError(f"root type {self.root!r} is not defined")
        for parent, production in self.elements.items():
            if not isinstance(production, Production):
                raise SchemaError(
                    f"{parent!r}: not a normal-form production: {production!r}")
            for child in production.child_types():
                if child not in self.elements:
                    raise SchemaError(
                        f"{parent!r} references undefined type {child!r}")
        self._edges = None

    # -- basic views ----------------------------------------------------
    @property
    def types(self) -> tuple[str, ...]:
        """The element types ``E`` in definition order."""
        return tuple(self.elements)

    def production(self, element_type: str) -> Production:
        try:
            return self.elements[element_type]
        except KeyError:
            raise SchemaError(f"unknown element type {element_type!r}") from None

    def size(self) -> int:
        """``|S|``: number of types plus total production size."""
        return len(self.elements) + sum(p.size() for p in self.elements.values())

    # -- identity ---------------------------------------------------------
    def content_key(self) -> str:
        """A canonical text rendering of ``(E, P, r)``.

        The display ``name`` is excluded: two schemas with the same
        productions and root are interchangeable for every compiled
        artifact (mindef, reachability).  Definition order
        is included — it drives candidate enumeration in the matching
        heuristics.
        """
        rows = [f"root={self.root}"]
        rows.extend(f"{element_type}->{production}"
                    for element_type, production in self.elements.items())
        return ";".join(rows)

    def fingerprint(self) -> str:
        """Stable content fingerprint (hex digest) for cache keys.

        Computed once and cached: a DTD is immutable by contract after
        construction — updates go through :meth:`with_production` /
        :meth:`renamed`, which return fresh objects (and fresh
        fingerprints).  Equal-content schemas built independently (e.g.
        re-parsed from the same text) share a fingerprint, which is
        what lets engine caches survive reloads.
        """
        if self._fp is None:
            self._fp = hashlib.sha256(
                self.content_key().encode("utf-8")).hexdigest()
        return self._fp

    def __hash__(self) -> int:
        # Consistent with the dataclass __eq__, which compares
        # ``elements`` as a dict (definition-order *insensitive*) —
        # unlike the fingerprint, which keeps order because it also
        # keys order-sensitive search results.
        return hash((self.root, self.name,
                     frozenset(self.elements.items())))

    # -- schema graph ----------------------------------------------------
    def edges_from(self, parent: str) -> tuple[Edge, ...]:
        """All schema-graph edges out of ``parent`` (cached)."""
        if self._edges is None:
            self._edges = {}
        cached = self._edges.get(parent)
        if cached is not None:
            return cached
        production = self.production(parent)
        edges: list[Edge] = []
        if isinstance(production, Concat):
            for index, child in enumerate(production.children):
                edges.append(Edge(parent, child, EdgeKind.AND,
                                  production.occurrence(index)))
        elif isinstance(production, Disjunction):
            for child in production.children:
                edges.append(Edge(parent, child, EdgeKind.OR))
        elif isinstance(production, Star):
            edges.append(Edge(parent, production.child, EdgeKind.STAR))
        result = tuple(edges)
        self._edges[parent] = result
        return result

    def all_edges(self) -> Iterator[Edge]:
        for parent in self.elements:
            yield from self.edges_from(parent)

    def edge(self, parent: str, child: str, occ: int = 1) -> Optional[Edge]:
        """The edge ``(parent, child)`` with occurrence ``occ``, if any."""
        for candidate in self.edges_from(parent):
            if candidate.child == child and candidate.occ == occ:
                return candidate
        return None

    def edge_kind(self, parent: str, child: str) -> Optional[EdgeKind]:
        for candidate in self.edges_from(parent):
            if candidate.child == child:
                return candidate.kind
        return None

    def node_count(self) -> int:
        """``|E|``: number of schema-graph nodes."""
        return len(self.elements)

    def is_recursive(self) -> bool:
        """A DTD is recursive iff its schema graph is cyclic."""
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {t: WHITE for t in self.elements}

        for start in self.elements:
            if colour[start] != WHITE:
                continue
            stack: list[tuple[str, Iterator[Edge]]] = [
                (start, iter(self.edges_from(start)))]
            colour[start] = GREY
            while stack:
                node, edges = stack[-1]
                advanced = False
                for edge in edges:
                    child = edge.child
                    if colour[child] == GREY:
                        return True
                    if colour[child] == WHITE:
                        colour[child] = GREY
                        stack.append((child, iter(self.edges_from(child))))
                        advanced = True
                        break
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
        return False

    def reachable_types(self, start: Optional[str] = None) -> set[str]:
        """Types reachable from ``start`` (default: the root)."""
        start = start if start is not None else self.root
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for edge in self.edges_from(node):
                if edge.child not in seen:
                    seen.add(edge.child)
                    frontier.append(edge.child)
        return seen

    # -- construction helpers ---------------------------------------------
    def with_production(self, element_type: str, production: Production) -> "DTD":
        """Functional update: a copy with one production replaced/added."""
        elements = dict(self.elements)
        elements[element_type] = production
        return DTD(elements, self.root, self.name)

    def renamed(self, mapping: dict[str, str], name: Optional[str] = None) -> "DTD":
        """A copy with element types renamed via ``mapping``.

        Types not in ``mapping`` keep their names.  The mapping must not
        merge two types.
        """
        def rename(t: str) -> str:
            return mapping.get(t, t)

        new_names = [rename(t) for t in self.elements]
        if len(set(new_names)) != len(new_names):
            raise SchemaError("renaming must not merge element types")
        elements: dict[str, Production] = {}
        for element_type, production in self.elements.items():
            if isinstance(production, Concat):
                new_production: Production = Concat(
                    tuple(rename(c) for c in production.children))
            elif isinstance(production, Disjunction):
                new_production = Disjunction(
                    tuple(rename(c) for c in production.children),
                    production.optional)
            elif isinstance(production, Star):
                new_production = Star(rename(production.child))
            else:
                new_production = production
            elements[rename(element_type)] = new_production
        return DTD(elements, rename(self.root), name or self.name)

    def __str__(self) -> str:
        lines = [f"DTD {self.name!r} (root {self.root}):"]
        for element_type, production in self.elements.items():
            lines.append(f"  {element_type} -> {production}")
        return "\n".join(lines)


def make_dtd(root: str, name: str = "dtd",
             **productions: Production | str | Iterable[str]) -> DTD:
    """Convenience constructor used throughout tests and workloads.

    String values are parsed through the compact production syntax of
    :func:`repro.dtd.parser.parse_production`.
    """
    from repro.dtd.parser import parse_production

    elements: dict[str, Production] = {}
    for element_type, value in productions.items():
        if isinstance(value, Production):
            elements[element_type] = value
        elif isinstance(value, str):
            elements[element_type] = parse_production(value)
        else:
            elements[element_type] = Concat(tuple(value))
    return DTD(elements, root, name)
