"""Local embeddings (Section 5.1): one production, prefix-free paths.

A *local mapping* restricts the embedding to the schema elements of a
single source production: it fixes ``λ(A) = C``, picks a target type
for every child, and finds paths of the right kind satisfying the
Section 4.1 conditions (prefix-free; OR divergence R1; optional
signalling R2).  Local-Embedding is itself NP-complete (Theorem 5.2) —
candidate targets per child make the path choices interact — so the
finder is a bounded backtracking search over randomly- or
quality-ordered candidates, as in the VLDB'05 heuristics.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.core.similarity import SimilarityMatrix
from repro.dtd.mindef import MinDef
from repro.dtd.model import (
    DTD,
    Concat,
    Disjunction,
    EdgeKind,
    Empty,
    Star as StarProd,
    Str,
)
from repro.matching.prefix_free import (
    PathKind,
    PathRequest,
    enumerate_paths,
)
from repro.xpath.evaluator import evaluate
from repro.xpath.paths import XRPath, classify_path, first_divergence


@dataclass
class LocalMapping:
    """A local embedding for one source production."""

    source_type: str
    image: str                     # λ(source_type)
    child_images: dict[str, str]   # λ for the child types
    paths: dict[tuple[str, str, int], XRPath]
    quality: float = 0.0

    def assignments(self) -> dict[str, str]:
        out = dict(self.child_images)
        out[self.source_type] = self.image
        return out


@dataclass
class LocalSearchConfig:
    max_len: int = 8
    max_paths: int = 16
    max_candidates: int = 8     # target candidates tried per child
    max_nodes: int = 4000       # backtracking budget


class TargetIndex:
    """The target side of one embedding search: the mindef templates
    and the candidate XR paths per ``(image, kind, end, caps)``.

    :func:`repro.matching.search.search_embedding` builds one per call
    and hands it to every strategy and restart, so each enumeration
    runs once per search; the index is dropped with the search, since
    a long-lived server rarely sees the same target twice and one
    schema's index runs to megabytes.  Callers must not mutate the
    returned lists.
    """

    __slots__ = ("target", "mindef", "_paths")

    def __init__(self, target: DTD, mindef: Optional[MinDef] = None) -> None:
        self.target = target
        self.mindef = mindef if mindef is not None else MinDef(target)
        self._paths: dict[tuple, list[XRPath]] = {}

    def paths(self, image: str, kind: PathKind, end: Optional[str],
              max_len: int, max_paths: int) -> list[XRPath]:
        """Candidate XR paths of ``kind`` from ``image`` (to ``end``)."""
        key = (image, kind, end, max_len, max_paths)
        cached = self._paths.get(key)
        if cached is None:
            cached = enumerate_paths(self.target, image,
                                     PathRequest(kind, end),
                                     max_len, max_paths)
            self._paths[key] = cached
        return cached


class LocalEmbedder:
    """Finds local mappings for productions of one (S1, S2, att) triple.

    ``target_index`` is the search's shared :class:`TargetIndex` of
    ``target``; without one the embedder builds its own.
    """

    def __init__(self, source: DTD, target: DTD, att: SimilarityMatrix,
                 config: Optional[LocalSearchConfig] = None,
                 target_index: Optional[TargetIndex] = None) -> None:
        self.source = source
        self.target = target
        self.att = att
        self.config = config or LocalSearchConfig()
        self.target_index = target_index or TargetIndex(target)
        self.mindef = self.target_index.mindef
        self._feasible_cache: dict[tuple[str, str], bool] = {}

    # ------------------------------------------------------------------
    def _candidate_images(self, source_type: str,
                          fixed: dict[str, str],
                          rng: Optional[random.Random]) -> list[str]:
        if source_type in fixed:
            return [fixed[source_type]]
        ranked = self.att.candidates(source_type, self.target.types)
        candidates = [t for t, _score in ranked
                      if self.feasible(source_type, t)]
        candidates = candidates[:self.config.max_candidates]
        if rng is not None:
            rng.shuffle(candidates)
        return candidates

    def _reachable_images(self, source_type: str, fixed: dict[str, str],
                          image: str, kind: PathKind,
                          rng: Optional[random.Random]) -> list[str]:
        """Candidate images for a child, pre-filtered by (a) the
        existence of a path of the right kind from ``image`` and (b) a
        memoized feasibility lookahead — the child's own production
        must be locally embeddable from the candidate.  These cheap
        structural checks make permissive/ambiguous matrices tractable
        (Example 4.2's ``att`` admits *every* pair)."""
        if source_type in fixed:
            return [fixed[source_type]]
        ranked = self.att.candidates(source_type, self.target.types)
        admissible = [t for t, _score in ranked
                      if self._paths(image, kind, t)
                      and self.feasible(source_type, t)]
        admissible = admissible[:self.config.max_candidates]
        if rng is not None:
            rng.shuffle(admissible)
        return admissible

    def feasible(self, source_type: str, image: str) -> bool:
        """Whether ``source_type``'s production has *some* local mapping
        from ``image`` (with free child images).  Memoized; cycles in
        the source schema are resolved optimistically, so ``False`` is
        definitive while ``True`` is a heuristic go-ahead."""
        key = (source_type, image)
        cached = self._feasible_cache.get(key)
        if cached is not None:
            return cached
        self._feasible_cache[key] = True  # optimistic for cycles
        result = self.find(source_type, image, {}) is not None
        self._feasible_cache[key] = result
        return result

    def _paths(self, image: str, kind: PathKind,
               end: Optional[str]) -> list[XRPath]:
        return self.target_index.paths(image, kind, end,
                                       self.config.max_len,
                                       self.config.max_paths)

    # ------------------------------------------------------------------
    def find(self, source_type: str, image: str,
             fixed: dict[str, str],
             rng: Optional[random.Random] = None) -> Optional[LocalMapping]:
        """A local mapping for ``source_type`` with ``λ(source_type) =
        image``, respecting already-fixed child images."""
        production = self.source.production(source_type)
        if isinstance(production, Empty):
            return self._finish(source_type, image, {}, {})
        if isinstance(production, Str):
            for path in self._paths(image, PathKind.TEXT, None):
                return self._finish(source_type, image, {},
                                    {(source_type, "#str", 1): path})
            return None
        if isinstance(production, Concat):
            return self._find_edges(source_type, image, production, fixed,
                                    PathKind.AND, rng)
        if isinstance(production, Disjunction):
            return self._find_edges(source_type, image, production, fixed,
                                    PathKind.OR, rng)
        assert isinstance(production, StarProd)
        return self._find_edges(source_type, image, production, fixed,
                                PathKind.STAR, rng)

    def _edge_list(self, production) -> list[tuple[str, int]]:
        if isinstance(production, Concat):
            seen: dict[str, int] = {}
            out = []
            for child in production.children:
                seen[child] = seen.get(child, 0) + 1
                out.append((child, seen[child]))
            return out
        if isinstance(production, Disjunction):
            return [(child, 1) for child in production.children]
        assert isinstance(production, StarProd)
        return [(production.child, 1)]

    def _find_edges(self, source_type: str, image: str, production,
                    fixed: dict[str, str], kind: PathKind,
                    rng: Optional[random.Random]) -> Optional[LocalMapping]:
        edges = self._edge_list(production)
        config = self.config
        budget = [config.max_nodes]
        optional = getattr(production, "optional", False)
        default_tree = (self.mindef.instance(image)
                        if kind is PathKind.OR and optional else None)

        # Candidate images per distinct child type, consistent across
        # repeated occurrences of the same type, pre-filtered by path
        # existence from the image.
        child_types = sorted({child for child, _occ in edges})
        image_options = {
            child: self._reachable_images(child, fixed, image, kind, rng)
            for child in child_types}
        if any(not options for options in image_options.values()):
            return None

        chosen_paths: dict[tuple[str, str, int], XRPath] = {}
        chosen_images: dict[str, str] = {}

        order_keys = [(source_type, child, occ) for child, occ in edges]

        def compatible(candidate: XRPath) -> bool:
            for other in chosen_paths.values():
                if (candidate.is_prefix_of(other)
                        or other.is_prefix_of(candidate)):
                    return False
                if kind is PathKind.OR:
                    divergence = first_divergence(candidate, other)
                    if divergence is not None:
                        info = classify_path(candidate, self.target, image)
                        if info.edges[divergence].kind is not EdgeKind.OR:
                            return False
            if kind is PathKind.OR and default_tree is not None:
                if evaluate(candidate.to_expr(), default_tree):
                    return False  # R2: optional signalling
            return True

        def backtrack(index: int) -> bool:
            if budget[0] <= 0:
                return False
            if index == len(edges):
                return True
            child, occ = edges[index]
            key = order_keys[index]
            images = ([chosen_images[child]] if child in chosen_images
                      else image_options[child])
            for child_image in images:
                candidates = self._paths(image, kind, child_image)
                for candidate in candidates:
                    budget[0] -= 1
                    if budget[0] <= 0:
                        return False
                    if not compatible(candidate):
                        continue
                    newly_fixed = child not in chosen_images
                    chosen_paths[key] = candidate
                    chosen_images[child] = child_image
                    if backtrack(index + 1):
                        return True
                    del chosen_paths[key]
                    if newly_fixed:
                        del chosen_images[child]
            return False

        if not backtrack(0):
            return None
        return self._finish(source_type, image, chosen_images, chosen_paths)

    def _finish(self, source_type: str, image: str,
                child_images: dict[str, str],
                paths: dict[tuple[str, str, int], XRPath]) -> LocalMapping:
        quality = self.att.get(source_type, image)
        quality += sum(self.att.get(child, target)
                       for child, target in child_images.items())
        return LocalMapping(source_type, image, child_images, dict(paths),
                            quality)

    def find_all(self, source_type: str, fixed: dict[str, str],
                 rng: Optional[random.Random] = None,
                 limit: int = 6) -> list[LocalMapping]:
        """Up to ``limit`` local mappings across candidate images
        (used by the independent-set assembly)."""
        out: list[LocalMapping] = []
        for image in self._candidate_images(source_type, fixed, rng):
            mapping = self.find(source_type, image, fixed, rng)
            if mapping is not None:
                out.append(mapping)
            if len(out) >= limit:
                break
        return out
