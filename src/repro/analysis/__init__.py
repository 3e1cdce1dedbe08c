"""``repro.analysis`` — the repo-specific static-analysis pass.

The paper's guarantees (information preservation, invertibility,
query translatability) hold in this repro because the code keeps a
handful of invariants that are invisible to the type system:
canonical renderings feed fingerprints byte-for-byte, the document
plane is iterative so deep documents survive, only the schema
frontends parse schema text, the pre-fork fleet stays fork-safe, and
every bad-input error is catchable at the CLI boundary.  ``repro
lint`` machine-enforces all five:

========================  ==============================================
checker                   invariant
========================  ==============================================
``layering``              plane packages never import ``engine``/
                          ``serve`` (lazy + ``# lint:
                          allow-lazy-import`` excepted); only
                          ``schema``/``dtd`` call the raw parsers
``determinism``           no hash-order/identity/randomness/wall-clock
                          dependence in the byte-output planes
``recursion``             no call cycles in the document-plane modules
``forksafety``            no threads started / locks held on the
                          fleet's pre-fork path; ``os.fork`` only in
                          the supervisor
``errors``                every exception type is ValueError/OSError-
                          rooted; entry modules raise nothing the
                          exit-2 boundary cannot catch
========================  ==============================================

The streaming/codec planes opt in via ``# lint: stream-plane`` /
``# lint: codec-plane`` module markers, which enrol a module in both
the ``recursion`` and ``determinism`` checkers.

Run it as ``repro lint [PATHS] [--json] [--baseline FILE]`` or via
:func:`run_lint`.  Extending: a checker is a module with a ``CHECKER``
name and a ``check(modules) -> Iterator[Finding]`` — add it to
:data:`CHECKERS` and its ``allow-*`` markers work immediately.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.analysis import (
    determinism,
    errorcontract,
    forksafety,
    layering,
    recursion,
)
from repro.analysis.baseline import (
    BaselineMatch,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.collect import collect_modules
from repro.analysis.model import Finding, LintError, Module

#: name -> check(modules) callable, in report order.
CHECKERS = {
    layering.CHECKER: layering.check,
    determinism.CHECKER: determinism.check,
    recursion.CHECKER: recursion.check,
    forksafety.CHECKER: forksafety.check,
    errorcontract.CHECKER: errorcontract.check,
}


def run_lint(paths: Iterable[Union[str, Path]],
             root: Optional[Union[str, Path]] = None,
             checkers: Optional[Iterable[str]] = None) -> list[Finding]:
    """Collect, parse and run the selected checkers over ``paths``.

    ``root`` anchors the repo-relative paths findings report (defaults
    to the current directory).  Unknown checker names raise
    :class:`LintError`; parse failures come back as findings, never
    exceptions.
    """
    selected = list(CHECKERS) if checkers is None else list(checkers)
    unknown = [name for name in selected if name not in CHECKERS]
    if unknown:
        raise LintError(
            f"unknown checker(s) {', '.join(sorted(unknown))}; "
            f"available: {', '.join(CHECKERS)}")
    root_path = Path(root) if root is not None else None
    modules, findings = collect_modules(paths, root=root_path)
    for name in selected:
        findings.extend(CHECKERS[name](modules))
    return sorted(findings, key=Finding.sort_key)


def render_text(findings: list[Finding],
                match: Optional[BaselineMatch] = None) -> str:
    """Human-readable report (what the CLI prints without ``--json``)."""
    lines = []
    new = findings if match is None else match.new
    for finding in new:
        lines.append(finding.render())
    if match is not None:
        if match.baselined:
            lines.append(f"# {len(match.baselined)} baselined "
                         "finding(s) suppressed")
        for key in match.stale:
            lines.append(f"# stale baseline entry (expire it): {key}")
    if not new:
        lines.append("# lint clean"
                     if match is None or not match.baselined
                     else "# lint clean (baseline applied)")
    return "\n".join(lines)


def render_json(findings: list[Finding],
                match: Optional[BaselineMatch] = None) -> str:
    new = findings if match is None else match.new
    payload = {
        "findings": [finding.to_dict() for finding in new],
        "baselined": 0 if match is None else len(match.baselined),
        "stale": [] if match is None else match.stale,
    }
    return json.dumps(payload, indent=2)


__all__ = [
    "BaselineMatch",
    "CHECKERS",
    "Finding",
    "LintError",
    "Module",
    "apply_baseline",
    "collect_modules",
    "load_baseline",
    "render_json",
    "render_text",
    "run_lint",
    "write_baseline",
]
