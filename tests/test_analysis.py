"""The static-analysis pass: each checker fires on a known-bad golden
fixture, stays quiet on the shipped tree, and the baseline round-trips
(add, match, expire).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    CHECKERS,
    LintError,
    apply_baseline,
    load_baseline,
    run_lint,
    write_baseline,
)
from repro.cli import main as cli_main

REPO = Path(__file__).resolve().parent.parent
LINT_TARGETS = [REPO / "src", REPO / "tests", REPO / "benchmarks",
                REPO / "examples"]


def write_pkg(tmp_path: Path, files: dict) -> Path:
    """Lay out fixture files under ``<tmp>/src/`` with the package
    ``__init__.py`` chain the module-name detection requires."""
    root = tmp_path / "src"
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        package_dir = path.parent
        while package_dir != root and package_dir != tmp_path:
            init = package_dir / "__init__.py"
            if not init.exists():
                init.write_text("")
            package_dir = package_dir.parent
    return root


def codes(findings) -> set:
    return {finding.code for finding in findings}


# ---------------------------------------------------------------------------
# layering


def test_layering_flags_module_level_upward_import(tmp_path):
    root = write_pkg(tmp_path, {
        "repro/core/bad.py":
            "from repro.engine.session import default_engine\n",
    })
    findings = run_lint([root], root=tmp_path, checkers=["layering"])
    assert codes(findings) == {"layering/plane-imports-engine"}


def test_layering_flags_unmarked_lazy_import(tmp_path):
    root = write_pkg(tmp_path, {
        "repro/xpath/bad.py": (
            "def wrapper():\n"
            "    from repro.serve.server import ReproServer\n"
            "    return ReproServer\n"),
    })
    findings = run_lint([root], root=tmp_path, checkers=["layering"])
    assert codes(findings) == {"layering/lazy-import-unmarked"}


def test_layering_accepts_marked_lazy_import(tmp_path):
    root = write_pkg(tmp_path, {
        "repro/xpath/good.py": (
            "def wrapper():\n"
            "    # lint: allow-lazy-import\n"
            "    from repro.serve.server import ReproServer\n"
            "    return ReproServer\n"),
    })
    assert run_lint([root], root=tmp_path, checkers=["layering"]) == []


def test_layering_flags_frontend_boundary_call(tmp_path):
    root = write_pkg(tmp_path, {
        "repro/workloads/bad.py": (
            "from repro.api import parse_dtd\n"
            "def load(text):\n"
            "    return parse_dtd(text)\n"),
        # The dtd package itself may call its own parsers.
        "repro/dtd/fine.py": (
            "def load(text):\n"
            "    return parse_compact(text)\n"),
    })
    findings = run_lint([root], root=tmp_path, checkers=["layering"])
    assert codes(findings) == {"layering/frontend-boundary"}
    assert all("workloads/bad.py" in finding.path for finding in findings)


# ---------------------------------------------------------------------------
# determinism


DETERMINISM_BAD = """\
# lint: determinism-plane
import random
import time


def render(items, mapping):
    for item in set(items):
        use(item)
    order = [key for key in {1, 2, 3}]
    token = id(mapping)
    seed = hash("tag")
    stamp = time.time()
    jitter = random.random()
    return order, token, seed, stamp, jitter
"""


def test_determinism_flags_every_hazard(tmp_path):
    root = write_pkg(tmp_path, {"repro/extras/canon.py": DETERMINISM_BAD})
    findings = run_lint([root], root=tmp_path, checkers=["determinism"])
    assert codes(findings) == {
        "determinism/set-iteration",
        "determinism/id",
        "determinism/hash",
        "determinism/wall-clock",
        "determinism/random",
    }
    # Both set iterations (for-loop and comprehension) are caught.
    assert sum(finding.code == "determinism/set-iteration"
               for finding in findings) == 2


def test_determinism_ignores_sorted_sets_and_other_modules(tmp_path):
    root = write_pkg(tmp_path, {
        "repro/extras/canon.py": (
            "# lint: determinism-plane\n"
            "def render(items):\n"
            "    for item in sorted(set(items)):\n"
            "        use(item)\n"
            "    for item in dict.fromkeys(items):\n"
            "        use(item)\n"),
        # Same hazards outside the plane: not this checker's business.
        "repro/extras/free.py": "import random\nX = random.random()\n",
    })
    assert run_lint([root], root=tmp_path,
                    checkers=["determinism"]) == []


def test_determinism_function_level_allow_marker(tmp_path):
    root = write_pkg(tmp_path, {
        "repro/extras/canon.py": (
            "# lint: determinism-plane\n"
            "# lint: allow-id\n"
            "def render(mapping):\n"
            "    names = {id(mapping): 'M0'}\n"
            "    return names\n"),
    })
    assert run_lint([root], root=tmp_path,
                    checkers=["determinism"]) == []


# ---------------------------------------------------------------------------
# recursion


def test_recursion_flags_direct_and_mutual_cycles(tmp_path):
    root = write_pkg(tmp_path, {
        "repro/extras/walk.py": (
            "# lint: recursion-plane\n"
            "def serialize(node):\n"
            "    return [serialize(child) for child in node.children]\n"
            "\n"
            "def even(n):\n"
            "    return n == 0 or odd(n - 1)\n"
            "\n"
            "def odd(n):\n"
            "    return n != 0 and even(n - 1)\n"),
    })
    findings = run_lint([root], root=tmp_path, checkers=["recursion"])
    assert codes(findings) == {"recursion/document-plane-cycle"}
    assert len(findings) == 2  # serialize self-loop + even<->odd
    messages = " ".join(finding.message for finding in findings)
    assert "serialize" in messages and "even" in messages


def test_recursion_resolves_methods_and_honours_marker(tmp_path):
    root = write_pkg(tmp_path, {
        "repro/extras/walk.py": (
            "# lint: recursion-plane\n"
            "class Walker:\n"
            "    def descend(self, node):\n"
            "        for child in node.children:\n"
            "            self.descend(child)\n"),
    })
    findings = run_lint([root], root=tmp_path, checkers=["recursion"])
    assert codes(findings) == {"recursion/document-plane-cycle"}

    root = write_pkg(tmp_path / "ok", {
        "repro/extras/walk.py": (
            "# lint: recursion-plane\n"
            "class Walker:\n"
            "    # Bounded by schema depth, not document depth.\n"
            "    # lint: allow-recursion\n"
            "    def descend(self, node):\n"
            "        for child in node.children:\n"
            "            self.descend(child)\n"),
    })
    assert run_lint([root], root=tmp_path / "ok",
                    checkers=["recursion"]) == []


def test_recursion_quiet_on_iterative_walkers(tmp_path):
    root = write_pkg(tmp_path, {
        "repro/extras/walk.py": (
            "# lint: recursion-plane\n"
            "def serialize(root):\n"
            "    stack = [root]\n"
            "    while stack:\n"
            "        node = stack.pop()\n"
            "        stack.extend(node.children)\n"),
    })
    assert run_lint([root], root=tmp_path, checkers=["recursion"]) == []


# ---------------------------------------------------------------------------
# fork safety


FORK_BAD_THREAD = """\
# lint: fork-plane
import multiprocessing
import threading


class Fleet:
    def spawn(self):
        process = multiprocessing.Process(target=work)
        process.start()

    def start(self):
        monitor = threading.Thread(target=watch)
        monitor.start()
        self.spawn()
"""

FORK_BAD_LOCK = """\
# lint: fork-plane
import multiprocessing


class Fleet:
    def spawn(self):
        process = multiprocessing.Process(target=work)
        process.start()

    def start(self):
        with self._lock:
            self.spawn()
"""

FORK_GOOD = """\
# lint: fork-plane
import multiprocessing
import threading


class Fleet:
    def spawn(self):
        process = multiprocessing.Process(target=work)
        process.start()

    def start(self):
        self.spawn()
        monitor = threading.Thread(target=watch)
        monitor.start()
"""


def test_forksafety_flags_thread_started_before_fork(tmp_path):
    root = write_pkg(tmp_path,
                     {"repro/extras/fleet.py": FORK_BAD_THREAD})
    findings = run_lint([root], root=tmp_path, checkers=["forksafety"])
    assert codes(findings) == {"forksafety/thread-before-fork"}


def test_forksafety_flags_lock_held_across_fork(tmp_path):
    root = write_pkg(tmp_path, {"repro/extras/fleet.py": FORK_BAD_LOCK})
    findings = run_lint([root], root=tmp_path, checkers=["forksafety"])
    assert codes(findings) == {"forksafety/lock-across-fork"}


def test_forksafety_quiet_when_thread_starts_after_fork(tmp_path):
    root = write_pkg(tmp_path, {"repro/extras/fleet.py": FORK_GOOD})
    assert run_lint([root], root=tmp_path,
                    checkers=["forksafety"]) == []


def test_forksafety_flags_os_fork_outside_supervisor(tmp_path):
    root = write_pkg(tmp_path, {
        "repro/extras/rogue.py": (
            "import os\n"
            "def split():\n"
            "    return os.fork()\n"),
    })
    findings = run_lint([root], root=tmp_path, checkers=["forksafety"])
    assert codes(findings) == {"forksafety/fork-outside-supervisor"}


# ---------------------------------------------------------------------------
# error contract


def test_errors_flags_escaping_error_type(tmp_path):
    root = write_pkg(tmp_path, {
        "repro/extras/errors.py": (
            "class FineError(ValueError):\n"
            "    pass\n"
            "class StillFine(FineError):\n"
            "    pass\n"
            "class DiskError(OSError):\n"
            "    pass\n"
            "class EscapesError(RuntimeError):\n"
            "    pass\n"),
    })
    findings = run_lint([root], root=tmp_path, checkers=["errors"])
    assert codes(findings) == {"errors/escaping-error-type"}
    assert len(findings) == 1
    assert "EscapesError" in findings[0].message


def test_errors_honours_allow_marker(tmp_path):
    root = write_pkg(tmp_path, {
        "repro/extras/errors.py": (
            "# internal control-flow signal, must stay loud\n"
            "# lint: allow-error-type\n"
            "class SignalError(Exception):\n"
            "    pass\n"),
    })
    assert run_lint([root], root=tmp_path, checkers=["errors"]) == []


def test_errors_flags_uncatchable_raise_in_entry_module(tmp_path):
    root = write_pkg(tmp_path, {
        "repro/cli.py": (
            "def main(argv=None):\n"
            "    if not argv:\n"
            "        raise KeyError('missing')\n"
            "    raise ValueError('fine')\n"),
    })
    findings = run_lint([root], root=tmp_path, checkers=["errors"])
    assert codes(findings) == {"errors/entrypoint-raises-uncatchable"}
    assert len(findings) == 1


# ---------------------------------------------------------------------------
# the shipped tree is lint-clean


def test_shipped_tree_has_zero_findings():
    findings = run_lint(LINT_TARGETS, root=REPO)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_stream_and_codec_plane_markers_opt_into_recursion(tmp_path):
    # The streaming/codec plane markers enrol a module in the
    # document-plane recursion checker.
    for marker in ("stream-plane", "codec-plane"):
        root = write_pkg(tmp_path / marker, {
            "repro/plugin/walker.py":
                f"# lint: {marker}\n"
                "def walk(node):\n"
                "    for child in node.children:\n"
                "        walk(child)\n",
        })
        findings = run_lint([root], root=tmp_path / marker,
                            checkers=["recursion"])
        assert codes(findings) == {"recursion/document-plane-cycle"}, marker


def test_stream_and_codec_plane_markers_opt_into_determinism(tmp_path):
    for marker in ("stream-plane", "codec-plane"):
        root = write_pkg(tmp_path / marker, {
            "repro/plugin/emit.py":
                f"# lint: {marker}\n"
                "def emit(tags):\n"
                "    return [t for t in {x for x in tags}]\n",
        })
        findings = run_lint([root], root=tmp_path / marker,
                            checkers=["determinism"])
        assert codes(findings) == {"determinism/set-iteration"}, marker


def test_every_checker_ran_on_the_shipped_tree():
    # A checker silently dropping out of CHECKERS would make the
    # clean-tree test vacuous for its invariant.
    assert set(CHECKERS) == {"layering", "determinism", "recursion",
                             "forksafety", "errors"}


# ---------------------------------------------------------------------------
# baseline round-trip


def test_baseline_add_match_expire_roundtrip(tmp_path):
    root = write_pkg(tmp_path, {
        "repro/core/bad.py":
            "from repro.engine.session import default_engine\n",
    })
    findings = run_lint([root], root=tmp_path, checkers=["layering"])
    assert findings

    baseline_path = tmp_path / "lint-baseline.json"
    count = write_baseline(findings, baseline_path,
                           justification="grandfathered pending refactor")
    assert count == 1

    # Same findings + baseline: nothing new, nothing stale.
    entries = load_baseline(baseline_path)
    match = apply_baseline(findings, entries)
    assert match.new == [] and match.stale == []
    assert len(match.baselined) == 1

    # Baselines are line-number independent: the finding moving down
    # the file still matches.
    (root / "repro/core/bad.py").write_text(
        "\"\"\"doc\"\"\"\nimport os\n\n"
        "from repro.engine.session import default_engine\n")
    moved = run_lint([root], root=tmp_path, checkers=["layering"])
    assert moved[0].line != findings[0].line
    assert apply_baseline(moved, entries).new == []

    # Fixing the finding leaves the entry stale (expire signal).
    (root / "repro/core/bad.py").write_text("import os\n")
    clean = run_lint([root], root=tmp_path, checkers=["layering"])
    match = apply_baseline(clean, entries)
    assert match.new == [] and match.baselined == []
    assert match.stale == [findings[0].key]


def test_baseline_requires_justifications(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(
        {"version": 1, "entries": [{"key": "a::b::c"}]}))
    with pytest.raises(LintError, match="justification"):
        load_baseline(path)
    path.write_text("not json")
    with pytest.raises(LintError, match="JSON"):
        load_baseline(path)


def test_baseline_counts_duplicate_keys(tmp_path):
    root = write_pkg(tmp_path, {
        "repro/core/bad.py": (
            "def first():\n"
            "    from repro.engine.session import default_engine\n"
            "def second():\n"
            "    from repro.engine.session import default_engine\n"),
    })
    findings = run_lint([root], root=tmp_path, checkers=["layering"])
    assert len(findings) == 2
    assert findings[0].key == findings[1].key

    baseline_path = tmp_path / "baseline.json"
    write_baseline(findings, baseline_path, justification="both known")
    entries = load_baseline(baseline_path)
    assert entries[findings[0].key]["count"] == 2
    match = apply_baseline(findings, entries)
    assert match.new == [] and len(match.baselined) == 2
    # Only one occurrence baselined -> the second is new again.
    entries[findings[0].key]["count"] = 1
    match = apply_baseline(findings, entries)
    assert len(match.new) == 1 and len(match.baselined) == 1


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_lint_exit_codes_and_json(tmp_path, capsys):
    root = write_pkg(tmp_path, {
        "repro/core/bad.py":
            "from repro.engine.session import default_engine\n",
    })
    assert cli_main(["lint", str(root), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"][0]["code"] == "layering/plane-imports-engine"
    assert payload["baselined"] == 0

    baseline = tmp_path / "baseline.json"
    assert cli_main(["lint", str(root), "--baseline", str(baseline),
                     "--write-baseline"]) == 0
    capsys.readouterr()
    assert cli_main(["lint", str(root), "--baseline",
                     str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "baselined" in out

    clean = write_pkg(tmp_path / "clean",
                      {"repro/core/fine.py": "X = 1\n"})
    assert cli_main(["lint", str(clean)]) == 0


def test_cli_lint_bad_inputs_exit_2(tmp_path, capsys):
    assert cli_main(["lint", str(tmp_path / "missing")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:")
    assert cli_main(["lint", "--checks", "nonsense",
                     str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown checker" in err
    # Codecs are no longer generated source, so there is nothing left
    # for the former codec-source determinism checker to check.
    assert cli_main(["lint", "--checks", "codecgen", str(tmp_path)]) == 2
    assert "unknown checker(s) codecgen" in capsys.readouterr().err


def test_cli_lint_checker_subset(tmp_path, capsys):
    root = write_pkg(tmp_path, {
        "repro/core/bad.py":
            "from repro.engine.session import default_engine\n",
    })
    # The layering finding is invisible to a determinism-only run.
    assert cli_main(["lint", str(root), "--checks",
                     "determinism"]) == 0
    capsys.readouterr()
