"""Smoke tests for the experiment drivers and the table renderer."""

import pytest

from repro.experiments.accuracy import run_accuracy
from repro.experiments.complexity import (
    _school_instances,
    run_instmap_growth,
    run_inverse_growth,
    run_translation_growth,
)
from repro.experiments.report import format_table
from repro.experiments.scalability import run_scalability
from repro.xtree.nodes import tree_size


def test_format_table_alignment():
    rows = [{"a": 1, "bee": "x"}, {"a": 22, "bee": "yy"}]
    rendered = format_table(rows, title="t")
    lines = rendered.splitlines()
    assert lines[0] == "t"
    assert len({len(line) for line in lines[1:]}) == 1  # aligned


def test_format_table_empty():
    assert format_table([]) == "(no rows)"


def test_format_table_column_selection():
    rendered = format_table([{"a": 1, "b": 2}], columns=["b"])
    assert "a" not in rendered.splitlines()[0]


def test_accuracy_driver_minimal():
    rows = run_accuracy(schemas=("parts",), noises=(0.0,),
                        methods=("quality",), trials=1, seed=5)
    assert len(rows) == 1
    assert rows[0].success_rate == 1.0
    assert rows[0].lambda_accuracy == 1.0
    assert rows[0].as_dict()["success"] == "100%"


def test_scalability_driver_minimal():
    rows = run_scalability(sizes=(8,), methods=("quality",), seed=1)
    assert len(rows) == 1 and rows[0].success
    assert rows[0].target_types > rows[0].source_types


def test_instmap_growth_rows():
    rows = run_instmap_growth(sizes=(50, 200), seed=2)
    assert len(rows) == 2
    assert all(row["|T2|"] >= row["|T1|"] for row in rows)


def test_school_instances_reach_their_targets():
    sizes = (100, 400, 1600, 6400)
    for size, (_, tree, _) in zip(sizes, _school_instances(sizes, seed=4)):
        assert tree_size(tree) >= size


def test_school_instances_refuse_an_unreachable_target():
    with pytest.raises(ValueError, match="25600 nodes"):
        list(_school_instances([25600], seed=4))


def test_inverse_growth_rows():
    rows = run_inverse_growth(sizes=(50,), seed=2,
                              include_query_driven=False)
    assert len(rows) == 1 and "query-driven-sec" not in rows[0]


def test_translation_growth_within_bounds():
    rows = run_translation_growth(counts=(4,), seed=1, max_steps=5)
    assert rows and all(row["within-bound"] for row in rows)
