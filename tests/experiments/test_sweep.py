"""The sweep harness on a toy two-point sweep (no simulation)."""

import json

import pytest

from repro.experiments import bench, sweep
from repro.experiments.sweep import Column, Sweep


def _point(n: int, scale: float = 1.0) -> dict:
    return {
        "label": f"n{n}",
        "n": n,
        "rate": n * scale / 3,
        "per_dev": {"d0": 0.123456, "d1": n},
        "hidden": "x",
    }


TOY = Sweep(
    name="toy",
    title="Toy sweep",
    point=_point,
    points=({"n": 1}, {"n": 2}),
    reduced=({"n": 1, "scale": 10.0},),
    columns=(
        Column("n", "size", written=False),
        Column("rate", "rate/s", 2),
        Column("per_dev", ndigits=3),
        Column("hidden", written=False),
    ),
    derived=lambda points: {"total_n": sum(p["n"] for p in points)},
    notes=("a static note",),
)


def test_run_calls_the_point_function_per_declared_point():
    assert [p["n"] for p in sweep.run(TOY)] == [1, 2]
    assert [p["rate"] for p in sweep.run(TOY, reduced=True)] == [10.0 / 3]
    # no reduced list declared: the full one is the CI-sized one
    full_only = Sweep("t", "t", _point, TOY.points, TOY.columns)
    assert sweep.run(full_only, reduced=True) == sweep.run(full_only)


def test_table_has_the_shown_columns_rows_and_notes():
    t = sweep.table(TOY, sweep.run(TOY))
    assert t.title == "Toy sweep"
    assert t.columns == ["size", "rate/s"]
    assert t.rows == [[1, 1 / 3], [2, 2 / 3]]
    assert t.notes == ["total_n = 3", "a static note"]


def test_metrics_are_label_slash_key_with_declared_rounding():
    assert sweep.metrics(TOY, sweep.run(TOY)) == {
        "n1/rate": 0.33,
        "n1/d0/per_dev": 0.123,
        "n1/d1/per_dev": 1,
        "n2/rate": 0.67,
        "n2/d0/per_dev": 0.123,
        "n2/d1/per_dev": 2,
        "total_n": 3,
    }


def test_write_unions_sweeps_sharing_a_name(tmp_path):
    other = Sweep("toy", "second part", lambda: {"label": "extra", "v": 7}, ({},), (Column("v"),))
    results = [(s, sweep.run(s)) for s in (TOY, other)]
    out = sweep.write(results, path=tmp_path / "BENCH_toy.json")
    data = json.loads(out.read_text())
    assert data["schema"] == bench.SCHEMA_VERSION
    assert data["metrics"]["extra/v"] == 7 and data["metrics"]["total_n"] == 3


def test_cli_writes_the_artifact_unless_no_json(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "RESULTS_DIR", tmp_path)
    assert sweep.main([TOY], ["toy", "--reduced", "--no-json"]) == 0
    assert "Toy sweep" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
    assert sweep.main([TOY], ["toy", "--reduced"]) == 0
    data = json.loads((tmp_path / "BENCH_toy.json").read_text())
    assert data["metrics"] == {
        "n1/rate": 3.33,
        "n1/d0/per_dev": 0.123,
        "n1/d1/per_dev": 1,
        "total_n": 1,
    }


def test_cli_unknown_name_exits_nonzero_and_lists_registered(capsys):
    with pytest.raises(SystemExit) as exc:
        sweep.main([TOY], ["nope"])
    assert exc.value.code != 0
    assert "toy" in capsys.readouterr().err


def test_registered_sweeps_are_the_five_names_and_well_formed():
    from repro.experiments.__main__ import SWEEPS

    assert sorted({s.name for s in SWEEPS}) == [
        "hedge", "kvflash", "multidev", "scaleout", "slo",
    ]
    for s in SWEEPS:
        assert all(isinstance(kw, dict) for kw in (*s.points, *(s.reduced or ())))
        assert len({c.key for c in s.columns}) == len(s.columns), s.title
