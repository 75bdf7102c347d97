"""Tests for the experiment harness (small parameterisations)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BoundedBudgetGame
from repro.errors import ExperimentError
from repro.experiments import (
    FIGURE1_BUDGETS,
    exact_is_feasible,
    figure1_experiment,
    figure2_experiment,
    figure3_experiment,
    list_experiments,
    positive_max_experiment,
    render_arcs,
    render_spider,
    run_experiment,
    stabilize,
    trees_max_experiment,
    trees_sum_experiment,
    try_certify,
    unit_budgets_experiment,
)
from repro.experiments.runner import REGISTRY
from repro.graphs import star_realization, unit_budgets


# ----------------------------------------------------------------------
# common helpers
# ----------------------------------------------------------------------
def test_exact_is_feasible():
    assert exact_is_feasible(BoundedBudgetGame([1, 1, 1]))
    big = BoundedBudgetGame([20] * 50)
    assert not exact_is_feasible(big, cap=1000)


def test_stabilize_exact_path():
    game = BoundedBudgetGame(unit_budgets(8))
    out = stabilize(game, game.random_realization(seed=0), "sum", seed=0)
    assert out.converged
    assert out.method == "exact"
    from repro.core import is_equilibrium

    assert is_equilibrium(out.graph, "sum")


def test_stabilize_heuristic_path():
    # Force the heuristic branch with a tiny exact cap.
    game = BoundedBudgetGame([2, 2, 2, 1, 1, 1, 1, 0])
    out = stabilize(
        game,
        game.random_realization(seed=1, connected=True),
        "sum",
        seed=1,
        exact_cap=1,
    )
    assert out.method == "swap"
    assert out.converged


def test_try_certify_methods():
    g = star_realization(6, 0, center_owns=True)
    method, cert = try_certify(g, "sum")
    assert method == "exact"
    assert cert.is_equilibrium
    # A player with 2-of-6 budget has C(6, 2) = 15 > 1 candidate subsets,
    # so a cap of 1 forces the swap path.
    from repro.constructions import binary_tree_equilibrium

    bt = binary_tree_equilibrium(2).graph
    method2, cert2 = try_certify(bt, "sum", exact_cap=1)
    assert method2 == "swap"
    assert cert2.is_equilibrium


# ----------------------------------------------------------------------
# Table 1 runners (small parameters to keep CI fast)
# ----------------------------------------------------------------------
def test_trees_max_small():
    rep = trees_max_experiment(ks=(2, 3))
    assert rep.fit is not None and rep.fit.family == "linear"
    assert all("True" in str(r["certified"]) for r in rep.rows)
    assert [r["diameter"] for r in rep.rows] == [4, 6]
    assert rep.format()  # renders


def test_trees_sum_small():
    rep = trees_sum_experiment(ns=(15,), replications=2, depths=(2, 3))
    assert rep.fit is not None and rep.fit.family == "log"
    bt_rows = [r for r in rep.rows if r["source"] == "binary-tree"]
    assert all(r["within_bound"] for r in bt_rows)
    dyn_rows = [r for r in rep.rows if r["source"] == "dynamics"]
    assert all(r["within_bound"] for r in dyn_rows)


def test_unit_budgets_small():
    rep = unit_budgets_experiment(ns=(6, 10), replications=2)
    assert all(r["structure_ok"] for r in rep.rows)
    sum_rows = [r for r in rep.rows if r["version"] == "sum"]
    max_rows = [r for r in rep.rows if r["version"] == "max"]
    assert all(r["worst_diameter"] < 5 for r in sum_rows)
    assert all(r["worst_diameter"] < 8 for r in max_rows)


def test_positive_max_small():
    rep = positive_max_experiment(tk_pairs=((4, 2),))
    assert rep.rows[0]["diameter"] == 2
    assert "True" in rep.rows[0]["certified"]


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------
def test_figure1():
    rep = figure1_experiment()
    assert len(rep.rows) == 2
    for row in rep.rows:
        assert row["is_equilibrium"]
        assert row["diameter"] <= 4
        assert row["n"] == 22
        assert row["case"] == 2


def test_figure1_budgets_constant():
    assert len(FIGURE1_BUDGETS) == 22
    assert sum(FIGURE1_BUDGETS) == 27
    assert FIGURE1_BUDGETS.count(0) == 16


def test_figure2():
    rep = figure2_experiment(ks=(2,))
    assert rep.rows[0]["is_equilibrium"]
    assert rep.rows[0]["diameter"] == 4


def test_figure3():
    rep = figure3_experiment(depth=3)
    sizes = [r["a(i)"] for r in rep.rows]
    assert sum(sizes) == 15
    assert "inequality holds: True" in rep.notes[0]


def test_renderers():
    g = star_realization(4, 0, center_owns=True)
    text = render_arcs(g)
    assert "v1->v2" in text
    pic = render_spider(2)
    assert "w" in pic and "x1" in pic


# ----------------------------------------------------------------------
# Registry / CLI
# ----------------------------------------------------------------------
def test_registry_covers_all_artifacts():
    keys = set(REGISTRY)
    # Every Table 1 cell and every figure is present.
    assert {"T1-MAX-trees", "T1-SUM-trees", "T1-unit", "T1-MAX-positive",
            "T1-SUM-general", "FIG-1", "FIG-2", "FIG-3"} <= keys
    assert len(list_experiments()) == len(REGISTRY)


def test_run_experiment_unknown():
    with pytest.raises(ExperimentError):
        run_experiment("T9-UNKNOWN")


def test_run_experiment_dispatch():
    rep = run_experiment("FIG-2")
    assert rep.experiment_id == "FIG-2"


def test_cli_list(capsys):
    from repro.cli import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "T1-MAX-trees" in out
    assert "FIG-3" in out


def test_cli_run(capsys):
    from repro.cli import main

    assert main(["run", "FIG-2"]) == 0
    out = capsys.readouterr().out
    assert "FIG-2" in out
    assert "elapsed" in out


def test_cli_run_unknown(capsys):
    from repro.cli import main

    assert main(["run", "NOPE"]) == 1
    assert "failed" in capsys.readouterr().err


def test_cli_run_failure_surfaces_traceback(capsys):
    # Regression: batch runs printed only str(exc), masking which layer
    # raised — the full traceback must reach stderr.
    from repro.cli import main

    assert main(["run", "NOPE"]) == 1
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "ExperimentError" in err
    assert "!! NOPE failed" in err


@pytest.mark.parametrize(
    "flag",
    [["--extended"], ["--pool"], ["--no-pool"], ["--pool-dir", "x"]],
    ids=["extended", "pool", "no-pool", "pool-dir"],
)
def test_cli_run_rejects_removed_flags(flag, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["run", "FIG-2", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_resume_without_checkpoint_dir_exits_2(capsys):
    from repro.cli import main

    assert main(["run", "FIG-2", "--resume"]) == 2
    err = capsys.readouterr().err
    assert "--resume requires --checkpoint-dir" in err


def test_cli_pool_gc_missing_dir_exits_1(tmp_path, capsys):
    from repro.cli import main

    missing = str(tmp_path / "no-such-store")
    assert main(["pool", "gc", "--dir", missing]) == 1
    assert "!! pool gc failed" in capsys.readouterr().err
    # The failed gc must not have conjured the directory into existence.
    assert not (tmp_path / "no-such-store").exists()


def test_cli_pool_gc_non_store_path_exits_1(tmp_path, capsys):
    from repro.cli import main

    plain = tmp_path / "plainfile"
    plain.write_text("not a store")
    assert main(["pool", "gc", "--dir", str(plain)]) == 1
    assert "!! pool gc failed" in capsys.readouterr().err


def test_cli_batch_run_keeps_going_after_middle_failure(capsys):
    # `run a b c` with a failing middle id: the batch finishes (both
    # healthy experiments print reports) and the exit code is 1.
    from repro.cli import main

    assert main(["run", "FIG-2", "NOPE", "FIG-3"]) == 1
    captured = capsys.readouterr()
    assert "FIG-2" in captured.out
    assert "FIG-3" in captured.out
    assert "!! NOPE failed" in captured.err
