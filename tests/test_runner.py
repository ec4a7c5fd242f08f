import contextlib
import errno
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qctl import (
    NumericalGuardError,
    make_regime,
    parse_config,
    position_densities,
    quad_integrate,
    run_experiment,
)
import qctl
from qctl import errors
from qctl.cli import main
from qctl.config import RUN_KINDS
from qctl.ensembles import mass_below


def small_config(run_kind, **overrides):
    doc = {
        "run": run_kind,
        "epsilons": [1.0, 0.01],
        "packets": {"a": {"x0": -5.0, "p0": -2.0}, "b": {"x0": -15.0, "p0": 2.0}},
        "grid": {"x_min": -60.0, "n_points": 1025},
        "time": {"t_max": 8.0, "n_times": 5},
        "trajectories": {
            "t_end": 1.0,
            "dt": 0.001,
            "n_seeds": 4,
            "x_lo": -16.0,
            "x_hi": -4.0,
            "record_every": 100,
        },
        "arrival": {"t_max": 40.0, "n_points": 2001},
        "wigner": {"times": [0.0], "x_min": -25.0, "n_x": 41, "u_max": 6.0, "n_u": 41},
    }
    doc.update(overrides)
    return doc


def read_table(path):
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
    data = np.genfromtxt(path, delimiter=",", skip_header=1)
    return header, np.atleast_2d(data)


def test_density_run_layout_and_fringes(tmp_path):
    config = parse_config(json.dumps(small_config("density", time={"t_max": 7.0, "n_times": 2})))
    manifest = run_experiment(replace(config, out_dir=str(tmp_path)))
    assert sorted(manifest["outputs"]) == ["density_eps0.01.csv", "density_eps1.csv"]
    assert manifest["config"]["out_dir"] == str(tmp_path)
    header, table = read_table(tmp_path / "density_eps1.csv")
    assert header == [
        "t [time]",
        "x [length]",
        "density_pure [1/length]",
        "density_mixed [1/length]",
    ]
    assert table.shape == (2 * 1025, 4)
    # Fringe structure near the reflection time in the quantum regime.
    late = table[table[:, 0] == 7.0]
    window = late[(late[:, 1] >= -10.0) & (late[:, 1] <= 0.0)]
    rho = window[:, 2]
    maxima = np.sum((rho[1:-1] > rho[:-2]) & (rho[1:-1] > rho[2:]))
    assert maxima >= 3
    assert (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("run_kind", RUN_KINDS)
def test_runs_are_byte_identical(tmp_path, run_kind):
    config = parse_config(json.dumps(small_config(run_kind, epsilons=[0.5])))
    first = tmp_path / "first"
    second = tmp_path / "second"
    outputs = run_experiment(replace(config, out_dir=str(first)))["outputs"]
    assert run_experiment(replace(config, out_dir=str(second)))["outputs"] == outputs
    assert f"{run_kind}_eps0.5.csv" in outputs
    for name in outputs:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_trajectory_run_records_fans(tmp_path):
    config = parse_config(json.dumps(small_config("trajectories", epsilons=[1.0])))
    manifest = run_experiment(replace(config, out_dir=str(tmp_path)))
    header, table = read_table(tmp_path / "trajectories_eps1.csv")
    assert header[0] == "t [time]"
    assert len(header) == 1 + 2 * 4
    assert table.shape[0] == 11
    assert table[0, 0] == 0.0 and table[-1, 0] == 1.0
    # Seeds echo the uniform seeding bounds.
    assert "x_pure[-16]" in header[1]
    assert manifest["diagnostics"]["stalled_eps1"] == {"pure": 0, "mixed": 0}


def test_trajectory_run_records_integrator_counts(tmp_path):
    # The seed in the far tail stalls at t = 0 and takes no step.
    doc = small_config("trajectories", epsilons=[1.0, 0.01])
    doc["trajectories"]["seeds"] = [-55.0, -10.0, -6.0]
    manifest = run_experiment(parse_config(json.dumps(doc), {"out_dir": str(tmp_path)}))
    diagnostics = manifest["diagnostics"]
    assert sorted(diagnostics["integrator"]) == ["0.01", "1"]
    for tag, per_kind in diagnostics["integrator"].items():
        assert sorted(per_kind) == ["mixed", "pure"]
        for kind, counts in per_kind.items():
            assert counts["stalled_seeds"] == diagnostics[f"stalled_eps{tag}"][kind] == 1
            assert counts["accepted_steps"] > 0
            assert counts["rejected_steps"] >= 0
            # One call at t = 0, one for the starting step and six per step
            # attempted by the longer-running of the two seeds that move.
            attempts = counts["accepted_steps"] + counts["rejected_steps"]
            assert 2 + 3 * attempts <= counts["evaluator_calls"] <= 2 + 6 * attempts
            assert 0.0 < counts["min_step"] < 1.0
    assert json.loads((tmp_path / "manifest.json").read_text())["diagnostics"] == diagnostics


def test_one_loop_for_all_epsilons_matches_single_epsilon_runs(tmp_path):
    # A two-epsilon run integrates its four fans in one lockstep loop; every
    # CSV and every fan's integrator counts equal those of one-epsilon runs.
    doc = small_config("trajectories", epsilons=[1.0, 0.01])
    doc["trajectories"].update(t_end=2.0, seeds=[-55.0, -14.0, -9.0, -4.5])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))

    def run(out_dir, *extra):
        assert main(["trajectories", "--config", str(config_path), "--out", str(out_dir), *extra]) == 0
        return json.loads((out_dir / "manifest.json").read_text())["diagnostics"]

    both = run(tmp_path / "both")
    loops = []
    for tag in ("1", "0.01"):
        single = run(tmp_path / tag, "--epsilon", tag)
        name = f"trajectories_eps{tag}.csv"
        assert (tmp_path / "both" / name).read_bytes() == (tmp_path / tag / name).read_bytes()
        assert both["integrator"][tag] == single["integrator"][tag]
        loops.append(single["trajectory_loop"])
    loop = both["trajectory_loop"]
    per_fan = [c["evaluator_calls"] for per_kind in both["integrator"].values() for c in per_kind.values()]
    assert loop["evaluator_calls"] == max(per_fan)
    assert loop["evaluator_points"] == sum(single["evaluator_points"] for single in loops)
    assert loop["iterations"] == max(single["iterations"] for single in loops)


def test_cli_rejects_trajectory_run_above_sample_budget(tmp_path, capsys):
    doc = small_config("trajectories", epsilons=[1.0])
    doc["trajectories"]["n_seeds"] = 10**7
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["trajectories", "--config", str(config_path), "--out", str(out_dir)]) == 2
    assert "trajectories.n_seeds" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_rejects_wigner_run_above_point_budget(tmp_path, capsys):
    doc = small_config("wigner", epsilons=[1.0])
    doc["wigner"].update(n_x=81, n_u=10**6)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["wigner", "--config", str(config_path), "--out", str(out_dir)]) == 2
    assert "wigner.n_u" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("kind", ["density", "observables"])
def test_cli_rejects_time_grid_above_row_budget(kind, tmp_path, capsys):
    doc = small_config(kind, epsilons=[1.0], time={"t_max": 8.0, "n_times": 10**12})
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main([kind, "--config", str(config_path), "--out", str(out_dir)]) == 2
    assert "time.n_times" in capsys.readouterr().err
    assert not out_dir.exists()


def test_csv_cached_leading_fields_match_the_plain_template(tmp_path):
    import qctl.runner as runner

    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300, 0.1, 1.0 / 3.0]
    t = np.array([0.0, -0.0, 7.0, np.nan])
    # More rows than one formatting chunk.
    x = np.concatenate((special, np.linspace(-3.0, 3.0, 70)))
    values = np.random.default_rng(3).normal(size=(t.size, x.size, 2))
    values[0, : len(special)] = np.array(special)[:, None]
    values[1, : len(special), 1] = special[::-1]
    header = ["t", "x", "a", "b"]

    def plain():
        for k, t_k in enumerate(t):
            yield runner._plain(np.column_stack((np.full(x.size, t_k), x, values[k])))

    def cached():
        # Each time's rows in two blocks, the second starting inside a chunk.
        x_rows = runner._csv_rows(x, 2)
        for t_field, block in zip(runner._csv_fields(t), values):
            yield t_field, x_rows[:37], block[:37]
            yield t_field, x_rows[37:], block[37:]

    runner._write_csv(tmp_path / "plain.csv", header, plain())
    runner._write_csv(tmp_path / "cached.csv", header, cached())
    assert (tmp_path / "cached.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    assert b"\nnan,inf," in (tmp_path / "plain.csv").read_bytes()


def test_born_seeding_is_deterministic_and_ordered(tmp_path):
    config = parse_config(
        json.dumps(
            small_config(
                "trajectories",
                epsilons=[1.0],
                trajectories={"t_end": 0.5, "dt": 0.001, "seeding": "born", "n_seeds": 6},
            )
        )
    )
    run_experiment(replace(config, out_dir=str(tmp_path)))
    header, _ = read_table(tmp_path / "trajectories_eps1.csv")
    seeds = [float(name.split("[")[1].split("]")[0]) for name in header[1:7]]
    assert all(b > a for a, b in zip(seeds, seeds[1:]))
    assert all(-18.0 <= s <= -2.0 for s in seeds)


@pytest.mark.parametrize("eps", [1.0, 0.01])
@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_born_seeds_are_exact_quantiles(eps, kind):
    import qctl.runner as runner

    # The seeds are the quantile midpoints of the exact t = 0 CDF F_0 on
    # [x_lo, x_hi], to 1e-10 in F_0 (a trapezoid CDF on the same grid read
    # 4.0e-7).
    config = parse_config(json.dumps(small_config(
        "trajectories", trajectories={"seeding": "born", "n_seeds": 40, "x_lo": -18.0, "x_hi": -2.0}
    )))
    spec, regime = config.ensemble(kind), make_regime(eps)
    seeds = runner._seed_positions(config, spec, regime)
    lo, hi = mass_below(spec, regime, 0.0, np.array([-18.0, -2.0]))
    targets = lo + (hi - lo) * (np.arange(40) + 0.5) / 40
    assert np.max(np.abs(mass_below(spec, regime, 0.0, seeds) - targets)) <= 1e-10


@pytest.mark.parametrize("x_hi", [-52.0, -52.9, -53.2])
def test_born_seeds_stay_finite_where_the_density_underflows(x_hi):
    import qctl.runner as runner

    # On [-60, x_hi] the t = 0 mass is 2.9e-300, 6.4e-315 and 7.0e-320, so
    # the CDF and the density are subnormal at some or all of the seeds.
    # The seeds stay finite, increasing and inside the window.
    config = parse_config(json.dumps(small_config(
        "trajectories", trajectories={"seeding": "born", "n_seeds": 20, "x_lo": -60.0, "x_hi": x_hi}
    )))
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        seeds = runner._seed_positions(config, config.ensemble("pure"), make_regime(1.0))
    assert np.all(np.isfinite(seeds)) and np.all(np.diff(seeds) > 0.0)
    assert -60.0 <= seeds[0] and seeds[-1] <= x_hi


def test_cli_rejects_born_window_without_mass(tmp_path, capsys):
    # The t = 0 density is zero to double precision on [-300, -250], so the
    # Born quantiles would be 0/0 and every seed NaN.
    doc = small_config("trajectories", epsilons=[1.0])
    doc["trajectories"].update(seeding="born", x_lo=-300.0, x_hi=-250.0)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["trajectories", "--config", str(config_path), "--out", str(out_dir)]) == 2
    assert "trajectories.x_lo" in capsys.readouterr().err
    assert list(out_dir.glob("*.csv")) == []
    assert not (out_dir / "manifest.json").exists()


def test_arrival_run_summary_monotone(tmp_path):
    config = parse_config(json.dumps(small_config("arrival", epsilons=[1.0, 0.1, 0.01])))
    manifest = run_experiment(replace(config, out_dir=str(tmp_path)))
    assert "arrival_summary.csv" in manifest["outputs"]
    header, table = read_table(tmp_path / "arrival_summary.csv")
    assert header[0] == "epsilon [1]"
    assert table.shape == (3, 5)
    assert np.all(np.diff(table[:, 1]) < 0.0)  # mean_t_pure decreasing
    assert np.all(np.diff(table[:, 3]) < 0.0)  # mean_t_mixed decreasing


def test_observables_run_columns(tmp_path):
    config = parse_config(
        json.dumps(small_config("observables", epsilons=[1.0], time={"t_max": 4.0, "n_times": 3}))
    )
    run_experiment(replace(config, out_dir=str(tmp_path)))
    header, table = read_table(tmp_path / "observables_eps1.csv")
    assert len(header) == 1 + 2 * 7
    assert table.shape == (3, 15)
    margins = table[:, 7]  # heisenberg_margin_pure
    assert np.all(margins >= -1e-9)


def test_observables_run_streams_blocks_of_times(monkeypatch):
    # The times come a block of at most FIELD_BLOCK_POINTS at a time, with one
    # observable_record call per kind and block, so a run holds one block's
    # records, not the whole series; the blocks change no value.
    import qctl.ensembles as ensembles
    import qctl.runner as runner

    config = parse_config(json.dumps(small_config("observables", epsilons=[1.0])))
    specs = [config.ensemble(kind) for kind in ("pure", "mixed")]
    name, header, blocks = next(runner._observables(config, specs, {}))
    whole = [values for _, _, values in blocks]
    calls = []
    record = runner.observable_record

    def spy(spec, regime, t):
        calls.append((spec.kind, len(t)))
        return record(spec, regime, t)

    monkeypatch.setattr(runner, "observable_record", spy)
    monkeypatch.setattr(ensembles, "FIELD_BLOCK_POINTS", 2)
    name, header, blocks = next(runner._observables(config, specs, {}))
    blocks = list(blocks)
    assert calls == [(kind, n) for n in (2, 2, 1) for kind in ("pure", "mixed")]
    assert [values.shape for _, _, values in blocks] == [(2, len(header))] * 2 + [(1, len(header))]
    assert all(head == "" and len(rows) == len(values) for head, rows, values in blocks)
    assert len(whole) == 1
    assert np.array_equal(np.concatenate([values for _, _, values in blocks]), whole[0])


def test_density_run_streams_blocks_of_positions(monkeypatch):
    # Each time's rows come a block of at most FIELD_BLOCK_POINTS positions at
    # a time, each evaluated as it is written, with row templates built once
    # per run and shared by every time.
    import qctl.ensembles as ensembles
    import qctl.runner as runner

    monkeypatch.setattr(ensembles, "FIELD_BLOCK_POINTS", 400)
    config = parse_config(json.dumps(small_config("density", epsilons=[1.0])))
    specs = [config.ensemble(kind) for kind in ("pure", "mixed")]
    name, header, blocks = next(runner._density(config, specs, {}))
    blocks = list(blocks)
    assert [(len(rows), len(values)) for _, rows, values in blocks[:3]] == [
        (400, 400), (400, 400), (225, 225)]
    assert len(blocks) == 3 * config.time.n_times
    # The same template objects at every time.
    templates = [[id(row) for _, rows, _ in blocks[k : k + 3] for row in rows]
                 for k in range(0, len(blocks), 3)]
    assert len(templates[0]) == config.grid.n_points == len(set(templates[0]))
    assert all(ids == templates[0] for ids in templates)


@pytest.mark.parametrize("block", [7, 10**9])
def test_field_blocks_do_not_change_the_csvs(block, tmp_path, monkeypatch):
    # Every point is evaluated on its own, so the block size changes no byte.
    # The grids straddle a block of 7: one block, one and a point, three and a point.
    import qctl.ensembles as ensembles

    def csvs(out_dir):
        for n_points in (64, 70):
            doc = small_config("density", grid={"x_min": -60.0, "n_points": n_points})
            target = {"out_dir": str(out_dir / f"density{n_points}")}
            run_experiment(parse_config(json.dumps(doc), target))
        for n_points in (7, 8, 22):
            doc = small_config("arrival", arrival={"t_max": 40.0, "n_points": n_points})
            target = {"out_dir": str(out_dir / f"arrival{n_points}")}
            run_experiment(parse_config(json.dumps(doc), target))
        return {p.relative_to(out_dir): p.read_bytes() for p in sorted(out_dir.rglob("*.csv"))}

    default = csvs(tmp_path / "default")
    monkeypatch.setattr(ensembles, "FIELD_BLOCK_POINTS", block)
    assert csvs(tmp_path / "patched") == default
    assert len(default) == 2 * 2 + 3 * 3


@pytest.mark.parametrize(
    "settings, path",
    [
        ({"x_lo": -5.00001, "x_hi": -5.0, "n_seeds": 3}, "trajectories.n_seeds"),
        ({"seeding": "born", "x_lo": -5.00001, "x_hi": -5.0, "n_seeds": 3}, "trajectories.n_seeds"),
        ({"seeds": [-5.0000011, -5.000001]}, "trajectories.seeds"),
    ],
)
def test_cli_rejects_seeds_sharing_a_column_name(settings, path, tmp_path, capsys, monkeypatch):
    # Trajectory columns name each seed in 6 significant digits; seeds that
    # share a name exit 2 before any trajectory is integrated or CSV written.
    import qctl.runner as runner

    def unreachable(*args, **kwargs):
        raise AssertionError("integrated seeds that share a column name")

    monkeypatch.setattr(runner, "trajectory_fans", unreachable)
    doc = small_config("trajectories")
    doc["trajectories"].update(settings)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["trajectories", "--config", str(config_path), "--out", str(out_dir)]) == 2
    assert f"config error: {path}: pure seeds at epsilon 1 share the CSV column names ['-5" in (
        capsys.readouterr().err)
    assert list(out_dir.glob("*")) == []


def test_observables_run_is_not_renormalized_by_the_grid(tmp_path):
    # On the README default grid (x_min = -60) about 3% of the mass has left
    # by t = 20 at eps = 1; the moments must still be those of the whole state.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Configuration", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    config_path = tmp_path / "config.json"
    config_path.write_text(block)
    out_dir = tmp_path / "out"
    assert main(["observables", "--config", str(config_path), "--out", str(out_dir)]) == 0
    header, table = read_table(out_dir / "observables_eps1.csv")
    row = table[table[:, 0] == 20.0][0]
    mean_x = row[header.index("mean_x_pure [length]")]
    sd_x = row[header.index("sd_x_pure [length]")]

    spec = parse_config(block).ensemble("pure")
    x = np.linspace(-400.0, 0.0, 400_001)
    rho = position_densities([spec], make_regime(1.0), x, 20.0)[0]
    mean_ref = quad_integrate(x, x * rho)
    sd_ref = np.sqrt(quad_integrate(x, (x - mean_ref) ** 2 * rho))
    assert mean_ref == pytest.approx(-35.022013, abs=1e-6)
    assert sd_ref == pytest.approx(14.122982, abs=1e-6)
    assert mean_x == pytest.approx(mean_ref, rel=1e-6)
    assert sd_x == pytest.approx(sd_ref, rel=1e-6)


def test_wigner_run_table(tmp_path):
    config = parse_config(json.dumps(small_config("wigner", epsilons=[1.0])))
    manifest = run_experiment(replace(config, out_dir=str(tmp_path)))
    # One time: the 10 distinct term pairs of both kinds, on the 40 rows R < 0.
    assert manifest["diagnostics"]["wigner"] == {"1": {"pair_integrals": 10, "points": 40 * 41}}
    header, table = read_table(tmp_path / "wigner_eps1.csv")
    assert header == [
        "t [time]",
        "R [length]",
        "u [momentum]",
        "w_pure [1/action]",
        "w_mixed [1/action]",
    ]
    assert table.shape == (41 * 41, 5)
    total = np.sum(table[:, 3]) * (25.0 / 40) * (12.0 / 40)
    assert total == pytest.approx(1.0, abs=5e-3)


def raise_after(blocks, exc):
    """``blocks``, then ``exc`` raised in the writer that consumes them."""
    yield from blocks
    raise exc


@pytest.mark.parametrize("run_kind", RUN_KINDS)
def test_partial_outputs_removed_on_failure(tmp_path, monkeypatch, run_kind):
    import qctl.runner as runner

    handed = []
    run = runner._RUNS[run_kind]

    def explode_on_second(config, specs, diagnostics):
        # The second CSV is written whole, then its writer fails.  The run
        # ends there: the parent takes the next file before it waits for a
        # writer, so a third file would be handed out on any CPU count.
        for name, header, blocks in run(config, specs, diagnostics):
            handed.append(name)
            if len(handed) == 2:
                yield name, header, raise_after(blocks, RuntimeError("boom"))
                return
            yield name, header, blocks

    # A successful run first: its manifest must not outlive the failed rerun.
    earlier = small_config("arrival", epsilons=[1.0], out_dir=str(tmp_path))
    earlier = run_experiment(parse_config(json.dumps(earlier)))["outputs"]
    assert (tmp_path / "manifest.json").exists()
    monkeypatch.setitem(runner._RUNS, run_kind, explode_on_second)
    config = parse_config(json.dumps(small_config(run_kind)))
    with pytest.raises(RuntimeError, match="^boom$"):
        run_experiment(replace(config, out_dir=str(tmp_path)))
    assert len(handed) == 2
    # Every CSV of the failed run is gone; the earlier CSVs it did not rewrite stay.
    kept = [name for name in earlier if not name.startswith(f"{run_kind}_eps")]
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == kept
    assert not (tmp_path / "manifest.json").exists()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_writer_outlives_the_run(tmp_path, monkeypatch):
    # After a run, and after a run whose first writer fails while the second
    # would sleep for a minute: that one is killed, not waited for.
    import qctl.runner as runner

    config = parse_config(json.dumps(small_config("density", out_dir=str(tmp_path))))
    manifest = run_experiment(config)
    assert_no_child_left()
    assert sorted(manifest["writers"]) == manifest["outputs"]
    for usage in manifest["writers"].values():
        assert usage["cpu_s"] >= 0.0 and usage["peak_rss_mb"] > 0.0

    def sleeper(blocks):
        time.sleep(60.0)
        yield from blocks

    def first_fails(config, specs, diagnostics):
        files = runner._density(config, specs, diagnostics)
        name, header, blocks = next(files)
        yield name, header, raise_after(blocks, NumericalGuardError("first"))
        for name, header, blocks in files:
            yield name, header, sleeper(blocks)

    monkeypatch.setitem(runner._RUNS, "density", first_fails)
    started = time.monotonic()
    with pytest.raises(NumericalGuardError, match="^first$"):
        run_experiment(config)
    assert time.monotonic() - started < 30.0
    assert_no_child_left()
    assert list(tmp_path.glob("*.csv")) == []


def test_no_writer_is_forked_after_a_failure(tmp_path, monkeypatch):
    # On one CPU each writer is reaped before the next is forked, so the
    # second file's failure is seen before a writer of the third is forked.
    import qctl.runner as runner

    run = runner._RUNS["arrival"]

    def second_fails(config, specs, diagnostics):
        for index, (name, header, blocks) in enumerate(run(config, specs, diagnostics)):
            yield name, header, raise_after(blocks, RuntimeError("boom")) if index == 1 else blocks

    forked = []
    fork_writer = runner._fork_writer

    def counted(path, header, blocks):
        forked.append(path.name)
        return fork_writer(path, header, blocks)

    monkeypatch.setitem(runner._RUNS, "arrival", second_fails)
    monkeypatch.setattr(runner, "_fork_writer", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    config = parse_config(json.dumps(small_config("arrival", out_dir=str(tmp_path))))
    with pytest.raises(RuntimeError, match="^boom$"):
        run_experiment(config)
    assert len(forked) == 2
    assert list(tmp_path.glob("*")) == []
    assert_no_child_left()


@pytest.mark.parametrize("second", ["writer", "parent"])
def test_the_earliest_file_failure_is_raised(tmp_path, monkeypatch, second):
    # The first file's writer fails last.  The second file's writer, or the
    # parent as it takes the second file, fails first.  The run raises the
    # first file's failure, as one process writing the files in order would.
    import qctl.runner as runner

    def slow_failure(blocks):
        yield from blocks
        time.sleep(0.5)
        raise NumericalGuardError("first")

    def failing(config, specs, diagnostics):
        files = runner._density(config, specs, diagnostics)
        name, header, blocks = next(files)
        yield name, header, slow_failure(blocks)
        name, header, blocks = next(files)
        if second == "parent":
            raise OSError(errno.EIO, "second")
        yield name, header, raise_after(blocks, OSError(errno.EIO, "second"))

    monkeypatch.setitem(runner._RUNS, "density", failing)
    config = parse_config(json.dumps(small_config("density", out_dir=str(tmp_path))))
    with pytest.raises(NumericalGuardError, match="^first$"):
        run_experiment(config)
    assert list(tmp_path.glob("*")) == []
    assert_no_child_left()


# The CLI, its wigner writers stalled before their first block.
STALLED_WIGNER_CLI = """
import sys, time
import qctl.runner as runner
from qctl.cli import main

def stalled(blocks):
    time.sleep(60.0)
    yield from blocks

def wigner(config, specs, diagnostics):
    for name, header, blocks in runner._wigner(config, specs, diagnostics):
        yield name, header, stalled(blocks)

runner._RUNS["wigner"] = wigner
sys.exit(main(sys.argv[1:]))
"""


def test_cli_sigterm_leaves_no_writer_and_no_csv(tmp_path):
    # SIGTERM sent to the CLI alone, as `timeout` sends it, while its writers
    # run: they are killed, their CSVs removed, and the CLI exits 128 + 15.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config("wigner")))
    out_dir = tmp_path / "out"
    command = [sys.executable, "-c", STALLED_WIGNER_CLI, "wigner",
               "--config", str(config_path), "--out", str(out_dir)]
    src = str(Path(qctl.__file__).parents[1])
    # A session of its own, so that its process group holds the CLI and its writers.
    cli = subprocess.Popen(command, env={**os.environ, "PYTHONPATH": src}, start_new_session=True)
    try:
        opened = min(2, len(os.sched_getaffinity(0)))
        deadline = time.monotonic() + 30.0
        while len(list(out_dir.glob("*.csv"))) < opened and time.monotonic() < deadline:
            time.sleep(0.05)
        assert len(list(out_dir.glob("*.csv"))) == opened
        cli.send_signal(signal.SIGTERM)
        assert cli.wait(timeout=30.0) == 128 + signal.SIGTERM
        with pytest.raises(ProcessLookupError):
            os.killpg(cli.pid, 0)
        assert list(out_dir.glob("*")) == []
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(cli.pid, signal.SIGKILL)
        cli.wait()


def test_cli_writer_io_error_exit_code(tmp_path, capsys, monkeypatch):
    # An OSError in a writer, such as a full disk, exits 4 as in the parent.
    import qctl.runner as runner

    def disk_full(config, specs, diagnostics):
        for name, header, blocks in runner._density(config, specs, diagnostics):
            yield name, header, raise_after(blocks, OSError(errno.ENOSPC, "No space left on device"))

    monkeypatch.setitem(runner._RUNS, "density", disk_full)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config("density")))
    out_dir = tmp_path / "out"
    assert main(["density", "--config", str(config_path), "--out", str(out_dir)]) == 4
    assert "I/O error: [Errno 28] No space left on device" in capsys.readouterr().err
    assert list(out_dir.glob("*")) == []
    assert_no_child_left()


class TwoArgumentError(Exception):
    # Pickles, but cannot be rebuilt from its args, which hold one string.
    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def test_error_classes_survive_a_pickle_round_trip():
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)]
    assert {c.__name__ for c in classes} >= {"ConfigError", "DomainError", "NumericalGuardError"}
    for cls in classes:
        exc = cls("trajectories.dt", "must be positive") if cls is errors.ConfigError else cls("boom")
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is cls
        assert (str(copy), copy.args) == (str(exc), exc.args)
        assert getattr(copy, "path", None) == getattr(exc, "path", None)


@pytest.mark.parametrize("local", [True, False])
def test_writer_failure_that_cannot_be_rebuilt(tmp_path, monkeypatch, local):
    # An exception that cannot be pickled, or rebuilt, arrives as a
    # RuntimeError carrying the writer's traceback text.
    import qctl.runner as runner

    class LocalError(Exception):
        pass

    exc = LocalError("unpicklable") if local else TwoArgumentError("what", "why")

    def failing(config, specs, diagnostics):
        for name, header, blocks in runner._density(config, specs, diagnostics):
            yield name, header, raise_after(blocks, exc)

    monkeypatch.setitem(runner._RUNS, "density", failing)
    config = parse_config(json.dumps(small_config("density", out_dir=str(tmp_path))))
    with pytest.raises(RuntimeError, match="the writer of density_eps.* failed") as raised:
        run_experiment(config)
    assert type(exc).__name__ in str(raised.value) and "raise_after" in str(raised.value)
    assert list(tmp_path.glob("*.csv")) == []
    assert_no_child_left()


def test_writer_failure_larger_than_a_pipe_buffer(tmp_path, monkeypatch):
    # A 1 MB message fills the pipe many times over, so it must be read while
    # the writer sends it.  Were it not, the alarm would end the test run.
    import qctl.runner as runner

    message = "x" * 2**20

    def failing(config, specs, diagnostics):
        for name, header, blocks in runner._density(config, specs, diagnostics):
            yield name, header, raise_after(blocks, NumericalGuardError(message))

    monkeypatch.setitem(runner._RUNS, "density", failing)
    config = parse_config(json.dumps(small_config("density", out_dir=str(tmp_path))))
    signal.alarm(60)
    try:
        with pytest.raises(NumericalGuardError) as raised:
            run_experiment(config)
    finally:
        signal.alarm(0)
    assert str(raised.value) == message
    assert_no_child_left()


@pytest.mark.parametrize("run_kind", RUN_KINDS)
def test_one_cpu_writes_the_same_csvs(tmp_path, monkeypatch, run_kind):
    def csvs(out_dir):
        run_experiment(parse_config(json.dumps(small_config(run_kind, out_dir=str(out_dir)))))
        return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}

    default = csvs(tmp_path / "default")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert csvs(tmp_path / "one") == default
    assert len(default) == (3 if run_kind == "arrival" else 2)


def test_manifest_contents(tmp_path):
    config = parse_config(json.dumps(small_config("density", epsilons=[0.5])))
    manifest = run_experiment(replace(config, out_dir=str(tmp_path)))
    stored = json.loads((tmp_path / "manifest.json").read_text())
    assert stored["config"]["epsilons"] == [0.5]
    assert stored["outputs"] == manifest["outputs"]
    drift = stored["diagnostics"]["trace"]["0.5"]["pure"]
    assert drift["trace_t0"] == pytest.approx(1.0, abs=1e-6)
    assert drift["trace_t_end"] == pytest.approx(1.0, abs=1e-6)
    assert stored["wall_clock_seconds"] >= 0.0


def test_cli_density_run(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config("density", epsilons=[0.5])))
    out_dir = tmp_path / "out"
    code = main(["density", "--config", str(config_path), "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "density_eps0.5.csv").exists()


def test_cli_epsilon_override(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config("density")))
    out_dir = tmp_path / "out"
    code = main(["density", "--config", str(config_path), "--epsilon", "0.25", "--out", str(out_dir)])
    assert code == 0
    assert sorted(p.name for p in out_dir.glob("*.csv")) == ["density_eps0.25.csv"]


def test_cli_config_error_exit_code(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config("density", detector_x=5.0)))
    assert main(["density", "--config", str(config_path)]) == 2
    assert main(["density", "--config", str(tmp_path / "missing.json")]) == 2
    config_path.write_text(json.dumps(small_config("density")))
    assert main(["density", "--config", str(config_path), "--epsilon", "7.0"]) == 2


def test_cli_flags_are_validated_as_the_keys_they_replace(tmp_path, capsys, monkeypatch):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config("density", epsilons=[0.5])))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(["density", "--config", str(config_path), "--epsilon", "7"]) == 2
    assert "config error: epsilons[0]: must be in (0, 1]" in capsys.readouterr().err
    assert main(["density", "--config", str(config_path), "--out", ""]) == 2
    assert "config error: out_dir: must be non-empty" in capsys.readouterr().err
    assert list(work.iterdir()) == []


def test_cli_manifest_echoes_the_flags(tmp_path, monkeypatch):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config("density", time={"t_max": 7.0, "n_times": 2})))
    monkeypatch.chdir(tmp_path)
    assert main(["observables", "--config", str(config_path), "--epsilon", "0.5", "--out",
                 "results"]) == 0
    echoed = json.loads((tmp_path / "results" / "manifest.json").read_text())["config"]
    assert (echoed["run"], echoed["epsilons"], echoed["out_dir"]) == (
        "observables", [0.5], "results")


@pytest.mark.parametrize(
    "section, key, literal",
    [("time", "t_max", "Infinity"), ("trajectories", "t_end", "1e400"), ("grid", "x_min", "-Infinity")],
)
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, section, key, literal):
    doc = small_config("observables", epsilons=[1.0])
    doc[section][key] = "PLACEHOLDER"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc).replace('"PLACEHOLDER"', literal))
    out_dir = tmp_path / "out"
    assert main(["observables", "--config", str(config_path), "--out", str(out_dir)]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err
    assert list(out_dir.glob("*.csv")) == []


def test_cli_numerical_guard_exit_code(tmp_path):
    # A detector far behind both packets sees no current within a short
    # window, which trips the arrival normalization guard.
    doc = small_config("arrival", detector_x=-55.0, arrival={"t_max": 1.0, "n_points": 101})
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["arrival", "--config", str(config_path), "--out", str(out_dir)]) == 3
    assert list(out_dir.glob("*.csv")) == []


def huge_kick(kind, p0, tmp_path, **trajectories):
    """The CLI's exit code on a one-epsilon config kicking packet a by ``p0``, and
    that config with the kick set after loading, which no load-time check sees."""
    doc = small_config(kind, epsilons=[1.0], grid={"x_min": -60.0, "n_points": 64})
    doc["trajectories"].update(trajectories)
    doc["packets"]["a"]["p0"] = p0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    code = main([kind, "--config", str(config_path), "--out", str(tmp_path / "cli")])
    assert list((tmp_path / "cli").glob("*.csv")) == []
    doc["packets"]["a"]["p0"] = -2.0
    config = parse_config(json.dumps(doc))
    return code, replace(config, packets=replace(config.packets, a=replace(config.packets.a, p0=p0)))


@pytest.mark.parametrize("kind", ["density", "arrival", "observables", "trajectories"])
def test_cli_non_finite_fields_trip_the_guard(kind, tmp_path, capsys):
    # The loader rejects this kick, whose packet phase overflows.  Run anyway,
    # the fields are not finite and trip the guards.  The trajectory run's
    # seeds stall on finite steps far below H_MIN (the velocity is about
    # 5e154), and it trips the guard of the manifest's trace diagnostic,
    # whose exact mass is not finite.
    code, config = huge_kick(kind, 1e155, tmp_path)
    assert code == 2
    assert "config error: packets.a.p0: packet phase inf rad" in capsys.readouterr().err
    with np.errstate(all="ignore"), pytest.raises(NumericalGuardError):
        run_experiment(replace(config, out_dir=str(tmp_path / "out")))
    assert list((tmp_path / "out").glob("*.csv")) == []


def test_cli_non_finite_trajectory_seeds_trip_the_guard(tmp_path, capsys):
    # The loader rejects this kick.  Run anyway, the first step of packet b's
    # seeds is not finite, so they stall as non-finite and the run stops
    # before it writes a CSV.
    code, config = huge_kick("trajectories", 1e300, tmp_path, x_lo=-18.0, x_hi=-2.0, n_seeds=20)
    assert code == 2
    assert "config error: packets.a.p0" in capsys.readouterr().err
    message = "seeds at epsilon 1 stalled on a density or step that is not finite"
    with np.errstate(all="ignore"), pytest.raises(NumericalGuardError, match=message):
        run_experiment(replace(config, out_dir=str(tmp_path / "out")))
    assert list((tmp_path / "out").glob("*.csv")) == []


def test_cli_collapsing_steps_stall_with_their_own_status(tmp_path, capsys, monkeypatch):
    # The loader rejects this kick, whose phase has no correct digit.  Run
    # anyway, the fields and steps stay finite, but the velocity is about
    # 5e149, so the starting steps are 1e-132 to 0 and every seed stalls
    # below H_MIN within 8 evaluator calls, with no stage density below the
    # floor.  The seeds stall as collapsed steps, not as density nodes; the
    # run writes both fans stalled.
    import qctl.runner as runner

    code, config = huge_kick("trajectories", 1e150, tmp_path, t_end=15.0, x_lo=-18.0, x_hi=-2.0,
                             n_seeds=20)
    assert code == 2
    assert "config error: packets.a.p0: packet phase 2e+301 rad" in capsys.readouterr().err
    fans = []
    integrate = runner.trajectory_fans

    def recorded(*args, **kwargs):
        fans.append(integrate(*args, **kwargs))
        return fans[-1]

    monkeypatch.setattr(runner, "trajectory_fans", recorded)
    with np.errstate(all="ignore"):
        manifest = run_experiment(replace(config, out_dir=str(tmp_path / "out")))
    (cohort, loop), = fans
    assert [tr.status for fan in cohort for tr in fan] == ["stalled-step-collapse"] * 40
    assert loop["evaluator_calls"] <= 8
    assert manifest["diagnostics"]["stalled_eps1"] == {"pure": 20, "mixed": 20}


def test_legacy_wigner_window_keys_do_not_change_output(tmp_path):
    outputs = []
    for extra in ({}, {"rel_span": 0.5, "n_rel": 9}):
        doc = small_config("wigner")
        doc["wigner"].update(extra)
        out_dir = tmp_path / f"out{len(outputs)}"
        run_experiment(parse_config(json.dumps(doc), {"out_dir": str(out_dir)}))
        outputs.append({p.name: p.read_bytes() for p in out_dir.glob("*.csv")})
    assert len(outputs[0]) == 2
    assert outputs[0] == outputs[1]


def default_arrival_manifest(tmp_path):
    doc = {
        "run": "arrival",
        "epsilons": [1.0],
        "packets": {"a": {"x0": -5.0, "p0": -2.0}, "b": {"x0": -15.0, "p0": 2.0}},
    }
    return run_experiment(parse_config(json.dumps(doc), {"out_dir": str(tmp_path)}))


def test_manifest_flags_truncated_arrival_window(tmp_path):
    # The default window (t_max = 40) cuts off the slow quantum tail at eps = 1.
    tails = default_arrival_manifest(tmp_path)["diagnostics"]["arrival_tail"]["1"]
    assert tails["pure"]["tail_fraction"] == pytest.approx(0.040, abs=0.002)
    assert tails["mixed"]["tail_fraction"] == pytest.approx(0.037, abs=0.002)
    assert tails["pure"]["tail_flagged"] and tails["mixed"]["tail_flagged"]


def test_manifest_flags_support_lost_beyond_grid(tmp_path):
    # The default grid (x_min = -60) loses about 3% of the mass by t = 20 at eps = 1.
    trace = default_arrival_manifest(tmp_path)["diagnostics"]["trace"]["1"]
    for kind in ("pure", "mixed"):
        assert trace[kind]["support_loss"] == pytest.approx(0.033, abs=0.002)
        assert trace[kind]["support_loss_flagged"]
    config = parse_config(json.dumps(small_config("density", epsilons=[1.0])))
    small = run_experiment(replace(config, out_dir=str(tmp_path / "small")))
    small = small["diagnostics"]["trace"]["1"]
    assert not small["pure"]["support_loss_flagged"]
    assert not small["mixed"]["support_loss_flagged"]


def test_trace_is_exact_and_reads_only_x_min(tmp_path):
    traces = []
    for n_points in (64, 1025):
        doc = small_config("observables", epsilons=[1.0], grid={"x_min": -30.0, "n_points": n_points})
        target = {"out_dir": str(tmp_path / str(n_points))}
        manifest = run_experiment(parse_config(json.dumps(doc), target))
        traces.append(manifest["diagnostics"]["trace"]["1"])
    assert traces[0] == traces[1]
    config = parse_config(json.dumps(doc))
    for kind in ("pure", "mixed"):
        lost = mass_below(config.ensemble(kind), make_regime(1.0), config.time.t_max, -30.0)
        assert traces[0][kind]["support_loss"] == lost
        assert traces[0][kind]["trace_t_end"] == pytest.approx(1.0 - lost, abs=1e-15)
        assert traces[0][kind]["support_loss_flagged"]


def test_non_finite_trace_trips_the_guard(tmp_path, monkeypatch):
    import qctl.runner as runner

    monkeypatch.setattr(runner, "mass_below", lambda *args: np.array([np.nan, 1.0]))
    config = parse_config(json.dumps(small_config("arrival", epsilons=[1.0])))
    with pytest.raises(NumericalGuardError, match="trace"):
        run_experiment(replace(config, out_dir=str(tmp_path)))
    assert list(tmp_path.glob("*.csv")) == []
    assert not (tmp_path / "manifest.json").exists()


def test_cli_io_error_exit_code(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config("density", epsilons=[0.5])))
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file, not a directory\n")
    out_dir = blocker / "out"
    assert main(["density", "--config", str(config_path), "--out", str(out_dir)]) == 4
    assert "I/O error" in capsys.readouterr().err
