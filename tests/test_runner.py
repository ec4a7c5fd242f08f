import json
from pathlib import Path

import numpy as np
import pytest

from qctl import make_regime, parse_config, position_densities, quad_integrate, run_experiment
from qctl.cli import main
from qctl.config import RUN_KINDS


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
    manifest = run_experiment(config, out_dir=tmp_path)
    assert sorted(manifest["outputs"]) == ["density_eps0.01.csv", "density_eps1.csv"]
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
    outputs = run_experiment(config, out_dir=first)["outputs"]
    assert run_experiment(config, out_dir=second)["outputs"] == outputs
    assert f"{run_kind}_eps0.5.csv" in outputs
    for name in outputs:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_trajectory_run_records_fans(tmp_path):
    config = parse_config(json.dumps(small_config("trajectories", epsilons=[1.0])))
    manifest = run_experiment(config, out_dir=tmp_path)
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
    manifest = run_experiment(parse_config(json.dumps(doc)), out_dir=tmp_path)
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
            yield np.column_stack((np.full(x.size, t_k), x, values[k]))

    def cached():
        x_fields = runner._csv_fields(x)
        for t_field, block in zip(runner._csv_fields(t), values):
            yield t_field, x_fields, block

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
    run_experiment(config, out_dir=tmp_path)
    header, _ = read_table(tmp_path / "trajectories_eps1.csv")
    seeds = [float(name.split("[")[1].split("]")[0]) for name in header[1:7]]
    assert all(b > a for a, b in zip(seeds, seeds[1:]))
    assert all(-18.0 <= s <= -2.0 for s in seeds)


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
    manifest = run_experiment(config, out_dir=tmp_path)
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
    run_experiment(config, out_dir=tmp_path)
    header, table = read_table(tmp_path / "observables_eps1.csv")
    assert len(header) == 1 + 2 * 7
    assert table.shape == (3, 15)
    margins = table[:, 7]  # heisenberg_margin_pure
    assert np.all(margins >= -1e-9)


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
    manifest = run_experiment(config, out_dir=tmp_path)
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


@pytest.mark.parametrize("run_kind", RUN_KINDS)
def test_partial_outputs_removed_on_failure(tmp_path, monkeypatch, run_kind):
    import qctl.runner as runner

    calls = {"n": 0}
    original = runner._write_csv

    def explode_on_second(path, header, blocks):
        # The second CSV is written whole, then the run fails.
        calls["n"] += 1
        original(path, header, blocks)
        if calls["n"] == 2:
            raise RuntimeError("boom")

    # A successful run first: its manifest must not outlive the failed rerun.
    earlier = small_config("arrival", epsilons=[1.0])
    earlier = run_experiment(parse_config(json.dumps(earlier)), tmp_path)["outputs"]
    assert (tmp_path / "manifest.json").exists()
    monkeypatch.setattr(runner, "_write_csv", explode_on_second)
    config = parse_config(json.dumps(small_config(run_kind)))
    with pytest.raises(RuntimeError):
        run_experiment(config, out_dir=tmp_path)
    assert calls["n"] == 2
    # Every CSV of the failed run is gone; the earlier CSVs it did not rewrite stay.
    kept = [name for name in earlier if not name.startswith(f"{run_kind}_eps")]
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == kept
    assert not (tmp_path / "manifest.json").exists()


def test_manifest_contents(tmp_path):
    config = parse_config(json.dumps(small_config("density", epsilons=[0.5])))
    manifest = run_experiment(config, out_dir=tmp_path)
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


def test_legacy_wigner_window_keys_do_not_change_output(tmp_path):
    outputs = []
    for extra in ({}, {"rel_span": 0.5, "n_rel": 9}):
        doc = small_config("wigner")
        doc["wigner"].update(extra)
        out_dir = tmp_path / f"out{len(outputs)}"
        run_experiment(parse_config(json.dumps(doc)), out_dir=out_dir)
        outputs.append({p.name: p.read_bytes() for p in out_dir.glob("*.csv")})
    assert len(outputs[0]) == 2
    assert outputs[0] == outputs[1]


def default_arrival_manifest(tmp_path):
    doc = {
        "run": "arrival",
        "epsilons": [1.0],
        "packets": {"a": {"x0": -5.0, "p0": -2.0}, "b": {"x0": -15.0, "p0": 2.0}},
    }
    return run_experiment(parse_config(json.dumps(doc)), out_dir=tmp_path)


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
    small = run_experiment(config, out_dir=tmp_path / "small")["diagnostics"]["trace"]["1"]
    assert not small["pure"]["support_loss_flagged"]
    assert not small["mixed"]["support_loss_flagged"]


def test_cli_io_error_exit_code(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(small_config("density", epsilons=[0.5])))
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file, not a directory\n")
    out_dir = blocker / "out"
    assert main(["density", "--config", str(config_path), "--out", str(out_dir)]) == 4
    assert "I/O error" in capsys.readouterr().err
