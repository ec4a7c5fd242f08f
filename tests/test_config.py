import json
import math
from pathlib import Path

import pytest

from qctl import ConfigError, parse_config, serialize_config
from qctl.config import (
    ARRIVAL_POINT_BUDGET,
    DENSITY_ROW_BUDGET,
    GRID_POINT_BUDGET,
    TRAJECTORY_SAMPLE_BUDGET,
    WIGNER_POINT_BUDGET,
)
from qctl.hydrodynamics import record_times

MINIMAL = json.dumps(
    {"packets": {"a": {"x0": -5.0, "p0": -2.0}, "b": {"x0": -15.0, "p0": 2.0}}}
)

FULL = json.dumps(
    {
        "run": "arrival",
        "out_dir": "results",
        "epsilons": [1.0, 0.1, 0.01],
        "hbar": 1.0,
        "mass": 1.0,
        "packets": {
            "sigma0": 1.0,
            "a": {"x0": -5.0, "p0": -2.0},
            "b": {"x0": -15.0, "p0": 2.0},
        },
        "grid": {"x_min": -60.0, "n_points": 2048},
        "time": {"t_max": 20.0, "n_times": 41},
        "detector_x": -30.0,
        "trajectories": {
            "t_end": 15.0,
            "dt": 0.001,
            "seeding": "born",
            "n_seeds": 12,
            "x_lo": -18.0,
            "x_hi": -2.0,
            "seeds": None,
            "record_every": 5,
        },
        "arrival": {"t_max": 40.0, "n_points": 4001},
        "wigner": {
            "times": [0.0, 7.0],
            "x_min": -40.0,
            "n_x": 81,
            "u_max": 8.0,
            "n_u": 81,
            "rel_span": 12.0,
            "n_rel": None,
        },
    }
)


def test_minimal_document_gets_defaults():
    config = parse_config(MINIMAL)
    assert config.run_kind == "density"
    assert config.trajectories.dt == 1e-3
    assert config.grid.n_points == 2048
    assert config.grid.x_min == -60.0
    assert config.epsilons == (1.0, 0.5, 0.1, 0.01)
    assert config.arrival.n_points == 4001
    assert config.packet_a.x0 == -5.0
    assert config.packet_b.p0 == 2.0


def test_round_trip():
    config = parse_config(FULL)
    assert parse_config(serialize_config(config)) == config


def test_minimal_round_trip():
    config = parse_config(MINIMAL)
    assert parse_config(serialize_config(config)) == config


@pytest.mark.parametrize(
    "mutation, path_fragment",
    [
        ({"run": "spectra"}, "run"),
        ({"epsilons": [0.0]}, "epsilons[0]"),
        ({"epsilons": [2.0]}, "epsilons[0]"),
        ({"epsilons": [0.5, 0.5]}, "epsilons"),
        ({"epsilons": []}, "epsilons"),
        ({"hbar": -1.0}, "epsilons[0]"),
        ({"mass": 0.0}, "mass"),
        ({"detector_x": 3.0}, "detector_x"),
        ({"grid": {"x_min": -16.0}}, "grid.x_min"),
        ({"grid": {"n_points": 32}}, "grid.n_points"),
        ({"time": {"t_max": -2.0}}, "time.t_max"),
        ({"unknown_section": 1}, "unknown_section"),
        ({"trajectories": {"dt": 0.0}}, "trajectories.dt"),
        ({"trajectories": {"seeds": [-5.0, -7.0]}}, "trajectories.seeds"),
        ({"trajectories": {"seeds": [-5.0, 5.0]}}, "trajectories.seeds"),
        ({"trajectories": {"seeding": "sobol"}}, "trajectories.seeding"),
        ({"trajectories": {"typo": 1}}, "trajectories.typo"),
        ({"arrival": {"n_points": 2}}, "arrival.n_points"),
        ({"wigner": {"times": []}}, "wigner.times"),
        ({"wigner": {"times": [-1.0]}}, "wigner.times[0]"),
        ({"wigner": {"u_max": -1.0}}, "wigner.u_max"),
        ({"packets": {"a": {"x0": -1.0, "p0": 0.0}, "b": {"x0": -15.0, "p0": 2.0}}}, "packets.a"),
        ({"wigner": {"n_x": 5}}, "wigner.n_x"),
        ({"wigner": {"n_u": 5}}, "wigner.n_u"),
        ({"trajectories": {"t_end": 1.0005, "dt": 0.001}}, "trajectories.t_end"),
        ({"wigner": {"rel_span": 0.0}}, "wigner.rel_span"),
        ({"wigner": {"n_rel": 4}}, "wigner.n_rel"),
        ({"trajectories": {"t_end": math.inf}}, "trajectories.t_end"),
        ({"time": {"t_max": math.inf}}, "time.t_max"),
        ({"epsilons": [1.0, math.nan]}, "epsilons[1]"),
        ({"wigner": {"times": [0.0, math.inf]}}, "wigner.times[1]"),
        ({"trajectories": {"seeds": [-5.0, math.nan]}}, "trajectories.seeds[1]"),
        ({"packets": {"a": {"x0": -5.0, "p0": math.nan}, "b": {"x0": -15.0, "p0": 2.0}}}, "packets.a.p0"),
        ({"packets": {"sigma0": math.inf, "a": {"x0": -5.0, "p0": -2.0}, "b": {"x0": -15.0, "p0": 2.0}}}, "packets.sigma0"),
        ({"mass": math.nan}, "mass"),
        ({"grid": {"x_min": -math.inf}}, "grid.x_min"),
        ({"wigner": {"u_max": math.inf}}, "wigner.u_max"),
        ({"detector_x": -(10**400)}, "detector_x"),
    ],
)
def test_invalid_documents_report_field_path(mutation, path_fragment):
    doc = json.loads(MINIMAL)
    doc.update(mutation)
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(doc))
    assert path_fragment in str(excinfo.value)


def test_trajectory_sample_budget():
    # A trajectory run holds epsilons x 2 kinds x seeds x recorded times
    # samples at once: every record_every-th multiple of dt, and t_end.
    # Every rejected document here fails at load time, before anything is
    # allocated.
    def load(epsilons, **trajectories):
        doc = json.loads(MINIMAL)
        doc.update(epsilons=epsilons, trajectories=trajectories)
        return parse_config(json.dumps(doc))

    assert TRAJECTORY_SAMPLE_BUDGET == 25_000_000
    load([1.0], n_seeds=1250, t_end=9.999, dt=0.001, record_every=1)  # exactly at the budget
    # 9981 steps keep 999 multiples of 10 dt and t_end: 1000 recorded times.
    assert len(record_times(9.981, 0.001, 10)) == 1000
    load([1.0], n_seeds=12500, t_end=9.981, dt=0.001, record_every=10)  # exactly at the budget
    every_step = {"t_end": 9.999, "dt": 0.001, "record_every": 1}
    every_tenth = {"t_end": 9.981, "dt": 0.001, "record_every": 10}
    four = [1.0, 0.5, 0.1, 0.01]
    for epsilons, settings, path in (
        ([1.0], {"n_seeds": 1251, **every_step}, "trajectories.n_seeds"),
        ([1.0], {"n_seeds": 12501, **every_tenth}, "trajectories.n_seeds"),
        (four, {"n_seeds": 10**7, "record_every": 1}, "trajectories.n_seeds"),
        (four, {"dt": 1e-7, "record_every": 1}, "trajectories.n_seeds"),
        (four, {"seeds": [-5.0, -4.0], "dt": 1e-6, "record_every": 1}, "trajectories.seeds"),
    ):
        with pytest.raises(ConfigError) as excinfo:
            load(epsilons, **settings)
        assert excinfo.value.path == path
        assert "budget" in str(excinfo.value)
    # record_every is checked before it divides the sample count.
    with pytest.raises(ConfigError) as excinfo:
        load([1.0], record_every=0)
    assert excinfo.value.path == "trajectories.record_every"


def test_wigner_point_budget():
    # One Wigner time holds n_x x n_u points; every rejected document fails
    # at load time, before anything is allocated.
    def load(**wigner):
        doc = json.loads(MINIMAL)
        doc["wigner"] = wigner
        return parse_config(json.dumps(doc))

    assert WIGNER_POINT_BUDGET == 1_000_000
    load(n_x=81, n_u=8001)  # the marginal-check grid of the acceptance suite
    load(n_x=1000, n_u=1000)  # exactly at the budget
    for settings in ({"n_x": 1000, "n_u": 1001}, {"n_x": 10**9}, {"n_u": 10**9}):
        with pytest.raises(ConfigError) as excinfo:
            load(**settings)
        assert excinfo.value.path == "wigner.n_u"
        assert "budget" in str(excinfo.value)


def test_grid_and_arrival_point_budgets():
    # Both grids are bounded at load time; nothing here is allocated.
    def load(section, n_points):
        doc = json.loads(MINIMAL)
        doc[section] = {"n_points": n_points}
        return parse_config(json.dumps(doc))

    assert (GRID_POINT_BUDGET, ARRIVAL_POINT_BUDGET) == (500_000, 500_000)
    for section, budget in (("grid", GRID_POINT_BUDGET), ("arrival", ARRIVAL_POINT_BUDGET)):
        for n_points in (budget + 1, 10**12):
            with pytest.raises(ConfigError) as excinfo:
                load(section, n_points)
            assert excinfo.value.path == f"{section}.n_points"
            assert "budget" in str(excinfo.value)


def test_density_row_budget():
    # time.n_times x grid.n_points is bounded at load time; nothing here is allocated.
    assert DENSITY_ROW_BUDGET == 20_000_000
    for n_points, n_times in ((2048, DENSITY_ROW_BUDGET // 2048 + 1), (64, 10**12)):
        doc = json.loads(MINIMAL)
        doc["grid"] = {"n_points": n_points}
        doc["time"] = {"n_times": n_times}
        with pytest.raises(ConfigError) as excinfo:
            parse_config(json.dumps(doc))
        assert excinfo.value.path == "time.n_times"
        assert "budget" in str(excinfo.value)


def test_tail_mass_guard_names_the_packet():
    doc = json.loads(MINIMAL)
    doc["grid"] = {"x_min": -17.0}
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(doc))
    assert "packet b" in str(excinfo.value)


def test_rejects_non_json():
    with pytest.raises(ConfigError):
        parse_config("not json at all {")
    with pytest.raises(ConfigError):
        parse_config("[1, 2, 3]")
    with pytest.raises(ConfigError):
        parse_config('{"hbar": ' + "9" * 5000 + "}")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_rejects_non_finite_literals(literal):
    text = MINIMAL.replace('"p0": 2.0', f'"p0": {literal}')
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert "packets.b.p0" in str(excinfo.value)


def test_readme_example_is_the_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert parse_config(block) == parse_config(MINIMAL)


def test_rejects_boolean_numbers():
    doc = json.loads(MINIMAL)
    doc["hbar"] = True
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc))


def test_regimes_and_ensembles_are_buildable():
    config = parse_config(FULL)
    regimes = config.regimes()
    assert [r.epsilon for r in regimes] == [1.0, 0.1, 0.01]
    assert config.ensemble("pure").kind == "pure"
    assert config.ensemble("mixed").packet_b == config.packet_b
    assert config.grid.points()[0] == -60.0
    assert config.grid.points()[-1] == 0.0
