import json
import math
from dataclasses import fields
from pathlib import Path

import pytest

from qctl import ConfigError, DomainError, make_regime, parse_config
from qctl.cli import main
from qctl.config import (
    DENSITY_ROW_BUDGET,
    GRID_POINT_BUDGET,
    RUN_KINDS,
    TIME_POINT_BUDGET,
    TRAJECTORY_SAMPLE_BUDGET,
    WIGNER_POINT_BUDGET,
    ExperimentConfig,
    config_to_dict,
    load_config,
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


# A mutation value that removes its key from the document.
ABSENT = object()


def test_round_trip():
    config = parse_config(FULL)
    assert parse_config(json.dumps(config_to_dict(config))) == config
    # The manifest's echo: the document keys in field order, the run kind
    # second, and as JSON the full document with each packet's width filled in.
    echo = config_to_dict(config)
    assert list(echo) == [f.metadata.get("key", f.name) for f in fields(ExperimentConfig)]
    assert list(echo)[1] == "run"
    expected = json.loads(FULL)
    for packet in ("a", "b"):
        expected["packets"][packet]["sigma0"] = expected["packets"]["sigma0"]
    assert json.loads(json.dumps(echo)) == expected


def test_minimal_round_trip():
    config = parse_config(MINIMAL)
    assert parse_config(json.dumps(config_to_dict(config))) == config


def test_round_trip_keeps_a_packet_width_of_its_own():
    # Packet a has its own sigma0; packet b's null takes the shared one.
    doc = json.loads(MINIMAL)
    doc["packets"].update(sigma0=0.5)
    doc["packets"]["a"]["sigma0"] = 1.5
    doc["packets"]["b"]["sigma0"] = None
    config = parse_config(json.dumps(doc))
    assert (config.packet_a.sigma0, config.packet_b.sigma0) == (1.5, 0.5)
    echo = config_to_dict(config)["packets"]
    assert (echo["sigma0"], echo["a"]["sigma0"], echo["b"]["sigma0"]) == (0.5, 1.5, 0.5)
    assert parse_config(json.dumps(config_to_dict(config))) == config


@pytest.mark.parametrize(
    "mutation, path_fragment",
    [
        ({"run": "spectra"}, "run"),
        ({"epsilons": [0.0]}, "epsilons[0]"),
        ({"epsilons": [2.0]}, "epsilons[0]"),
        ({"epsilons": [0.5, 0.5]}, "epsilons"),
        ({"epsilons": []}, "epsilons"),
        ({"hbar": -1.0}, "hbar"),
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
        ({"out_dir": ""}, "out_dir"),
        ({"grid": {"x_min": 0.0}}, "grid.x_min"),
        ({"time": {"n_times": 1}}, "time.n_times"),
        ({"trajectories": {"t_end": 0.0}}, "trajectories.t_end"),
        ({"trajectories": {"n_seeds": 0}}, "trajectories.n_seeds"),
        ({"arrival": {"t_max": 0.0}}, "arrival.t_max"),
        ({"wigner": {"x_min": 0.0}}, "wigner.x_min"),
        ({"trajectories": {"x_lo": -2.0, "x_hi": -18.0}}, "trajectories.x_lo"),
        ({"trajectories": {"t_end": 1e300, "dt": 1e-300}}, "trajectories.t_end"),
        # Distinct floats, but both named eps0.1 in the outputs.
        ({"epsilons": [0.1, 0.1000001]}, "epsilons"),
        # Required values, absent or not an object.
        ({"packets": ABSENT}, "packets"),
        ({"packets": {"a": {"x0": -5.0, "p0": -2.0}}}, "packets.b"),
        ({"packets": {"a": {"x0": -5.0}, "b": {"x0": -15.0, "p0": 2.0}}}, "packets.a.p0"),
        ({"packets": {"a": [-5.0, -2.0], "b": {"x0": -15.0, "p0": 2.0}}}, "packets.a"),
        # Above 2^53 steps k * dt is not exact; this one once crashed building its times.
        ({"trajectories": {"t_end": 15.0, "dt": 1e-299, "record_every": 10**299}}, "trajectories.t_end"),
    ],
)
def test_invalid_documents_report_field_path(mutation, path_fragment):
    doc = json.loads(MINIMAL)
    doc.update(mutation)
    doc = {key: value for key, value in doc.items() if value is not ABSENT}
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(doc))
    # The field itself, or one item of it.
    path = excinfo.value.path
    assert path == path_fragment or path.startswith(path_fragment + "[")


def _packets(sigma0=None, a=None, b=None) -> dict:
    """The MINIMAL packets, with ``sigma0`` shared and packet keys overridden."""
    packets = {"a": {"x0": -5.0, "p0": -2.0, **(a or {})}, "b": {"x0": -15.0, "p0": 2.0, **(b or {})}}
    return packets if sigma0 is None else {"sigma0": sigma0, **packets}


@pytest.mark.parametrize(
    "mutation, path",
    [
        ({"hbar": -1.0}, "hbar"),
        ({"hbar": 0.0}, "hbar"),
        ({"epsilons": [1.0, 0.0]}, "epsilons[1]"),
        ({"epsilons": [1.0, math.nextafter(1.0, 2.0)]}, "epsilons[1]"),
        ({"packets": _packets(sigma0=-1.0)}, "packets.sigma0"),
        ({"packets": _packets(a={"sigma0": 0.0})}, "packets.a.sigma0"),
        ({"packets": _packets(b={"x0": 15.0})}, "packets.b.x0"),
        ({"trajectories": {"seeds": [-5.0, 0.0]}}, "trajectories.seeds[1]"),
        ({"trajectories": {"x_hi": 0.0}}, "trajectories.x_hi"),
        ({"trajectories": {"x_lo": 1.0, "x_hi": 2.0}}, "trajectories.x_lo"),
    ],
)
def test_single_field_bounds_report_their_own_path(mutation, path):
    # Each single-field bound is checked as its field is read, so the error
    # names that field, not the first field a later cross-field check reads.
    doc = json.loads(MINIMAL)
    doc.update(mutation)
    with pytest.raises(ConfigError) as excinfo:
        parse_config(json.dumps(doc))
    assert excinfo.value.path == path


def test_epsilon_range_is_the_regime_range():
    # The loader's epsilon bound and make_regime read one predicate.  The
    # packets are at rest, so that no packet phase bounds the smallest epsilon.
    for eps in (1e-300, 0.5, 1.0):
        doc = json.loads(MINIMAL)
        doc["epsilons"] = [eps]
        for packet in doc["packets"].values():
            packet["p0"] = 0.0
        assert parse_config(json.dumps(doc)).regimes()[0].epsilon == eps
    for eps in (-1.0, 0.0, math.nextafter(1.0, 2.0)):
        with pytest.raises(DomainError):
            make_regime(eps)


def test_trajectory_sample_budget():
    # A trajectory run holds epsilons x 2 kinds x seeds x recorded times
    # samples at once: every record_every-th multiple of dt, and t_end.
    # Every rejected document here fails at load time, before anything is
    # allocated.
    def load(epsilons, **trajectories):
        doc = json.loads(MINIMAL)
        doc.update(run="trajectories", epsilons=epsilons, trajectories=trajectories)
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


def test_sample_budget_sees_the_epsilon_override(tmp_path):
    # 2 epsilons x 2 kinds x 5,000 seeds x 1,501 recorded times exceed the
    # budget; one epsilon is within it.  Only loaded, never integrated.
    doc = json.loads(MINIMAL)
    doc.update(run="trajectories", epsilons=[1.0, 0.5], trajectories={"n_seeds": 5000})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert excinfo.value.path == "trajectories.n_seeds"
    config = load_config(path, {"epsilons": [0.5]})
    assert config.epsilons == (0.5,) and config.trajectories.n_seeds == 5000


def test_overrides_replace_document_keys_before_every_check():
    assert parse_config(FULL, {"run": "wigner", "out_dir": "elsewhere"}).out_dir == "elsewhere"
    assert parse_config(FULL, {"run": "wigner"}).run_kind == "wigner"
    assert parse_config(FULL).out_dir == "results"
    for overrides, path in (
        ({"epsilons": [7.0]}, "epsilons[0]"),
        ({"epsilons": [0.1, 0.1000001]}, "epsilons"),
        ({"out_dir": ""}, "out_dir"),
        ({"run": "everything"}, "run"),
    ):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(FULL, overrides)
        assert excinfo.value.path == path


def test_wigner_point_budget():
    # A Wigner run evaluates epsilons x times x n_x x n_u points (4 x 2 x
    # n_x x n_u here); every rejected document fails at load time, before
    # anything is allocated.
    def load(**wigner):
        doc = json.loads(MINIMAL)
        doc.update(run="wigner", wigner=wigner)
        return parse_config(json.dumps(doc))

    assert WIGNER_POINT_BUDGET == 8_000_000
    load(n_x=81, n_u=8001)  # the marginal-check grid of the acceptance suite
    load(n_x=1000, n_u=1000)  # exactly at the budget
    for settings in ({"n_x": 1000, "n_u": 1001}, {"n_x": 10**9}, {"n_u": 10**9}):
        with pytest.raises(ConfigError) as excinfo:
            load(**settings)
        assert excinfo.value.path == "wigner.n_u"
        assert "budget" in str(excinfo.value)


def test_grid_and_arrival_point_budgets():
    # Both grids are bounded at load time, each in the run that evaluates it;
    # nothing here is allocated.
    def load(kind, section, n_points):
        doc = json.loads(MINIMAL)
        doc.update({"run": kind, "epsilons": [1.0], section: {"n_points": n_points}})
        return parse_config(json.dumps(doc))

    assert (GRID_POINT_BUDGET, TIME_POINT_BUDGET) == (500_000, 500_000)
    for kind, section, budget in (("density", "grid", GRID_POINT_BUDGET),
                                  ("arrival", "arrival", TIME_POINT_BUDGET)):
        for n_points in (budget + 1, 10**12):
            with pytest.raises(ConfigError) as excinfo:
                load(kind, section, n_points)
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


def _loaded(mutation, kind):
    doc = json.loads(MINIMAL)
    doc.update(mutation)
    return parse_config(json.dumps(doc), {"run": kind})


# One document per row of each run kind's budgets, one epsilon and exactly at
# the row's budget; one more unit of the field at the row's path is past it.
# The last item names every kind with a row at that path.
BUDGET_EDGES = [
    ("density", "grid.n_points", {"grid": {"n_points": 500_000}, "time": {"n_times": 2}},
     {"density"}),
    ("density", "time.n_times", {"grid": {"n_points": 64}, "time": {"n_times": 312_500}},
     {"density", "observables"}),
    ("observables", "time.n_times", {"time": {"n_times": 500_000}}, {"density", "observables"}),
    ("arrival", "arrival.n_points", {"arrival": {"n_points": 500_000}}, {"arrival"}),
    ("trajectories", "trajectories.n_seeds",
     {"trajectories": {"n_seeds": 1250, "t_end": 9.999, "dt": 0.001, "record_every": 1}},
     {"trajectories"}),
    ("trajectories", "trajectories.seeds",
     {"trajectories": {"seeds": [-18.0 + 0.01 * i for i in range(1250)], "t_end": 9.999,
                       "dt": 0.001, "record_every": 1}},
     {"trajectories"}),
    ("wigner", "wigner.n_u", {"wigner": {"times": [0.0], "n_x": 1000, "n_u": 8000}}, {"wigner"}),
]


@pytest.mark.parametrize("kind, path, edge, readers", BUDGET_EDGES,
                         ids=[f"{kind}-{path}" for kind, path, *_ in BUDGET_EDGES])
def test_budget_edges_bound_only_their_run_kind(kind, path, edge, readers):
    # Only loaded, never run: each budget counts its kind's whole run.
    edge = {"epsilons": [1.0], **edge}
    _loaded(edge, kind)
    past = json.loads(json.dumps(edge))
    section, key = path.split(".")
    value = past[section][key]
    past[section][key] = value + [value[-1] + 0.01] if isinstance(value, list) else value + 1
    with pytest.raises(ConfigError) as excinfo:
        _loaded(past, kind)
    assert excinfo.value.path == path
    assert "budget" in str(excinfo.value)
    for other in set(RUN_KINDS) - readers:
        _loaded(past, other)


KICK = {"epsilons": [1.0], "packets": {"a": {"x0": -5.0, "p0": -2.0},
                                       "b": {"x0": -15.0, "p0": 1e7}}}
# Documents that the loader misjudged when it checked every section's budget
# per CSV, whatever the run kind.  Each loads under the kinds that do not read
# what it exceeds, and exits 2 at its path under each (kind, path) that does.
# The last two exceed their own kind's whole-run budget: the first was rejected
# at trajectories.n_seeds under every kind, the second loaded under every kind.
RUN_KIND_CASES = {
    "arrival-points": ({"arrival": {"n_points": 10**6}}, ["wigner"],
                       [("arrival", "arrival.n_points")]),
    "wigner-grid": ({"wigner": {"n_x": 1001, "n_u": 1000}}, ["density", "arrival"],
                    [("wigner", "wigner.n_u")]),
    "grid-points": ({"grid": {"n_points": 500_001}}, ["arrival"],
                    [("density", "grid.n_points")]),
    "observables-times": ({"time": {"n_times": 10_000}}, ["observables"],
                          [("density", "time.n_times")]),
    "trajectory-steps": ({"trajectories": {"dt": 1e-7, "record_every": 1}}, ["wigner"],
                         [("trajectories", "trajectories.n_seeds")]),
    # At eps = 1 a kick of 1e7 reaches 1e16 rad by t = 200.
    "arrival-phase": ({**KICK, "arrival": {"t_max": 200.0}}, ["density"],
                      [("arrival", "packets.b.p0")]),
    "wigner-phase": ({**KICK, "wigner": {"times": [0.0, 200.0]}}, ["trajectories"],
                     [("wigner", "packets.b.p0")]),
    # 500 x 41 x 2048 = 41,984,000 density rows.
    "500-epsilons": ({"epsilons": [1.0 - 0.001 * i for i in range(500)]}, ["observables"],
                     [("density", "time.n_times"), ("trajectories", "trajectories.n_seeds"),
                      ("arrival", "arrival.n_points"), ("wigner", "wigner.n_u")]),
    # 4 x 3,000 x 1000 x 1000 Wigner points.
    "3000-wigner-times": ({"wigner": {"times": [0.001 * i for i in range(3000)], "n_x": 1000,
                                      "n_u": 1000}},
                          ["density", "observables", "arrival", "trajectories"],
                          [("wigner", "wigner.n_u")]),
}


@pytest.mark.parametrize("case", RUN_KIND_CASES)
def test_the_loader_checks_the_run_it_will_do(case, tmp_path, capsys):
    mutation, loads, rejects = RUN_KIND_CASES[case]
    for kind in loads:
        assert _loaded(mutation, kind).run_kind == kind
    doc = json.loads(MINIMAL)
    doc.update(mutation)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    for kind, path in rejects:
        out_dir = tmp_path / kind
        assert main([kind, "--config", str(config_path), "--out", str(out_dir)]) == 2
        assert f"config error: {path}: " in capsys.readouterr().err
        assert not out_dir.exists()


def test_cli_rejects_packets_too_narrow_for_the_pair_table(tmp_path, capsys):
    # (x0 / sigma0)^2 2^-54 is 1.5 for packet a at sigma0 = 3e-8 and 3.1e-7
    # for packet b at sigma0 = 2e-4, within 1e-6.
    doc = json.loads(MINIMAL)
    doc.update(epsilons=[1.0], grid={"n_points": 121}, time={"t_max": 7.0, "n_times": 2})
    config_path = tmp_path / "config.json"
    for sigma0, code in ((3e-8, 2), (2e-4, 0)):
        doc["packets"]["sigma0"] = sigma0
        config_path.write_text(json.dumps(doc))
        out_dir = tmp_path / f"out{code}"
        assert main(["density", "--config", str(config_path), "--out", str(out_dir)]) == code
        assert out_dir.exists() == (code == 0)
    assert "config error: packets.a: (x0 / sigma0)^2 2^-54 = 1.54" in capsys.readouterr().err


def test_packet_phase_bound():
    # p0 (x0 + x_t) / (2 hbar_tilde) above 2^53 rad has no correct units
    # digit.  It is bounded at the smallest hbar_tilde and the last time the
    # configured run kind evaluates, or time.t_max, which every kind's trace
    # diagnostic reads.  At eps = 1 a kick of 1e7 peaks near 2e15 rad by
    # t = 40 (the default arrival window) and near 1e16 rad by t = 200.
    def load(p0, packet="b", **top):
        doc = json.loads(MINIMAL)
        doc["epsilons"] = [1.0]
        doc["packets"][packet]["p0"] = p0
        doc.update(top)
        return parse_config(json.dumps(doc))

    def rejected(p0, packet="b", **top):
        with pytest.raises(ConfigError) as excinfo:
            load(p0, packet, **top)
        assert excinfo.value.path == f"packets.{packet}.p0"
        assert "exceeds 2^53 rad" in str(excinfo.value)

    load(1e7)
    load(-1e7, "a")
    rejected(1e7, time={"t_max": 200.0})
    rejected(1e7, run="arrival", arrival={"t_max": 200.0})
    rejected(1e7, run="trajectories", trajectories={"t_end": 200.0})
    rejected(1e7, run="wigner", wigner={"times": [0.0, 200.0]})
    # A smaller hbar_tilde, through an epsilon or hbar, raises the phase.
    rejected(-1e7, "a", epsilons=[1.0, 0.01])
    rejected(-1e7, "a", hbar=0.1)
    for p0 in (1e150, 1e155, 1e300, -1e300):
        rejected(p0)


def test_cli_packet_phase_bound_follows_the_epsilon_override(tmp_path, capsys):
    doc = json.loads(MINIMAL)
    doc.update(epsilons=[1.0], grid={"n_points": 64}, time={"n_times": 2})
    doc["packets"]["b"]["p0"] = 1e7
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["density", "--config", str(config_path), "--epsilon", "0.01", "--out",
                 str(out_dir)]) == 2
    assert "config error: packets.b.p0: packet phase" in capsys.readouterr().err
    assert not out_dir.exists()


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
