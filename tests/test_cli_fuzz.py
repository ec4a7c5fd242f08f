"""The CLI's exit-code contract on random small documents.

Every document goes through ``qctl.cli.main`` in this process, one at a
time, at 1 to 3 epsilons, on a 64-point grid, 3 times, 101 arrival times, a
9 x 9 Wigner grid at 1 to 3 times (t = 0 and up to two more) and 2 seeds
from t = 0 to 1, in 1 to 10^6 steps of ``dt`` of which at most about 1,000
are recorded.  Its values are drawn log-uniformly inside the
loader's bounds, around the README defaults: in half the documents within a
factor of 2 (epsilon within 4 of 1), so that most run to the end, in the
others within four decades (lengths within one, epsilon down to 1e-8), so
that many are rejected or trip a numerical guard.
Whatever the document, the run must exit 0, 2 or 3; a failed run leaves no
CSV and no manifest, and a finished one lists exactly the CSVs it wrote, and
a finished Wigner run the work its writers counted.
Each document's files are all forked, or written as the run chooses (all by
the parent, at these sizes), one or the other at random.
"""

import json
import random

from qctl import hydrodynamics, writers
from qctl.cli import main
from qctl.config import RUN_KINDS

DOCUMENTS = 50


def _document(rng: random.Random) -> dict:
    decades = 0.3 if rng.random() < 0.5 else 4.0

    def draw(default: float, scale: float = 1.0) -> float:
        """``default`` times a log-uniform factor within ``scale * decades`` of 1."""
        return default * 10.0 ** rng.uniform(-scale * decades, scale * decades)

    def packet(x0: float, p0: float) -> dict:
        return {"x0": draw(x0, 0.25), "p0": rng.choice((-1.0, 1.0)) * draw(abs(p0))}

    # t_end / dt log-uniform in [1, 10^6]; record_every log-uniform from the
    # smallest that records at most about 1,000 samples to twice the steps.
    n_steps = round(10.0 ** rng.uniform(0.0, 6.0))
    every = -(-n_steps // 1000)
    every = round(every * (2.0 * n_steps / every) ** rng.random())

    # Lengths within a quarter of the decades, so that more packets pass the loader's
    # width and tail-mass checks; kicks, epsilon, hbar and mass within all of them.
    return {
        "epsilons": [10.0 ** -rng.uniform(0.0, 2.0 * decades) for _ in range(rng.randint(1, 3))],
        "hbar": draw(1.0),
        "mass": draw(1.0),
        "packets": {"sigma0": draw(1.0, 0.25), "a": packet(-5.0, -2.0), "b": packet(-15.0, 2.0)},
        "grid": {"x_min": draw(-60.0, 0.25), "n_points": 64},
        "time": {"t_max": draw(20.0), "n_times": 3},
        "detector_x": draw(-30.0, 0.25),
        "trajectories": {
            "t_end": 1.0, "dt": 1.0 / n_steps, "record_every": every,
            "seeding": rng.choice(("uniform", "born")),
            "n_seeds": 2, "x_lo": draw(-18.0, 0.25), "x_hi": draw(-2.0, 0.25),
        },
        "arrival": {"t_max": draw(40.0), "n_points": 101},
        "wigner": {"times": [0.0] + [draw(7.0) for _ in range(rng.randint(0, 2))],
                   "x_min": draw(-40.0, 0.25), "n_x": 9, "u_max": draw(8.0), "n_u": 9},
    }


def test_every_document_exits_0_2_or_3_and_leaves_its_outputs_consistent(tmp_path, monkeypatch):
    # A small budget bounds the trajectory runs of documents whose steps are tiny.
    monkeypatch.setattr(hydrodynamics, "MAX_ATTEMPTS", 200)
    rng = random.Random(5)
    # Its own generator, so that the documents do not depend on the draws.
    fork_rng, fork_fields = random.Random(6), writers._FORK_FIELDS
    codes = []
    for i in range(DOCUMENTS):
        path, out = tmp_path / f"doc{i}.json", tmp_path / f"out{i}"
        document = _document(rng)
        path.write_text(json.dumps(document), encoding="utf-8")
        monkeypatch.setattr(writers, "_FORK_FIELDS", fork_rng.choice((0, fork_fields)))
        kind = rng.choice(RUN_KINDS)
        code = main([kind, "--config", str(path), "--out", str(out)])
        assert code in (0, 2, 3), path.read_text(encoding="utf-8")
        written = sorted(p.name for p in out.glob("*.csv"))
        if code:
            assert written == [] and not (out / "manifest.json").exists()
        else:
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            assert manifest["outputs"] == written
            if kind == "wigner":
                # Each time the 10 term pairs of both kinds, on the 8 rows R < 0 of 9 u points.
                work = {"pair_integrals": 10 * len(document["wigner"]["times"]), "points": 8 * 9}
                assert list(manifest["diagnostics"]["wigner"].values()) == [work] * len(document["epsilons"])
        codes.append(code)
    # Enough documents run to the end that the exit-0 branch is exercised.
    assert codes.count(0) >= DOCUMENTS // 4, codes
    assert {2, 3} & set(codes)
