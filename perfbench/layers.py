"""Per-layer metrics from a traced round's span file.

A layer is a ``qctl`` module.  A span's self time is its duration minus the
durations of its child spans; a layer's self time is the sum over its spans.
``calls`` counts spans, i.e. calls entering the layer from another layer, and
``points`` sums the size of each such call's largest numeric argument.
"""

from __future__ import annotations

import json

import numpy as np

# (metric, unit) in the order they are reported.
METRICS = (
    ("packets.calls", "count"),
    ("packets.points", "count"),
    ("packets.self_s", "s"),
    ("packets.ns_per_point", "ns"),
    ("ensembles.calls", "count"),
    ("ensembles.self_s", "s"),
    ("ensembles.norm_constant_misses", "count"),
    ("hydrodynamics.self_s", "s"),
    ("hydrodynamics.evals", "count"),
    ("hydrodynamics.evals_per_sample", "evals/sample"),
    ("hydrodynamics.stalled_seeds", "count"),
    ("phase_space.calls", "count"),
    ("phase_space.self_s", "s"),
    ("phase_space.density_points", "count"),
    ("observables.calls", "count"),
    ("observables.self_s", "s"),
    ("arrival.calls", "count"),
    ("arrival.self_s", "s"),
    ("quadrature.calls", "count"),
    ("quadrature.self_s", "s"),
    ("runner.self_s", "s"),
    ("runner.csv_bytes", "B"),
    ("runner.csv_values", "count"),
    ("runner.ns_per_value", "ns"),
    ("config.self_s", "s"),
    ("cli.import_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

# Layers that evaluate the state; hydrodynamics.evals counts its calls into them.
EVALUATOR_LAYERS = ("ensembles", "packets")


def span_metrics(path) -> dict[str, float]:
    """Calls, points and self time per layer, and the cross-layer counts."""
    with np.load(path) as spans:
        names = json.loads(str(spans["names"]))
        name, parent = spans["name"], spans["parent"]
        duration = spans["end"] - spans["start"]
        points = spans["points"]
    layer_names = sorted({n.split(".", 1)[0] for n in names})
    layer_index = {layer: i for i, layer in enumerate(layer_names)}
    name_layer = np.array([layer_index[n.split(".", 1)[0]] for n in names], dtype=np.int64)
    layer = name_layer[name] if name.size else np.zeros(0, dtype=np.int64)

    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=name.size)
    self_time = duration - child_time
    parent_layer = np.full(name.size, -1)
    parent_layer[has_parent] = layer[parent[has_parent]]

    n_layers = len(layer_names)
    calls = np.bincount(layer, minlength=n_layers)
    pts = np.bincount(layer, weights=points, minlength=n_layers)
    selfs = np.bincount(layer, weights=self_time, minlength=n_layers)

    out: dict[str, float] = {"trace.spans": float(name.size)}
    for lname, i in layer_index.items():
        out[f"{lname}.calls"] = float(calls[i])
        out[f"{lname}.points"] = float(pts[i])
        out[f"{lname}.self_s"] = float(selfs[i])

    def from_parent(child_layers, parent_name):
        if parent_name not in layer_index:
            return np.zeros(name.size, dtype=bool)
        wanted = [layer_index[c] for c in child_layers if c in layer_index]
        return np.isin(layer, wanted) & (parent_layer == layer_index[parent_name])

    hydro = from_parent(EVALUATOR_LAYERS, "hydrodynamics") & (points > 0)
    out["hydrodynamics.evals"] = float(np.count_nonzero(hydro))
    out["phase_space.density_points"] = float(np.sum(points[from_parent(("ensembles",), "phase_space")]))
    return out


def layer_metrics(spans_path, extras: dict[str, float]) -> dict[str, dict]:
    """Every metric of :data:`METRICS`, zero for a layer that never ran."""
    values = span_metrics(spans_path)
    values.update(extras)

    def get(key: str) -> float:
        return float(values.get(key, 0.0))

    values["packets.ns_per_point"] = _ratio(get("packets.self_s") * 1e9, get("packets.points"))
    values["runner.ns_per_value"] = _ratio(get("runner.self_s") * 1e9, get("runner.csv_values"))
    values["hydrodynamics.evals_per_sample"] = _ratio(
        get("hydrodynamics.evals"), get("trajectory_samples")
    )
    return {key: {"value": get(key), "unit": unit} for key, unit in METRICS}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0
