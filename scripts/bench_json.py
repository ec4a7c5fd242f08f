"""Write a BENCH_<n>.json: benchmark pairs, line counts, Tier-1 and acceptance margins.

    python scripts/bench_json.py --parent PARENT_TREE --out BENCH_11.json
        [--pairs 10] [--seconds 10] [--workloads trajectories,wigner,fields]

Run from the root of this repository.  ``PARENT_TREE`` is a checkout of the
commit to compare against (``git clone`` plus ``git checkout``).  For each
workload the script runs ``perfbench/run.py --workload W --seconds S``
``--pairs`` times in each tree, alternating which tree goes first, and
records the median and quartiles of ``run_s``, ``setup_s`` and
``peak_rss_mb`` per tree, the raw values, and in how many pairs this tree
was lower.  It also records the commit of each tree, ``nproc``, the line
count of ``src/qctl/*.py`` in each tree and its code lines (blank, comment
and docstring lines left out), the configuration keys of each tree (the
leaves of ``config_to_dict(parse_config(MINIMAL))``, a list counting as
one, so an added or removed option shows), the table of ``scripts/l0_evaluator.py
--repeat 5`` in each tree, the L1 table of this tree's
``scripts/l0_evaluator.py --l1 --repeat 5 --src TREE/src`` for each tree
(so a parent without ``--l1`` is timed too), the Tier-1 test count and
seconds of this tree,
and the ``[acceptance]`` lines of ``tests/test_acceptance.py -s`` in each
tree, so the margins are recorded before and after.  The L0 and L1 tables
are each run in alternating rounds, parent, change, change, parent, and so
on, ``L0_ROUNDS`` per tree, and every cell records its minimum over the
rounds, since a single run on a shared machine reads a few percent high.

The byte contract: both trees run the 16 comparison configs through the CLI
with the same relative ``--out``, each tree in its own working directory.
They are the seed-1 and seed-3 configs of each ``perfbench`` workload in the
workload's run kinds, the README default config in all five run kinds, and
that config with Born seeding in the trajectories kind.  The report lists the
CSVs whose bytes differ and, per run, the manifest keys (dotted paths) whose
values differ, the timings ``wall_clock_seconds`` and ``writers.*`` (each CSV
writer's CPU seconds and peak RSS) left out.  Only the standard library is
used (this tree's ``perfbench/workloads.py`` needs numpy); the trees need
their own dependencies.
"""

import argparse
import ast
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

METRICS = ("run_s", "setup_s", "peak_rss_mb")
WORKLOADS = ("trajectories", "wigner", "fields")
L0_REPEAT = 5
L0_ROUNDS = 3
# Token types that are not code: comments, line breaks and indentation.
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
RUN_KINDS = ("density", "trajectories", "arrival", "observables", "wigner")
CONTRACT_SEEDS = (1, 3)
# The smallest valid configuration document: only the required keys.
MINIMAL = {"packets": {"a": {"x0": -5.0, "p0": -2.0}, "b": {"x0": -15.0, "p0": 2.0}}}
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def _commit(tree: Path) -> str:
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=tree,
                           capture_output=True, text=True).stdout.strip()
    commit = result.stdout.strip() or "unknown"
    return commit + ("+uncommitted-src" if dirty else "")


def _src_lines(tree: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((tree / "src" / "qctl").glob("*.py")))


def _code_lines(path: Path) -> int:
    """Lines of ``path`` that hold code: not blank, not only a comment, not in a docstring."""
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def _src_code_lines(tree: Path) -> int:
    return sum(_code_lines(p) for p in sorted((tree / "src" / "qctl").glob("*.py")))


def _config_keys(tree: Path) -> int:
    """Leaves of ``tree``'s ``config_to_dict(parse_config(MINIMAL))``, a list counting as one."""
    code = ("import json, sys; from qctl.config import config_to_dict, parse_config; "
            "print(json.dumps(config_to_dict(parse_config(sys.argv[1]))))")
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(MINIMAL)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return len(_flatten(json.loads(out)))


def _table(cmd: list, cwd: Path) -> dict:
    """The table printed by ``cmd`` run in ``cwd``, one row per line."""
    lines = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True).stdout.split("\n")
    columns, *rows = [line.split() for line in lines if line.strip()]
    rows = [[row[0]] + [json.loads(value) for value in row[1:]] for row in rows]
    return {"repeat": L0_REPEAT, "columns": columns, "rows": rows}


def _l0_table(tree: Path) -> dict:
    """The table printed by ``scripts/l0_evaluator.py --repeat L0_REPEAT`` of ``tree``."""
    return _table([sys.executable, "scripts/l0_evaluator.py", "--repeat", str(L0_REPEAT)], tree)


def _l1_table(tree: Path) -> dict:
    """The L1 table of ``tree``'s ``qctl``, printed by this repository's ``l0_evaluator.py --l1``."""
    script = Path(__file__).resolve().parent / "l0_evaluator.py"
    cmd = [sys.executable, str(script), "--l1", "--repeat", str(L0_REPEAT), "--src", str(tree / "src")]
    return _table(cmd, tree)


def _rounds(table, parent: Path, change: Path) -> dict:
    """``table`` of each tree over ``L0_ROUNDS`` alternating rounds, each cell's minimum.

    The trees alternate as parent, change, change, parent, and so on; the
    first cell of a row names it and is kept.
    """
    runs = {"parent": [], "change": []}
    for i in range(L0_ROUNDS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(table(parent if side == "parent" else change))
            print(table.__name__, i, side, file=sys.stderr, flush=True)
    result = {}
    for side, tables in runs.items():
        rows = [[cells[0][0]] + [min(column) for column in zip(*(cell[1:] for cell in cells))]
                for cells in zip(*(t["rows"] for t in tables))]
        result[side] = {**tables[0], "rounds": len(tables), "statistic": "min", "rows": rows}
    return result


def _bench(tree: Path, workload: str, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: the JSON object of its last output line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "quartiles": [q1, q3], "values": values}


def _pairs(parent: Path, change: Path, workload: str, pairs: int, seconds: float) -> dict:
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_bench(parent if side == "parent" else change, workload, seconds))
            print(workload, i, side, json.dumps(runs[side][-1]["metrics"]), file=sys.stderr, flush=True)
    result = {}
    for side, results in runs.items():
        result[side] = {m: _summary([r["metrics"][m]["value"] for r in results]) for m in METRICS}
        result[side]["correct"] = all(r["correct"] is True for r in results)
        result[side]["attempted"] = sum(r["attempted"] for r in results)
        result[side]["failed"] = sum(r["failed"] for r in results)
    result["change_lower_pairs"] = {
        m: sum(c < p for p, c in zip(result["parent"][m]["values"], result["change"][m]["values"]))
        for m in METRICS
    }
    return result


def _tier1(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    out = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True).stdout
    last = out.strip().splitlines()[-1]
    counts = {kind: int(n) for n, kind in re.findall(r"(\d+) (passed|failed|error|errors|skipped)", last)}
    seconds = re.search(r"in ([\d.]+)s", last)
    return {"summary": last, **counts, "seconds": float(seconds.group(1)) if seconds else None}


def _acceptance(tree: Path) -> list:
    env = dict(os.environ, PYTHONPATH="src")
    cmd = [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider", "tests/test_acceptance.py"]
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True).stdout
    return [line[line.index("[acceptance]"):] for line in out.splitlines() if "[acceptance]" in line]


def _comparison_configs(change: Path) -> dict:
    """The comparison runs by name (``config/run kind``): (config document, run kind)."""
    sys.path.insert(0, str(change / "perfbench"))
    import workloads

    runs = {}
    for workload in workloads.WORKLOADS:
        for seed in CONTRACT_SEEDS:
            doc = workloads.make_config(workload, seed)
            for kind in workloads.run_kinds(workload):
                runs[f"{workload}_seed{seed}/{kind}"] = (doc, kind)
    readme = (change / "README.md").read_text(encoding="utf-8")
    default = json.loads(readme.split("## Configuration", 1)[1].split("```json\n", 1)[1].split("```", 1)[0])
    for kind in RUN_KINDS:
        runs[f"readme/{kind}"] = (default, kind)
    born = json.loads(json.dumps(default))
    born["trajectories"]["seeding"] = "born"
    runs["readme_born/trajectories"] = (born, "trajectories")
    return runs


def _flatten(value, path: str = "") -> dict:
    """A JSON value as {dotted path: leaf}; lists are leaves."""
    if not isinstance(value, dict):
        return {path: value}
    flat = {}
    for key, item in value.items():
        flat.update(_flatten(item, f"{path}.{key}" if path else key))
    return flat


def _byte_contract(parent: Path, change: Path) -> dict:
    """Run every comparison config in both trees; report what differs."""
    runs = _comparison_configs(change)
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        exit_codes, csvs, manifests = {}, {}, {}
        for side, tree in (("parent", parent), ("change", change)):
            work = scratch / side
            env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
            for i, (name, (doc, kind)) in enumerate(runs.items()):
                config = scratch / f"config{i}.json"
                config.write_text(json.dumps(doc), encoding="utf-8")
                out = Path(f"out{i}")
                (work / out).mkdir(parents=True)
                cmd = [sys.executable, "-m", "qctl.cli", kind, "--config", str(config), "--out", str(out)]
                code = subprocess.run(cmd, cwd=work, env=env, capture_output=True).returncode
                exit_codes.setdefault(name, {})[side] = code
                for path in sorted((work / out).glob("*.csv")):
                    csvs.setdefault(f"{name}/{path.name}", {})[side] = path.read_bytes()
                manifest = work / out / "manifest.json"
                if manifest.is_file():
                    flat = _flatten(json.loads(manifest.read_text(encoding="utf-8")))
                    manifests.setdefault(name, {})[side] = {
                        key: value for key, value in flat.items()
                        if key != "wall_clock_seconds" and not key.startswith("writers.")}
                print("contract", side, name, code, file=sys.stderr, flush=True)
    differing_keys = {}
    for name, sides in manifests.items():
        parent_keys, change_keys = sides.get("parent", {}), sides.get("change", {})
        keys = sorted(k for k in parent_keys.keys() | change_keys.keys()
                      if k not in parent_keys or k not in change_keys or parent_keys[k] != change_keys[k])
        if keys:
            differing_keys[name] = keys
    return {
        "runs": len(runs),
        "exit_codes": exit_codes,
        "csvs": len(csvs),
        "differing_csvs": sorted(name for name, sides in csvs.items()
                                 if sides.get("parent") != sides.get("change")),
        "differing_manifest_keys": differing_keys,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--out", required=True, type=Path, help="BENCH json file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args(argv)
    change, parent = Path.cwd(), args.parent.resolve()
    report = {
        "commit": _commit(change),
        "parent_commit": _commit(parent),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "benchmark": {"pairs": args.pairs, "seconds": args.seconds, "workloads": {}},
        "src_lines": {"parent": _src_lines(parent), "change": _src_lines(change)},
        "src_code_lines": {"parent": _src_code_lines(parent), "change": _src_code_lines(change)},
        "config_keys": {"parent": _config_keys(parent), "change": _config_keys(change)},
        "l0": _rounds(_l0_table, parent, change),
        "l1": _rounds(_l1_table, parent, change),
        "byte_contract": _byte_contract(parent, change),
    }
    for workload in args.workloads.split(","):
        report["benchmark"]["workloads"][workload] = _pairs(parent, change, workload, args.pairs, args.seconds)
    report["tier1"] = _tier1(change)
    report["acceptance"] = {"parent": _acceptance(parent), "change": _acceptance(change)}
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
