"""Before/after benchmark: satbench on a base commit and on a checkout, in pairs.

Run from the root of a satmon checkout (the "change" side, working tree
included):

    python3 tools/bench.py --out BENCH.json --base HEAD~1 \
        --run saturate:1:10 --run saturate:2:3 --run covers:1:3

Each ``--run WORKLOAD:SEED:PAIRS`` runs ``satbench/run.py --trace 0`` PAIRS
times on each side, for the run length ``BENCHMARK.json`` sets, alternating
which side goes first.  The base side is the tree of ``--base`` exported
with ``git archive`` into a scratch directory, so the repository gets no
worktree entry.  Nothing under ``satbench/`` is changed; both sides run
their own copy of it.

The output records the environment, every run's metrics, and per workload
and seed the median, quartiles and best of each end-to-end metric named in
``BENCHMARK.json``, with the pairs the change wins; a tied pair counts
for neither side.  One tier-1 run per side gives its wall time.  Each call
writes a fresh file, so one call names every run it needs.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev, dest):
    """The tree of ``rev`` as plain files in ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def src_digest(checkout):
    """sha256 over the library sources, to tell what each side ran."""
    h = hashlib.sha256()
    top = os.path.join(checkout, "src", "satmon")
    for name in sorted(os.listdir(top)):
        if name.endswith(".py"):
            with open(os.path.join(top, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def satbench(checkout, workload, seed, seconds):
    argv = [sys.executable, "satbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode:
        raise SystemExit(f"satbench failed in {checkout}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "wall_s": round(wall, 2),
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def tier1(checkout):
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(time.perf_counter() - t0, 2), "summary": lines[-1] if lines else ""}


def spread(values, higher):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else (values[0],) * 3
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "best": max(values) if higher else min(values)}


def summarize(runs, end_to_end):
    """Per workload and seed: each side's spread of each end-to-end metric,
    and how many pairs the change wins."""
    out = {}
    for key in sorted({(r["workload"], r["seed"]) for r in runs}):
        mine = [r for r in runs if (r["workload"], r["seed"]) == key]
        row = {}
        for name, better in end_to_end:
            higher = better == "higher"
            sides = {side: [r["metrics"][name] for r in mine if r["side"] == side]
                     for side in ("base", "change")}
            if not sides["base"] or not sides["change"]:
                continue
            base, change = spread(sides["base"], higher), spread(sides["change"], higher)
            pairs = {}
            for r in mine:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"][name]
            decided = [p for p in pairs.values() if len(p) == 2 and p["change"] != p["base"]]
            won = sum((p["change"] > p["base"]) == higher for p in decided)
            tied = sum(len(p) == 2 for p in pairs.values()) - len(decided)
            row[name] = {
                "base": base,
                "change": change,
                "median_change": change["median"] / base["median"] - 1 if base["median"] else None,
                "median_gap_over_base_iqr": (abs(change["median"] - base["median"])
                                             / (base["q3"] - base["q1"])
                                             if base["q3"] > base["q1"] else None),
                "change_wins": f"{won} of {len(decided)} decided, {tied} tied",
            }
        out[f"{key[0]}:{key[1]}"] = row
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--base", default="HEAD", help="base revision (default HEAD)")
    ap.add_argument("--run", action="append", default=[], metavar="WORKLOAD:SEED:PAIRS")
    ns = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    end_to_end = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    plan = []
    for item in ns.run:
        workload, seed, pairs = item.split(":")
        plan.append((workload, int(seed), int(pairs)))

    scratch = tempfile.mkdtemp(prefix="satmon-bench-")
    try:
        base_dir = os.path.join(scratch, "base")
        export(ns.base, base_dir)
        checkouts = {"base": base_dir, "change": ROOT}
        sides = {
            "base": {"commit": git("rev-parse", ns.base), "src_sha256": src_digest(base_dir)},
            "change": {"commit": git("rev-parse", "HEAD"),
                       "uncommitted_changes": bool(git("status", "--porcelain")),
                       "src_sha256": src_digest(ROOT)},
        }
        doc = {
            "env": {
                "python": sys.version.split()[0],
                "implementation": platform.python_implementation(),
                "machine": platform.machine(),
                "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count(),
                "sides": sides,
                "command": "satbench/run.py --trace 0",
                "seconds_per_run": seconds,
            },
            "runs": [],
            "tier1": {},
            "layers": {},
            "layers_note": ("empty until the library counts its own work per layer "
                            "(ROADMAP item 4); satbench's --trace 1 numbers wrap names "
                            "that differ between commits"),
        }

        def save():
            doc["end_to_end"] = summarize(doc["runs"], end_to_end)
            with open(ns.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
                fh.write("\n")

        for workload, seed, pairs in plan:
            for pair in range(pairs):
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for side in order:
                    run = satbench(checkouts[side], workload, seed, seconds)
                    doc["runs"].append(dict(workload=workload, seed=seed, pair=pair, side=side,
                                            **run))
                    print(f"{workload}:{seed} pair {pair} {side}: "
                          f"req_per_s {run['metrics'].get('req_per_s', 0):.1f}", flush=True)
                save()
        for side, checkout in checkouts.items():
            doc["tier1"][side] = tier1(checkout)
            print(f"tier-1 {side}: {doc['tier1'][side]}", flush=True)
        save()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
