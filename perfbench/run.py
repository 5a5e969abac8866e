#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/main.exe with dune,
runs the workload for about S seconds (always at least a few whole
repetitions), checks every output against the pins in perfbench/pins.ml
and prints, as its last line, one JSON object with the keys "correct",
"attempted", "failed" and "metrics": the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
The line before it is the run's full record (medians with their sample
counts, cores, jobs, OCaml version, budgets, churn configuration, seed);
it is also written under .perfbench/.  perfbench/README.md explains the
workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ("verify", "cutoff", "churn-1m", "churn-long")
CHURN = ("churn-1m", "churn-long")
# Engine seeds with pinned summaries; --seed picks one.  All four load
# the engine alike (about 95 000 false suspicions on churn-long), so a
# run's seed does not decide its cost.
ENGINE_SEEDS = (3, 4, 5, 6)
# whole repetitions a run makes however short --seconds is; a traced
# churn round is four processes
MIN_REPS = {0: 4, 1: 3}
# A traced run measures every layer: those its workload does not run
# are measured once, traced, on the workloads that do run them.
COVERS = {
    "verify": ("cutoff", "churn-long"),
    "cutoff": ("verify", "churn-long"),
    "churn-1m": ("verify", "cutoff"),
    "churn-long": ("verify", "cutoff"),
}
DEADLINE_S = 170.0


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("no sources to build here; run from the root of a checkout")
    # keep the build's cache and the compilers' temporary files inside
    # the checkout
    tmp = os.path.abspath(os.path.join(".perfbench", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if r.returncode != 0:
        die("build failed:\n" + r.stdout[-4000:])


def run_exe(args, deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        die("out of time")
    try:
        r = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        die("timed out: " + " ".join(args))
    if r.returncode != 0:
        die("%s exited %d: %s" % (" ".join(args), r.returncode, r.stderr[-2000:]))
    return [json.loads(line) for line in r.stdout.splitlines() if line.startswith("{")]


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tracing_cost(plain, traced):
    """How much of a repetition the top-level spans cover, of the traced
    wall and of the paired plain wall, and the overhead of tracing.  The
    last two are medians over the run's (plain, traced) pairs: a pair runs
    back to back, so a slow phase of the host hits both of its walls."""
    pairs = list(zip(plain, traced))
    return {
        "trace.coverage": median([t["top_s"] / t["wall_s"] for t in traced]),
        "trace.coverage_untraced": median([t["top_s"] / p for p, t in pairs]),
        "trace.overhead": median([t["wall_s"] / p - 1.0 for p, t in pairs]),
    }


def in_process(workload, seed, seconds, trace, min_reps, deadline):
    lines = run_exe([workload, "--seconds", str(seconds), "--min-reps",
                     str(min_reps), "--trace", str(trace)], deadline)
    reps = [l for l in lines if l["kind"] == "rep"]
    plain = [l["wall_s"] for l in reps if not l["traced"]]
    traced = [l for l in reps if l["traced"]]
    setups = [l["setup_s"] for l in lines if l["kind"] == "setup"]
    end = [l for l in lines if l["kind"] == "end"][0]
    e2e = {"setup_s": setups, "wall_s": plain, "peak_heap_mb": [end["peak_heap_mb"]]}
    layers = {}
    if traced:
        for name in traced[0]["layers"]:
            layers[name] = median([l["layers"][name] for l in traced])
        for layer in traced[0]["self"]:
            layers["self.%s_s" % layer] = median([l["self"][layer] for l in traced])
        layers.update(tracing_cost(plain, traced))
        for l in lines:
            if l["kind"] == "probe":
                layers.update(l["layers"])
    return reps, e2e, layers, {}


def churn(workload, seed, seconds, trace, min_reps, deadline):
    engine_seed = ENGINE_SEEDS[seed % len(ENGINE_SEEDS)]

    def rep(budget, traced):
        return run_exe([workload, "--seed", str(engine_seed), "--budget", budget,
                        "--trace", "1" if traced else "0"], deadline)[0]

    start = time.monotonic()
    setups, full, quarters, tfull = [], [], [], []

    def room():
        # stop before a round that would overrun --seconds
        elapsed = time.monotonic() - start
        return not full or elapsed + elapsed / len(full) <= seconds

    while len(full) < min_reps or room():
        # every repetition is a fresh process, as `afd_sim churn` runs
        setups.append(rep("setup", trace == 1))
        full.append(rep("full", False))
        if trace == 1:
            quarters.append(rep("quarter", True))
            tfull.append(rep("full", True))
    reps = full + tfull
    walls = [r["wall_s"] for r in full]
    e2e = {"setup_s": [r["wall_s"] for r in setups], "wall_s": walls,
           "peak_heap_mb": [r["peak_heap_mb"] for r in full]}
    layers = {}
    if trace == 1:
        zero = median([r["wall_s"] for r in setups])

        def ns_per_event(reps):
            return (median([r["wall_s"] for r in reps]) - zero) / reps[0]["cfg"]["events"] * 1e9

        ns_full, ns_quarter = ns_per_event(tfull), ns_per_event(quarters)
        layers["mega.ns_per_event"] = ns_full
        layers["mega.growth"] = ns_full / ns_quarter
        for k in ("sends", "drops", "crashes", "detections", "false_suspicions"):
            layers["mega." + k] = float(tfull[0]["counters"]["mega." + k])
        layers["self.mega_s"] = median([r["top_s"] for r in tfull])
        layers.update(tracing_cost(walls, tfull))
        layers.update(run_exe(["layers", workload], deadline)[0]["layers"])
        reps = reps + quarters
    return reps + setups, e2e, layers, {"churn_cfg": full[0]["cfg"]}


def main():
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)
    build()

    def measure(workload, seconds, trace, min_reps):
        run = churn if workload in CHURN else in_process
        return run(workload, a.seed, seconds, trace, min_reps, deadline)

    if a.trace == 0:
        reps, e2e, layers, extra = measure(a.workload, a.seconds, 0, MIN_REPS[0])
    else:
        # half the time for the workload's own traced repetitions, the
        # rest for the layers it does not run
        reps, e2e, own, extra = measure(a.workload, a.seconds // 2, 1, MIN_REPS[1])
        layers = {}
        for other in COVERS[a.workload]:
            other_reps, _, other_layers, other_extra = measure(other, 0, 1, 1)
            reps += other_reps
            layers.update(other_layers)
            extra = {**other_extra, **extra}
        layers.update(own)

    failures = sorted({f for r in reps for f in r["fails"]})
    failed = sum(1 for r in reps if not r["ok"])
    # the work counters of one input must repeat exactly
    by_input = {}
    for r in reps:
        key = (r["workload"], r.get("budget"), r.get("seed"))
        by_input.setdefault(key, set()).add(json.dumps(r["counters"], sort_keys=True))
    repeat = all(len(v) == 1 for v in by_input.values())
    if not repeat:
        failures.append("work counters differ between repetitions")
    correct = failed == 0 and repeat

    if a.trace == 0:
        wanted, values = spec["end_to_end"], {k: median(v) for k, v in e2e.items()}
    else:
        wanted, values = spec["per_layer"], layers
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        die("not measured: " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
        "nproc": os.cpu_count(), "jobs": 1,
        "ocaml": reps[0].get("ocaml") if reps else None,
        "max_states": 4000, "ladder": [2, 3, 4, 5],
        "end_to_end": {k: median(v) for k, v in e2e.items()},
        "samples": e2e,
        "per_layer": layers,
        "own_layers": own if a.trace == 1 else {},
        "fail_frac": failed / max(1, len(reps)),
        "failures": failures,
        **extra,
    }
    os.makedirs(".perfbench", exist_ok=True)
    with open(os.path.join(".perfbench", "result-%s-seed%d-trace%d.json"
                           % (a.workload, a.seed, a.trace)), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
