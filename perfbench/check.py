#!/usr/bin/env python3
"""Checks of the benchmark itself. Run from the repository root.

    python3 perfbench/check.py smoke     # every metric printed, with its unit
    python3 perfbench/check.py heldout   # determinism and the held-out seed
    python3 perfbench/check.py spread    # seeds 100-109 on every workload

`smoke` runs each workload briefly with --trace 0 and --trace 1 and checks
that the last stdout line parses and names every metric of BENCHMARK.json
with its unit. `heldout` runs the tuning seed twice and the held-out seed
once per workload and checks that the deterministic metrics repeat exactly
and that the held-out seed's simulated metrics stay in the tuning seed's
range. `spread` runs the ten spread seeds on every workload at full length
and reports each end-to-end metric's interquartile range as a share of its
median, against the metric's bound and a third of it; it fails on a spread
wider than the bound, and flags one above a third of it (setup_s, which
has the largest bound, is held to the bound alone). Exit status is nonzero
on any failure.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

BENCH = json.load(open("BENCHMARK.json"))

# The seed the workloads were tuned on, and one never used while tuning.
TUNING_SEED = 1
HELDOUT_SEED = 7_310_466
# The seeds of a spread set.
SPREAD_SEEDS = range(100, 110)

# Metrics that depend only on the seed: they must repeat exactly.
DETERMINISTIC_E2E = ["bits_per_ref", "analytic_rel_err"]
DETERMINISTIC_LAYER = [
    "core.read_hit_ratio",
    "core.msgs_per_ref",
    "core.replacements_per_kref",
    "core.ownership_transfers_per_kref",
    "core.mode_switches_per_kref",
    "core.updates_multicast_per_kref",
    "omeganet.sharers_mean",
    "omeganet.link_load_max_over_mean",
    "obs.events_per_ref",
]
# How far the held-out seed may move a simulated metric, as a share of
# the tuning seed's value; the analytic error is also held to the model's
# own band (the conformance pair accepts measured/predicted in [0.8, 1.25]).
HELDOUT_BITS_SHARE = 0.05
HELDOUT_ANALYTIC_MAX = 0.05


def run(workload, seed, seconds, trace):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {p.returncode}\n{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1 or result["failed"] != 0:
        raise SystemExit(f"{workload}: {result['correct']=} {result['attempted']=} {result['failed']=}")
    return {k: v["value"] for k, v in result["metrics"].items()}, result


def smoke(_args):
    failures = 0
    for w in BENCH["workloads"]:
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            values, result = run(w["name"], TUNING_SEED, 1, trace)
            want = {m["name"]: m["unit"] for m in BENCH[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = got == want and all(isinstance(v, (int, float)) for v in values.values())
            if trace == 0:
                ok = ok and all(v != 0 for v in values.values())
            failures += not ok
            print(f"{w['name']:<20} trace={trace}: {len(got)} metrics {'ok' if ok else 'MISMATCH'}")
            if not ok:
                print(f"  missing {sorted(set(want) - set(got))} extra {sorted(set(got) - set(want))}")
                print(f"  units {[(k, got.get(k), u) for k, u in want.items() if got.get(k) != u]}")
    return failures


def heldout(_args):
    failures = 0
    for w in BENCH["workloads"]:
        name = w["name"]
        a0, _ = run(name, TUNING_SEED, 1, 0)
        b0, _ = run(name, TUNING_SEED, 1, 0)
        a1, _ = run(name, TUNING_SEED, 1, 1)
        b1, _ = run(name, TUNING_SEED, 1, 1)
        h0, _ = run(name, HELDOUT_SEED, 1, 0)
        for m in DETERMINISTIC_E2E:
            same = a0[m] == b0[m]
            failures += not same
            print(f"{name:<20} {m:<36} seed {TUNING_SEED} twice: {a0[m]!r} {b0[m]!r} {'same' if same else 'DIFFER'}")
        for m in DETERMINISTIC_LAYER:
            same = a1[m] == b1[m]
            failures += not same
            print(f"{name:<20} {m:<36} seed {TUNING_SEED} twice: {a1[m]!r} {b1[m]!r} {'same' if same else 'DIFFER'}")
        bits_ok = abs(h0["bits_per_ref"] / a0["bits_per_ref"] - 1) <= HELDOUT_BITS_SHARE
        err_ok = max(a0["analytic_rel_err"], h0["analytic_rel_err"]) <= HELDOUT_ANALYTIC_MAX
        failures += (not bits_ok) + (not err_ok)
        print(f"{name:<20} held-out seed {HELDOUT_SEED}: bits_per_ref {h0['bits_per_ref']:.3f} "
              f"vs {a0['bits_per_ref']:.3f} {'ok' if bits_ok else 'OUT OF RANGE'}; analytic_rel_err "
              f"{h0['analytic_rel_err']:.5f} vs {a0['analytic_rel_err']:.5f} {'ok' if err_ok else 'OUT OF RANGE'}")
    return failures


def spread(_args):
    failures = 0
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    for name in [w["name"] for w in BENCH["workloads"]]:
        runs, secs = [], []
        for s in SPREAD_SEEDS:
            start = time.monotonic()
            runs.append(run(name, s, BENCH["run_seconds"], 0)[0])
            secs.append(time.monotonic() - start)
        print(f"{name:<20} wall seconds per run: median {statistics.median(secs):.1f}, max {max(secs):.1f}")
        for m, bound in bounds.items():
            values = [r[m] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            if share > bound:
                verdict = "WIDER THAN BOUND"
                failures += 1
            elif m == "setup_s" or share < bound / 3:
                verdict = "ok"
            else:
                verdict = "within bound, above a third of it"
            print(f"{name:<20} {m:<18} median {med:<14.6g} iqr/median {share:.4f} "
                  f"(bound {bound}) {verdict}")
        print(f"{name:<20} raw: {json.dumps(runs)}", file=sys.stderr)
    return failures


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    for name in ["smoke", "heldout", "spread"]:
        sub.add_parser(name)
    args = p.parse_args()
    failures = {"smoke": smoke, "heldout": heldout, "spread": spread}[args.cmd](args)
    print(f"{args.cmd}: {'OK' if failures == 0 else f'{failures} FAILED'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
