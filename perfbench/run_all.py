#!/usr/bin/env python3
"""Run every workload of the benchmark, untraced and traced, and print one table.

    python3 perfbench/run_all.py [--seed N] [--seconds S] [--out FILE]

Run from the repository root. Each workload runs twice through the command in
BENCHMARK.json: with --trace 0 for the end-to-end metrics and with --trace 1 for the
per-layer metrics. With --out, the results (environment, both metric sets and the layer
share table) are also written as JSON; perfbench/baseline.json was made this way.
"""

import argparse
import json
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr)
        sys.exit(f"{workload} (trace {trace}) failed with exit code {done.returncode}")
    env = json.loads(lines[-2])["env"]
    result = json.loads(lines[-1])
    return env, result


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def share_table(e2e, layers):
    """Where an op's host time goes.

    In-process workloads: the world build, then the layers of the stepped DSMF session.
    campaign_served: the worker's two requests and its own unit work; the gossip, policy
    and engine shares there are of one replayed unit session.
    """
    op_ms = e2e["op_s"] * 1e3
    shares = {}
    if layers["rununit.unit_ms_p50"] > 0:
        shares["server_pull_complete"] = (
            layers["server.pull_ms_p50"] + layers["server.complete_ms_p50"]) / op_ms
        shares["rununit"] = layers["rununit.unit_ms_p50"] / op_ms
    else:
        shares["setup"] = e2e["setup_s"] * 1e3 / op_ms
    for layer in ("gossip", "policy", "engine"):
        shares[layer] = layers[f"{layer}.share"]
    shares["pairwise_of_build"] = layers["topology.pairwise_ms"] / layers["scenario.build_ms"]
    return shares


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out")
    opts = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    doc = {"seed": opts.seed, "seconds": seconds, "workloads": {}}
    for w in (w["name"] for w in bench["workloads"]):
        env, e2e = run(bench["command"], w, opts.seed, seconds, 0)
        _, traced = run(bench["command"], w, opts.seed, seconds, 1)
        e, layers = values(e2e), values(traced)
        doc["workloads"][w] = {
            "env": env,
            "correct": e2e["correct"] and traced["correct"],
            "end_to_end": e,
            "per_layer": layers,
            "shares": share_table(e, layers),
        }
        print(f"== {w}  (correct={e2e['correct'] and traced['correct']}, "
              f"{env['op_samples']} op samples, nproc {env['nproc']}, pool {env['pool_threads']})")
        for name, value in e.items():
            print(f"  {name:22s} {value:14.6g} {units[name]}")
        shares = doc["workloads"][w]["shares"]
        print("  shares: " + "  ".join(f"{k} {v:.3f}" for k, v in shares.items()))

    if opts.out:
        with open(opts.out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
