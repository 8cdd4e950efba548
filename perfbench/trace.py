#!/usr/bin/env python3
"""Traced run of the benchmark: every per-layer metric, as a table.

    python3 perfbench/trace.py [--workload train|generate|serve] [--seed 1]

Runs `run.py --trace 1` once and prints each per-layer metric of
BENCHMARK.json with its value, unit and the end-to-end metric it should
move. The traced run switches on the program's own trace spans
(obs::SetTracingEnabled / obs::CollectSpanStats) and its run log
(CpganConfig::metrics_out) only around the calls that read them; the
end-to-end metrics always come from runs with both off.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Layer metric prefix or name -> the end-to-end metric(s) it should move,
# with the workload.
MOVES = {
    "graph.load_ms": "setup_s (all)",
    "graph.spectral_ms": "op_ms, ops_per_s on train",
    "community.louvain_ms": "op_ms, ops_per_s on train",
    "train.warm_start_ms": "setup_s on serve",
    "train.": "op_ms, ops_per_s on train",
    "trace.train_": "op_ms, ops_per_s on train",
    "trace.encoder_": "op_ms, ops_per_s on train",
    "trace.discriminator_": "op_ms, ops_per_s on train",
    "trace.decoder_decode_ms": "op_ms, ops_per_s on train",
    "trace.tensor_": "op_ms, ops_per_s on train",
    "core.latents_ms": "op_ms on generate (not serve: cached)",
    "core.": "op_ms on generate and serve",
    "gen.peak_rss_mb": "none gated (generation memory)",
    "gen.": "op_ms on generate",
    "trace.decoder_decode_calls": "op_ms on generate and serve",
    "trace.hier_": "op_ms on generate and serve",
    "trace.decode_matmul_share": "op_ms on generate and serve",
    "tensor.matmul_nt_gflops": "op_ms on generate and serve",
    "tensor.matmul_gflops": "op_ms on train",
    "tensor.spmm_gflops": "op_ms on train, core.latents_ms",
    "tensor.matmul_tile_cols": "(recorded, not pinned)",
    "nn.gru_": "op_ms on all",
    "serve.cores_busy": "ops_per_s on serve",
    "serve.": "op_ms on serve",
    "obs.trace_overhead_pct": "(none: cost of the traced run)",
    "quality.": "(none: community preservation, not gated)",
}


def moves(name):
    best = max((key for key in MOVES if name.startswith(key)), key=len,
               default=None)
    return MOVES[best] if best else ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="generate")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds",
               str(spec["run_seconds"]), "--trace", "1"]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return done.returncode
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for metric in spec["per_layer"]:
        value = result["metrics"][metric["name"]]
        print(f"{metric['name']:32s} {value['value']:12.4g} {value['unit']:8s} "
              f"-> {moves(metric['name'])}")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
