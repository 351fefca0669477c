"""Command line: run one workload, print its metrics, end with the JSON line."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from . import serve, train
from .layers import LayerTraceError
from .measure import cpu_ticks, fingerprint
from .report import RunResult, metric_lines, result_line
from .spec import (
    END_TO_END,
    EXTRA_WORKLOADS,
    PER_LAYER,
    TRAIN_WORKLOADS,
    WORKLOADS,
    check_against_benchmark_json,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python3 perfbench/run.py",
        description="SaberLDA reproduction benchmark: train and serve workloads.",
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS + EXTRA_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def run_workload(args, root: str, out_dir: str) -> RunResult:
    src_dir = os.path.join(root, "src")
    if args.workload == "serve":
        runner = serve.run_traced if args.trace else serve.run_measured
        return runner(args.seed, args.seconds, out_dir)
    spec = TRAIN_WORKLOADS[args.workload]
    if args.trace:
        return train.run_traced(args.workload, spec, args.seed, args.seconds, out_dir)
    return train.run_measured(args.workload, spec, args.seed, args.seconds, src_dir)


def main(root: str, argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    problems = check_against_benchmark_json(os.path.join(root, "BENCHMARK.json"))
    if problems:
        print("BENCHMARK.json and the benchmark disagree:", *problems, sep="\n  ", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, "perfbench", ".out")
    os.makedirs(out_dir, exist_ok=True)
    machine = fingerprint()
    print(f"machine: {json.dumps(machine)}")
    steal_before, ticks_before = cpu_ticks()
    began = time.perf_counter()
    try:
        result = run_workload(args, root, out_dir)
    except LayerTraceError as error:
        print(f"layer trace failed: {error}", file=sys.stderr)
        return 3
    steal_after, ticks_after = cpu_ticks()
    steal_share = (steal_after - steal_before) / max(ticks_after - ticks_before, 1)
    units = (
        {name: unit for name, (unit, _) in PER_LAYER.items()}
        if args.trace
        else {name: unit for name, (unit, _, _) in END_TO_END.items()}
    )
    print(
        f"{args.workload} seed={args.seed} trace={args.trace} "
        f"wall={time.perf_counter() - began:.1f}s cpu_steal={steal_share:.1%}"
    )
    print("\n".join(metric_lines(result, units)))
    for key, value in result.info.items():
        print(f"  info {key}: {json.dumps(value, default=str)}")
    for note in result.notes:
        print(f"  CHECK FAILED: {note}")
    line = result_line(result, units)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "cpu_steal_share": steal_share,
        "samples": {name: result.metrics[name][1] for name in units},
        "info": result.info,
        "notes": result.notes,
        "result": json.loads(line),
    }
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    print(line)
    return 0 if result.correct else 1
