"""parastrata benchmark: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see perfbench/README.md):
sweep, descend, requests.  Each run starts fresh interpreters (worker.py),
so caches and peak RSS start empty.

--trace 0  end-to-end metrics: set-up time (median over several fresh
           interpreters), throughput, CPU per op, request latency and
           peak RSS, with tracing off.
--trace 1  per-layer metrics from a traced run, the tracing overhead
           (against an untraced replay of the same rounds) and the wall
           share no layer span covers.

Every output is checked.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 12  # extra fresh interpreters that only set up
DEFAULT_SEED = 0
DEADLINE_S = 170
WORKLOADS = ("sweep", "descend", "requests")


def worker(args, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"worker {' '.join(extra)} exited {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def tail(samples: list[float]) -> tuple[str, float]:
    """The highest of p99, p90 and p50 with at least ten samples beyond
    it (nearest rank); the maximum when there are too few samples."""
    xs = sorted(samples)
    for p in (99, 90, 50):
        if len(xs) * (100 - p) / 100 >= 10:
            return f"p{p}", xs[math.ceil(p / 100 * len(xs)) - 1]
    return "max", xs[-1]


def end_to_end(args, deadline: float) -> tuple[dict, dict, list[str]]:
    probes = [worker(args, deadline, "--mode", "setup") for _ in range(SETUP_PROBES)]
    res = worker(args, deadline, "--mode", "measure", "--seconds", str(args.seconds))
    setups = [p["setup_s"] / p["setup_slowdown"] for p in probes + [res]]
    raw = res["latency_s"]
    lat = [t / k for t, k in zip(raw, res["slowdown"])]
    cpu = [t / k for t, k in zip(res["cpu_s"], res["slowdown"])]
    name, tail_s = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (res["ops"] / sum(lat), "1/s"),
        "cpu_ms_per_op": (1000 * sum(cpu) / res["ops"], "ms"),
        "req_p50_ms": (1000 * statistics.median(lat), "ms"),
        "req_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
    }
    notes = [
        f"requests {len(lat)} in {res['rounds']} rounds, ops {res['ops']}, wall in run_command {sum(raw):.3f} s",
        f"times at reference speed; measured slowdown {sum(raw) / sum(lat):.3f} (raw ops_per_s "
        f"{res['ops'] / sum(raw):.6g}, raw req_p50_ms {1000 * statistics.median(raw):.6g})",
        f"req_tail_ms is {name} of {len(lat)} samples",
        f"failed_frac {len(res['failures']) / len(lat):.6f} ({len(res['failures'])} of {len(lat)})",
        f"setup_s samples {', '.join(f'{s:.4f}' for s in setups)}",
    ]
    return metrics, res, notes


def per_layer(args, deadline: float) -> tuple[dict, dict, list[str]]:
    spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    res = worker(args, deadline, "--mode", "trace", "--seconds", str(args.seconds), "--spans", str(spans))
    base = worker(args, deadline, "--mode", "replay", "--rounds", str(res["rounds"]))
    traced_s = sum(t / k for t, k in zip(res["latency_s"], res["slowdown"]))
    plain_s = sum(t / k for t, k in zip(base["latency_s"], base["slowdown"]))
    # spans also hold the speed sampling that interrupted them
    wall = sum(res["latency_s"]) + res["sampling_s"]
    scale = traced_s / wall
    ops = res["ops"]
    stats, counts = res["stats"], res["counts"]

    def total(name):
        return stats.get(name, [0, 0.0, 0.0])[1] * scale / ops

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2] * scale / ops

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0] / ops

    m = {
        "cli.json_decode_s": (total("cli.json_decode"), "s/op"),
        "cli.json_encode_s": (total("cli.json_encode"), "s/op"),
        "cli.handler.self_s": (self_s("cli.handler"), "s/op"),
        "cli.run_command.self_s": (self_s("cli.run_command"), "s/op"),
        "cli.output_bytes": (res["output_bytes"] / ops, "bytes/op"),
        "cli.exit_nonzero": (res["exit_nonzero"], "count"),
        "strata.codim_report.calls": (calls("strata.codim_report"), "calls/op"),
        "strata.codim_report.self_s": (self_s("strata.codim_report"), "s/op"),
        "strata.enumerate_matrices.calls": (calls("strata.enumerate_matrices"), "calls/op"),
        "strata.enumerate_matrices.s": (total("strata.enumerate_matrices"), "s/op"),
        "strata.matrices_yielded": (counts.get("strata.enumerate_matrices.yielded", 0) / ops, "count/op"),
        "strata.point_surveys": (res["point_surveys"] / ops, "count/op"),
        "strata.point_key_reuse": (
            1 - res["distinct_point_keys"] / res["point_surveys"] if res["point_surveys"] else 0.0, "ratio"),
    }
    for name in ("kernel", "rref", "reduced_row_basis", "cyclotomic_inverse", "matrix_mul"):
        m[f"exact.{name}.calls"] = (calls(f"exact.{name}"), "calls/op")
        m[f"exact.{name}.s"] = (total(f"exact.{name}"), "s/op")
    m["exact.cyclotomic_mul.calls"] = (counts.get("exact.cyclotomic_mul", 0) / ops, "calls/op")
    for name in ("descend", "automorphism_check", "flag_build", "check_parabolic_morphism"):
        m[f"eigenflag.{name}.s"] = (total(f"eigenflag.{name}"), "s/op")
    m["eigenflag.nested_eigenbasis.self_s"] = (self_s("eigenflag.nested_eigenbasis"), "s/op")
    tried = res["eigenspaces_tried"]
    m["eigenflag.eigenspace_hit_ratio"] = (res["eigenspaces_hit"] / tried if tried else 0.0, "ratio")
    descends = sum(res["field_degrees"].values())
    for deg in (1, 2, 4, 6, 8):
        share = res["field_degrees"].get(str(deg), 0) / descends if descends else 0.0
        m[f"input.descend_field_degree.{deg}"] = (share, "ratio")
    for name in ("parabolic.genericity_witness", "cover.pushforward", "flagcoh.kunneth_report"):
        m[f"{name}.calls"] = (calls(name), "calls/op")
        m[f"{name}.s"] = (total(name), "s/op")
    m["flagcoh.levi_components.calls"] = (calls("flagcoh.levi_components"), "calls/op")
    m["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    m["trace.uncovered_frac"] = ((wall - res["root_span_s"]) / wall, "ratio")
    notes = [
        f"traced {len(res['latency_s'])} requests in {res['rounds']} rounds ({ops} ops): "
        f"{traced_s:.3f} s traced vs {plain_s:.3f} s untraced replay, at reference speed",
        f"{res['spans']} spans written to {spans.relative_to(ROOT)}",
        f"failed_frac {len(res['failures']) / len(res['latency_s']):.6f}",
    ]
    return m, res, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "parastrata" / "__init__.py").is_file():
        print(f"error: no parastrata sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    metrics, res, notes = (per_layer if args.trace else end_to_end)(args, deadline)

    failures = res["failures"]
    correct = not failures
    golden = json.loads((HERE / "golden.json").read_text())
    if args.seed == DEFAULT_SEED:
        ok = golden.get(args.workload) == res["round0_sha256"]
        correct = correct and ok
        notes.append(f"round-0 stdout sha256 {res['round0_sha256']} {'matches' if ok else 'DIFFERS from'} golden.json")
    for line in notes:
        print(f"# {line}")
    for failure in failures[:10]:
        print(f"# FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:9s} {name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(res["latency_s"]),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
