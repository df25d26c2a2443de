"""One workload in a fresh interpreter: set up, run, report.

Started by run.py, never by hand.  Modes:

  setup    import parastrata and warm up, report the set-up time;
  measure  set up, then run rounds in a closed loop (one client, no
           extra threads) until the time inside run_command reaches
           --seconds, with tracing off;
  trace    the same with spans installed after warm-up;
  replay   run exactly --rounds rounds untraced (the tracing overhead
           baseline for a trace run).

The result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import sys
import time
from array import array
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402

# The host's core speed drifts by up to 2x within seconds (other tenants,
# frequency changes), and parastrata's own code slows down with it.
# While a request runs, a SIGALRM handler (no extra thread) times one
# pass of a fixed calibration loop every SAMPLE_PERIOD_S; the handler's
# time is taken out of the request's time.  The mean pass time over a
# window of requests gives the window's slowdown, and timings are
# rescaled to a reference speed at which one pass takes REFERENCE_UNIT_S.
SAMPLE_PERIOD_S = 0.005
REFERENCE_UNIT_S = 100e-6
WINDOW_S = 5.0


def _unit() -> Fraction:
    """Fraction arithmetic, like parastrata's own inner loops."""
    acc = Fraction(0)
    for i in range(1, 40):
        acc += Fraction(i % 7, i % 11 + 1)
    return acc


class SpeedProbe:
    """Samples the calibration loop during `timed` calls.  Use as a
    context manager; it owns SIGALRM and the real-time interval timer."""

    def __init__(self):
        self.active = False
        self.units = 0
        self.unit_s = 0.0
        self.handler_s = 0.0

    def _sample(self, signum, frame) -> None:
        if not self.active:
            return
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # garbage left by the request is not the loop's cost
        try:
            _unit()
        finally:
            if enabled:
                gc.enable()
        t1 = time.perf_counter()
        self.units += 1
        self.unit_s += t1 - t0
        self.handler_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn, *args):
        """fn(*args) with its wall and CPU seconds (sampling excluded) and
        the (passes, seconds) of calibration sampled meanwhile."""
        u0, s0, h0 = self.units, self.unit_s, self.handler_s
        self.active = True
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = time.perf_counter()
            c1 = time.process_time()
            self.active = False
        handler = self.handler_s - h0
        return result, t1 - t0 - handler, c1 - c0 - handler, (self.units - u0, self.unit_s - s0)


def slowdowns(units: array, unit_s: array, lat: array) -> list[float]:
    """Per request, the slowdown against the reference speed over the
    window of consecutive requests (at least WINDOW_S of request time) it
    belongs to; a short last window joins the one before it."""
    windows: list[list[int]] = []
    busy = WINDOW_S
    for i, dt in enumerate(lat):
        if busy >= WINDOW_S:
            windows.append([])
            busy = 0.0
        windows[-1].append(i)
        busy += dt
    if len(windows) > 1 and busy < WINDOW_S:
        windows[-2].extend(windows.pop())
    out = [0.0] * len(lat)
    for window in windows:
        slowdown = sum(unit_s[i] for i in window) / sum(units[i] for i in window) / REFERENCE_UNIT_S
        for i in window:
            out[i] = slowdown
    return out


def set_up(warmup, probe: SpeedProbe) -> tuple[float, float, object]:
    """Import parastrata and run the warm-up requests; the inputs were
    generated before the clock starts.  Returns the set-up time, its
    slowdown against the reference speed, and the cli module."""

    def import_and_warm_up():
        from parastrata import cli

        return cli, [cli.run_command(req.argv, req.stdin) for req in warmup]

    (cli, outputs), setup_s, _, (units, secs) = probe.timed(import_and_warm_up)
    for req, (code, out, err) in zip(warmup, outputs):
        reason = check.check(req, code, out, err)
        if reason:
            raise SystemExit(f"warm-up request failed: {req.kind}: {reason}")
    return setup_s, secs / units / REFERENCE_UNIT_S, cli


def run_rounds(cli, rounds, probe: SpeedProbe, seconds: float | None, max_rounds: int | None, tracer=None) -> dict:
    """Closed loop over whole rounds.  Only the time inside run_command
    counts; generating and checking happen outside the clock.  A run
    stops at the round boundary nearest to `seconds`."""
    # typed arrays keep the benchmark's own memory out of peak RSS
    lat, cpu, units, unit_s = array("d"), array("d"), array("q"), array("d")
    failures = []
    ops = 0
    out_bytes = 0
    nonzero = 0
    hit, tried = 0, 0
    degrees: dict[int, int] = {}
    busy = 0.0
    digest = hashlib.sha256()
    done = 0
    sampling_s = probe.handler_s
    while max_rounds is None or done < max_rounds:
        if seconds is not None and done and busy + busy / done / 2 >= seconds:
            break
        for req in next(rounds):
            stdin = req.stdin
            if tracer is not None:
                tracer.request = len(lat)
            (code, out, err), wall, cpu_s, (n, secs) = probe.timed(cli.run_command, req.argv, stdin)
            lat.append(wall)
            cpu.append(cpu_s)
            units.append(n)
            unit_s.append(secs)
            busy += wall
            if done == 0:
                digest.update(out)
            out_bytes += len(out)
            nonzero += code != 0
            reason = check.check(req, code, out, err)
            if reason:
                failures.append(f"{req.kind}: {reason}")
            ops += req.expect["lines"] if req.kind == "sweep" else 1
            if req.kind == "descend" and not reason:
                d = req.expect["order"]
                hit += sum(1 for row in req.expect["matrix"] if any(row))
                tried += d
                deg = gen.field_degree(d)
                degrees[deg] = degrees.get(deg, 0) + 1
        done += 1
    return {
        "rounds": done,
        "ops": ops,
        "latency_s": lat,
        "cpu_s": cpu,
        "units": units,
        "unit_s": unit_s,
        "sampling_s": probe.handler_s - sampling_s,
        "failures": failures,
        "output_bytes": out_bytes,
        "exit_nonzero": nonzero,
        "eigenspaces_hit": hit,
        "eigenspaces_tried": tried,
        "field_degrees": degrees,
        "round0_sha256": digest.hexdigest(),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "replay"), required=True)
    ap.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--spans", default=None, help="file for the trace run's spans")
    args = ap.parse_args()

    rounds, warmup = gen.streams(args.workload, args.seed)
    tracer = None
    with SpeedProbe() as probe:
        setup_s, setup_slowdown, cli = set_up(warmup, probe)
        result: dict = {"setup_s": setup_s, "setup_slowdown": setup_slowdown}
        if args.mode != "setup":
            if args.mode == "trace":
                import tracing

                tracer = tracing.Tracer()
                tracing.install(tracer)
            seconds = None if args.mode == "replay" else args.seconds
            result.update(run_rounds(cli, rounds, probe, seconds, args.rounds, tracer))
    if tracer is not None:
        result["stats"] = tracer.stats
        result["counts"] = dict(tracer.counts)
        keys = tracer.point_keys
        result["point_surveys"] = len(keys)
        result["distinct_point_keys"] = len(set(keys))
        root = [s for s in tracer.spans if s[3] == "cli.run_command"]
        result["root_span_s"] = sum(s[5] - s[4] for s in root)
        result["spans"] = len(tracer.spans)
        if args.spans:
            os.makedirs(os.path.dirname(args.spans), exist_ok=True)
            tracer.write_spans(args.spans)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if "latency_s" in result:
        result["slowdown"] = slowdowns(result.pop("units"), result.pop("unit_s"), result["latency_s"])
        result["latency_s"] = result["latency_s"].tolist()
        result["cpu_s"] = result["cpu_s"].tolist()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
