"""mscheme benchmark: one seeded workload in closed loop, one caller, no threads.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Progress goes to stderr.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:

* ``--trace 0`` reports the end-to-end metrics, measured with no wrapper
  installed: ``setup_s`` (median of several set-ups), ``op_p50_ms``,
  ``op_p90_ms``, ``ops_per_s``, ``peak_rss_mb`` and ``ok_ratio``.
* ``--trace 1`` runs the same operations twice, untraced and then with the
  per-layer wrappers of ``tracer.py``, checks that both produce identical
  outputs, and reports the per-layer metrics and ``trace.overhead_ratio``.

Every time reported, except ``cli.interpreter_ms`` and ``cli.import_ms``,
is corrected for the host's speed by ``hostspeed.py``.  The per-layer
``host.calibration_ms`` is the calibration's median raw time in the traced
phase; a raw time is about the corrected one times ``host.calibration_ms``
over the clock's ``REFERENCE_MS``.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import resource
import statistics
import subprocess
import sys
import time

import hostspeed
import inputs
import tracer
import workloads

SETUP_REPEATS = {"construct": 25, "invariants": 3, "cli": 7}
CLOCK = {"construct": hostspeed.SampledClock, "invariants": hostspeed.SampledClock,
         "cli": hostspeed.SpawnClock}
# a run keeps going, in whole passes, until it has this many samples, so
# that ten of them lie beyond the 90th percentile
MIN_OPS = 100
PROBE_REPEATS = 5


class Phase:
    def __init__(self):
        self.ops = []
        self.latencies = []  # corrected for host speed, in op order
        self.digests = []
        self.failed = 0
        self.problems = []
        self.clock = None

    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def timed_phase(wl, seconds: float, clock_type, replay: list | None = None) -> Phase:
    """Run whole passes of ``wl`` until ``seconds`` have passed and
    ``MIN_OPS`` operations are done, or run exactly the ops in ``replay``.
    Each op's latency covers only its call into the program.  A collection
    before each op starts it with an empty young generation, so that when
    the cyclic collector runs inside an op does not depend on the order the
    seed chose."""
    phase = Phase()
    gc.collect()
    started = time.perf_counter()
    with clock_type() as clock:
        for ops in (wl.passes() if replay is None else [replay]):
            for op in ops:
                gc.collect()
                t0 = clock.start()
                try:
                    out = wl.run(op)
                    error = None
                except Exception as exc:  # a failing op is counted, the run goes on
                    out, error = None, f"{op!r}: {type(exc).__name__}: {exc}"
                clock.stop(t0)
                phase.ops.append(op)
                problems = [error] if error else wl.check(op, out)
                phase.digests.append(inputs.digest(out))
                if problems:
                    phase.failed += 1
                    phase.problems += problems
            if (replay is None and time.perf_counter() - started >= seconds
                    and len(phase.ops) >= MIN_OPS):
                break
    phase.latencies, phase.clock = clock.corrected(), clock
    return phase


def set_up(name: str, ms, seed: int, reference: dict, repeats: int):
    """Build the workload ``repeats`` times from scratch; return the last
    one and the median corrected set-up time."""
    wl = None
    with CLOCK[name]() as clock:
        for _ in range(repeats):
            if wl is not None:
                wl.cleanup()
            wl = workloads.WORKLOADS[name](ms, seed, reference)
            gc.collect()
            t0 = clock.start()
            wl.setup()
            clock.stop(t0)
    return wl, statistics.median(clock.corrected())


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(name: str, phase: Phase, setup_s: float) -> dict:
    lat_ms = [x * 1000.0 for x in phase.latencies]
    deciles = statistics.quantiles(lat_ms, n=10)
    values = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (deciles[8], "ms"),
        "ops_per_s": (phase.ops_per_s(), "1/s"),
        "peak_rss_mb": (peak_rss_mb(name), "MB"),
        "ok_ratio": (1.0 - phase.failed / len(phase.ops), "1"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# --- per-layer ------------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def _probe_ms(argv: list) -> float:
    runs = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, env=workloads.child_env(), capture_output=True, check=True)
        runs.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(runs)


def import_ms() -> float:
    """``-X importtime`` cumulative time of the top-level ``mscheme`` imports."""
    runs = []
    for _ in range(PROBE_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mscheme.cli"],
                              env=workloads.child_env(), capture_output=True, text=True,
                              check=True)
        total = 0
        for m in _IMPORT_LINE.finditer(proc.stderr):
            if len(m.group(3)) == 1 and m.group(4).split(".")[0] == "mscheme":
                total += int(m.group(2))
        runs.append(total / 1000.0)
    return statistics.median(runs)


def per_layer(wl, tr: tracer.Tracer, untraced: Phase, traced: Phase) -> dict:
    n = len(traced.ops)
    k = traced.clock.REFERENCE_MS / traced.clock.median_ms()
    out = {}
    for span in tracer.SPANS:
        out[f"{span}.calls"] = (tr.calls[span] / n, "count/op")
        out[f"{span}.s"] = (k * tr.total[span] / n, "s/op")
        out[f"{span}.self_s"] = (k * tr.self_time[span] / n, "s/op")
    c = tr.counts
    for name in ("scheme.validate_scheme.elements", "scheme.validate_scheme.pairs",
                 "toric.layers_poset.layers", "geometric.scheme_from_geometric.elements_out"):
        out[name] = (c[name] / n, "count/op")
    inputs_n = c["tutte.tutte_delcon.input_elements"]
    out["tutte.tutte_delcon.subobjects_per_element"] = (
        c["tutte.tutte_delcon.verify_simplicial_calls"] / inputs_n if inputs_n else 0.0, "1")
    out["cli.interpreter_ms"] = (_probe_ms([sys.executable, "-c", "pass"]), "ms")
    out["cli.import_ms"] = (import_ms(), "ms")
    out["cli.main.s"] = (k * wl.main_seconds / n, "s/op")
    out["trace.overhead_ratio"] = (traced.ops_per_s() / untraced.ops_per_s(), "1")
    out["host.calibration_ms"] = (traced.clock.median_ms(), "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def traced_run(name: str, wl, seconds: float):
    untraced = timed_phase(wl, seconds / 2, CLOCK[name])
    tr = tracer.Tracer()
    if name == "cli":
        wl.tracer = tr
    else:
        tr.install()
    try:
        traced = timed_phase(wl, 0, CLOCK[name], replay=untraced.ops)
    finally:
        tr.uninstall()
        wl.tracer = None
    if traced.digests != untraced.digests:
        differing = sum(a != b for a, b in zip(traced.digests, untraced.digests))
        traced.failed += differing
        traced.problems.append(f"{differing} outputs differ between traced and untraced runs")
    return untraced, traced, per_layer(wl, tr, untraced, traced)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    ms = workloads.import_program()
    reference = workloads.load_reference()
    wl, setup_s = set_up(args.workload, ms, args.seed, reference,
                         SETUP_REPEATS[args.workload] if not args.trace else 1)
    try:
        if args.trace:
            untraced, traced, metrics = traced_run(args.workload, wl, args.seconds)
            phases = [untraced, traced]
        else:
            phase = timed_phase(wl, args.seconds, CLOCK[args.workload])
            metrics = end_to_end(args.workload, phase, setup_s)
            phases = [phase]
    finally:
        wl.cleanup()

    problems = list(wl.setup_problems) + [p for ph in phases for p in ph.problems]
    for p in problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)
    attempted = sum(len(ph.ops) for ph in phases)
    failed = sum(ph.failed for ph in phases)
    print(f"perfbench: {args.workload} seed {args.seed}: {attempted} ops, {failed} failed, "
          f"setup {setup_s:.3f}s", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
