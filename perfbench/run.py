#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload check-classes --seed 1 \\
        --seconds 40 --trace 0

One process, one thread, a closed loop: operations run one after the
other over the stored inputs that ``--seed`` draws from
``perfbench/inputs`` (see ``gen.py``). A run makes a fixed number of whole
passes over its operations, the number that fills ``--seconds`` at the
reference pass time of the workload, so every run of one length attempts
the same operations the same number of times. Every output is checked.

``--trace 0`` prints the end-to-end metrics, from each operation's best
time over the passes. ``--trace 1`` alternates untraced passes with
passes that call the layers' public functions one at a time with a span
around each call, writes the spans to ``perfbench/out/`` and prints the
per-layer metrics, per traced pass. The last line of standard output is
the result object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / "inputs"
OUT = HERE / "out"
SCHEMA = ROOT / "docs" / "report.schema.json"

# per-layer busy time: layer metric -> span names that count toward it
LAYER_SPANS = {
    "sfc_core.busy_s": ("sfc_core.parse_sfc", "sfc_core.validate_sfc"),
    "petri_net.busy_s": ("petri_net.translate",),
    "path_engine.busy_s": ("path_engine.path_constructor",),
    "containment.busy_s": ("containment.containment_checker",),
    # on cover-chains the document the user gets is the path-cover JSON
    "report.busy_s": ("report.build_report", "report.render_text",
                      "report.render_json", "path_engine.cover_to_json"),
    "oracle.busy_s": ("oracle.confirm_equivalent",),
}
COUNT_UNITS = {"report.bytes": "B"}
# an operation's best time is taken over at least this many passes
MIN_PASSES = 4


def process_age() -> float:
    """Seconds since this process started, read from its start time in
    ``/proc/self/stat`` (10 ms resolution), so that set-up includes
    interpreter start."""
    with open("/proc/self/stat", encoding="ascii") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


class Tally:
    def __init__(self, wrong_output):
        self.wrong_output = wrong_output
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.refuted = set()

    def attempt(self, op, call) -> float:
        """Run ``call`` as one operation of ``op``; check its output outside
        the timed region. Returns the operation's time in seconds.

        The operation starts as a fresh ``plccontain`` process would: no
        garbage left by the one before it, and the objects alive so far
        (the benchmark's own among them) frozen out of the collector's
        reach. Otherwise where a full collection falls depends on the order
        of the pass, and it lands on the same operation in every pass."""
        self.attempted += 1
        gc.collect()
        gc.freeze()
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # one crashing operation must not end the run
            elapsed = time.perf_counter() - t0
            self.failed += 1
            self.problems.append(f"{op.id}: {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - t0
        try:
            if op.check(result) == "refuted":
                self.failed += 1
                self.refuted.add(op.id)
        except self.wrong_output as exc:
            self.failed += 1
            self.problems.append(str(exc))
        return elapsed


def pass_count(workload: str, seconds: float, pass_seconds: dict) -> int:
    """Passes in a run of ``seconds``: fixed by the arguments, not by how
    fast this run goes, so the work of a run never depends on the machine."""
    return max(MIN_PASSES, round(seconds / pass_seconds[workload]))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def best_times(times: dict) -> list:
    """Each operation's fastest time over the passes. An operation does the
    same work on every pass, so a slower repeat is time that the shared
    machine took from it."""
    return [min(samples) for samples in times.values()]


def end_to_end(best: list, setup_s: float) -> dict:
    return {
        "ops_per_s": metric(len(best) / sum(best), "1/s"),
        "op_p50_ms": metric(statistics.median(best) * 1e3, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(spans: list, counts: dict, passes: int) -> dict:
    busy = dict.fromkeys(LAYER_SPANS, 0.0)
    layer_of = {name: layer for layer, names in LAYER_SPANS.items()
                for name in names}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if name in layer_of:
            busy[layer_of[name]] += end - start
        if parent >= 0:
            child_time[parent] += end - start
    other = sum(end - start - child_time[i]
                for i, (_n, start, end, parent, _op) in enumerate(spans)
                if parent < 0)
    out = {name: metric(value / passes, "s") for name, value in busy.items()}
    out["cli.other_s"] = metric(other / passes, "s")
    for name, value in counts.items():
        out[name] = metric(value // passes, COUNT_UNITS.get(name, "count"))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in (ROOT / "src" / "plccontain" / "__init__.py",
                 INPUTS / "manifest.json", SCHEMA):
        if not need.is_file():
            print(f"perfbench: missing {need}", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import jsonschema
    except ImportError:
        print("perfbench: jsonschema is needed to check report.json",
              file=sys.stderr)
        return 2
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    manifest = json.loads((INPUTS / "manifest.json").read_text("utf-8"))
    schema = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text("utf-8")))
    rng = random.Random(args.seed)
    ops = wl.WORKLOADS[args.workload](manifest, INPUTS, OUT, rng, schema)
    rng.shuffle(ops)
    OUT.mkdir(parents=True, exist_ok=True)
    tally = Tally(wl.WrongOutput)

    passes = pass_count(args.workload, args.seconds, wl.PASS_SECONDS)
    untraced = {op.id: [] for op in ops}

    def plain(op):
        untraced[op.id].append(tally.attempt(op, op.run))

    if not args.trace:
        setup_s = process_age()
        for _ in range(passes):
            for op in ops:
                plain(op)
        metrics = end_to_end(best_times(untraced), setup_s)
        summary = (f"{passes} passes of {len(ops)} operations; metrics "
                   f"from the best time of each operation")
    else:
        # untraced and traced passes alternate, so that both see the same
        # machine; the untraced documents give the path counts the user
        # sees, and the best times of both give the tracing overhead
        tracer = wl.Tracer(time.perf_counter)
        counts = dict.fromkeys(wl.COUNT_NAMES, 0)
        traced = {op.id: [] for op in ops}
        traced_passes = 0
        ref_paths = 0
        for n in range(passes):
            if n % 2 == 0:
                for op in ops:
                    plain(op)
                ref_paths = sum(op.paths for op in ops)
                continue
            traced_passes += 1
            for op in ops:
                tracer.op_id = f"{n}:{op.id}"
                traced[op.id].append(tally.attempt(
                    op, lambda: tracer.call("op", op.traced, tracer)))
                for name, value in op.counts.items():
                    counts[name] += value
            if counts["path_engine.paths"] != ref_paths * traced_passes:
                tally.problems.append(
                    f"traced path covers of pass {n} hold "
                    f"{counts['path_engine.paths']} paths in all; the "
                    f"untraced documents show {ref_paths} per pass")
        metrics = per_layer(tracer.spans, counts, traced_passes)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with open(trace_file, "w", encoding="utf-8") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
        ref_s = sum(best_times(untraced))
        traced_s = sum(best_times(traced))
        summary = (f"{passes} passes of {len(ops)} operations, "
                   f"{traced_passes} traced; best times sum to "
                   f"{traced_s:.3f} s traced and {ref_s:.3f} s untraced "
                   f"({traced_s / ref_s - 1:+.1%}); spans in "
                   f"{trace_file.relative_to(ROOT)}")

    if args.workload == "oracle-certify":
        window = tuple(manifest["window"])
        for path in wl.originals(manifest, INPUTS, ops):
            if not wl.self_equivalence(path, window):
                tally.problems.append(f"{path.name} is not equivalent to "
                                      f"itself")
    for problem in tally.problems:
        print(f"perfbench: WRONG {problem}", file=sys.stderr)
    if tally.refuted:
        print(f"perfbench: verdicts refuted by the oracle: "
              f"{', '.join(sorted(tally.refuted))}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {summary}")
    print(json.dumps({"correct": not tally.problems,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
