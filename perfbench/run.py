"""The ssimkit benchmark: one workload, one process, one caller in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
The run synthesises its inputs from the seed in a child process, measures
set-up in fresh interpreters, scores the default seed's inputs once against
golden.json (which also warms caches), then calls the workload's entry point
back to back for S seconds. Every call is checked against the first and the
repo's own oracle runs last. Human-readable lines come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ones from a traced run with ``--trace 1``. The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
PROBES = 7  # fresh interpreters timed for setup_s
MIN_OPS = 3  # operations measured however long each takes

END_TO_END = {
    "frames_per_s": "1/s",
    "user_ms_per_frame": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

#: Spans recorded by the traced run (see tracer._bindings), each reported as
#: inclusive busy time and self time per frame pair.
SPANS = (
    "pipeline.run_score", "pipeline.run_benchmark", "pipeline.open_stream", "pipeline.score_frame_pair",
    "media.open", "media.decode",
    "adaptation.box_downsample",
    "color.model", "color.convert",
    "stats.local_statistics",
    "ssim.term_maps", "ssim.ssim_map", "ssim.mssim",
    "multiscale.msssim", "multiscale.dyadic_downsample",
    "spatiotemporal.push", "spatiotemporal.local_statistics",
    "pooling.spatial", "pooling.temporal",
    "evaluation.load_manifest", "evaluation.fit_5pl", "evaluation.eval_5pl", "evaluation.correlations",
    "evaluation.is_rank_preserving", "evaluation.pareto_front",
)

#: Work counted at span boundaries, per frame pair.
COUNTS = (
    "stats.local_statistics.windows", "stats.local_statistics.pixels_in",
    "spatiotemporal.local_statistics.windows", "adaptation.box_downsample.pixels_in",
    "media.decode.frames", "media.decode.bytes",
)


PER_LAYER = {
    **{f"{name}.{kind}": "ms" for name in SPANS for kind in ("busy_ms", "self_ms")},
    **{name: "count" for name in COUNTS},
    "stats.local_statistics.peak_mib": "MiB",
    "pipeline.self_ms": "ms",
    "pipeline.max_frames_in_flight": "count",
    "trace.overhead_frac": "ratio",
}


class Gate:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def _generate(workload: str, seed: int, out_dir: str) -> dict:
    from inputs import input_paths

    subprocess.run(
        [sys.executable, os.path.join(HERE, "inputs.py"), "--workload", workload, "--seed", str(seed), "--out", out_dir],
        check=True, timeout=170,
    )
    return input_paths(workload, out_dir)


def _setup_seconds(workload: str, out_dir: str) -> float:
    """Median set-up time over fresh interpreters (see setup_probe.py)."""
    times = []
    for _ in range(PROBES):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), "--workload", workload, "--inputs", out_dir],
            check=True, capture_output=True, text=True, timeout=60,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def _attempt(gate: Gate, what: str, fn):
    """Run one scored call; a typed ssimkit error or an I/O error is a failed operation."""
    from ssimkit.errors import SsimkitError

    try:
        return fn()
    except (SsimkitError, OSError) as exc:
        gate.record(what, [f"{type(exc).__name__}: {exc}"])
        return None


def measure(wl, paths: dict, seconds: float, gate: Gate, tracer=None) -> list[dict]:
    """Call the workload back to back for ``seconds`` (at least MIN_OPS calls).

    With a tracer, calls alternate untraced and traced so both see the same
    machine conditions. Returns one timing record per successful call.
    """
    from workloads import repeat_problems

    ops, first = [], None
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < MIN_OPS + (tracer is not None):
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.run_id = i
        with tracer.installed() if traced else contextlib.nullcontext():
            t0, u0 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_utime
            outcome = _attempt(gate, f"op {i}", lambda: wl.run(paths))
            t1, u1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_utime
        i += 1
        if outcome is None:
            continue
        first = first or outcome
        gate.record(f"op {i - 1}", [] if outcome is first else repeat_problems(first, outcome))
        ops.append(dict(frames=outcome.frames, wall=t1 - t0, user=u1 - u0, traced=traced, outcome=outcome))
    return ops


def end_to_end(ops: list[dict], peak_rss: int, setup_s: float) -> dict:
    return {
        "frames_per_s": statistics.median(o["frames"] / o["wall"] for o in ops),
        "user_ms_per_frame": statistics.median(1000.0 * o["user"] / o["frames"] for o in ops),
        "peak_rss_mib": peak_rss / float(1 << 20),
        "setup_s": setup_s,
    }


def per_layer(tracer, ops: list[dict]) -> dict:
    from tracer import MIB, outermost, self_times

    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"]]
    frames = sum(o["frames"] for o in traced)
    spans = tracer.spans
    busy, own, counts = defaultdict(float), defaultdict(float), defaultdict(float)
    peak = 0.0
    for s, self_s, outer in zip(spans, self_times(spans), outermost(spans)):
        if outer:
            busy[s.name] += s.duration
        own[s.name] += self_s
        for k, v in s.counts.items():
            counts[f"{s.name}.{k}"] += v
        if s.name == "stats.local_statistics":
            peak = max(peak, (s.mem_peak - s.mem_start) / MIB)
    out = {}
    for name in SPANS:
        out[f"{name}.busy_ms"] = 1000.0 * busy[name] / frames
        out[f"{name}.self_ms"] = 1000.0 * own[name] / frames
    for name in COUNTS:
        out[name] = counts[name] / frames
    out["stats.local_statistics.peak_mib"] = peak
    out["pipeline.self_ms"] = 1000.0 * sum(v for k, v in own.items() if k.startswith("pipeline.")) / frames
    out["pipeline.max_frames_in_flight"] = float(tracer.max_frames_in_flight)
    fps = [statistics.median(o["frames"] / o["wall"] for o in group) for group in (plain, traced)]
    out["trace.overhead_frac"] = fps[0] / fps[1] - 1.0
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, root: str) -> tuple[Gate, dict]:
    from tracer import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS, golden_problems

    wl = WORKLOADS[workload]
    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh)[workload]
    work = os.path.join(root, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
    gate = Gate()
    try:
        paths = _generate(workload, seed, os.path.join(work, "seed"))
        golden_paths = paths if seed == DEFAULT_SEED else _generate(workload, DEFAULT_SEED, os.path.join(work, "golden"))
        setup_s = None if trace else _setup_seconds(workload, os.path.join(work, "seed"))

        rss0 = _rss_bytes()
        # The golden check doubles as the warm-up call.
        outcome = _attempt(gate, "golden", lambda: wl.run(golden_paths))
        if outcome is not None:
            gate.record("golden", golden_problems(golden, outcome))
        tracer = Tracer() if trace else None
        ops = measure(wl, paths, seconds, gate, tracer)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - rss0
        if ops:
            first = ops[0]["outcome"]
            _attempt(gate, "oracle", lambda: gate.record("oracle", wl.oracle(paths, first)))
        if not ops or (trace and not all(any(o["traced"] == t for o in ops) for t in (False, True))):
            gate.record("measure", ["no successful operation to measure"])
            return gate, {}
        if trace:
            os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
            tracer.write(os.path.join(root, ".bench_out", f"trace-{workload}-{seed}.jsonl"))
            return gate, per_layer(tracer, ops)
        return gate, end_to_end(ops, peak_rss, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_golden(workload: str, root: str) -> None:
    """Store the default seed's scores; run only when a change means to move them."""
    from workloads import DEFAULT_SEED, WORKLOADS

    path = os.path.join(HERE, "golden.json")
    golden = {}
    if os.path.exists(path):
        with open(path) as fh:
            golden = json.load(fh)
    work = os.path.join(root, ".bench_work", f"golden-{workload}-{os.getpid()}")
    try:
        golden[workload] = WORKLOADS[workload].run(_generate(workload, DEFAULT_SEED, work)).scores
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(path, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ssimkit benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="score the default seed's inputs and store them in golden.json")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ssimkit", "__init__.py")):
        print(f"error: {root} is not an ssimkit checkout (no src/ssimkit)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (have: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2

    if args.write_golden:
        write_golden(args.workload, root)
        return 0
    gate, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    units = PER_LAYER if args.trace else END_TO_END
    for problem in gate.problems:
        print(f"FAIL {problem}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6g} {units[name]}")
    print(f"{'fail_frac':48s} {gate.fail_frac:14.6g} ratio ({gate.failed} of {gate.attempted} operations)")
    result = {
        "correct": gate.failed == 0 and bool(metrics),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
