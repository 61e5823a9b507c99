"""The benchmark's workloads: which public entry point each calls, on what,
and the oracle that checks its scores.

Each workload resolves its spec(s) the way the CLI does (a preset, then
selector overrides) and calls ``pipeline.run_score`` or
``pipeline.run_benchmark``, the functions behind ``ssimkit score`` and
``ssimkit benchmark``. One call is one benchmark operation. Its outcome is a
flat map of named scores plus the report bytes ``media.write_report`` makes
of it, so repeats, golden values and oracles compare the same way.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from inputs import INPUTS
from ssimkit import pipeline
from ssimkit.config import parse_color, parse_multiscale, parse_window
from ssimkit.evaluation import load_manifest
from ssimkit.media import write_report
from ssimkit.spatiotemporal import RollingVolume
from ssimkit.ssim import mssim, term_maps_from_stats

#: Seed whose scores are stored in golden.json.
DEFAULT_SEED = 0

#: Relative tolerance for scores against golden values and oracles.
REL_TOL = 1e-9

#: run_benchmark row fields that do not depend on timing; ``user_seconds``
#: and the Pareto flag it drives change from run to run.
SWEEP_FIELDS = ("spec", "clips", "pcc", "srocc", "rmse", "fit_monotone", "note")


@dataclass
class Outcome:
    frames: int  # frame pairs scored; image pairs x specs for a sweep
    scores: dict  # name -> float
    report: bytes


def resolve(preset: str, **selectors) -> pipeline.PipelineSpec:
    """A preset with CLI-style selector overrides (window, multiscale, color)."""
    spec = pipeline.expand_preset(preset)
    parsers = {"window": parse_window, "multiscale": parse_multiscale, "color": parse_color}
    config = replace(spec.config, **{k: parsers[k](v) for k, v in selectors.items()})
    return replace(spec, config=config)


def close(expected: float, got: float, rel: float = REL_TOL) -> bool:
    return abs(got - expected) <= rel * max(abs(expected), abs(got))


@dataclass(frozen=True)
class VideoWorkload:
    """``run_score`` on one reference/distorted clip pair."""

    name: str
    preset: str
    workers: int = 1
    kt: int = 1

    def spec(self) -> pipeline.PipelineSpec:
        return replace(pipeline.expand_preset(self.preset), workers=self.workers, kt=self.kt)

    def raw_args(self) -> dict:
        geo = INPUTS[self.name]
        if geo["kind"] != "yuv":
            return {}
        return dict(width=geo["width"], height=geo["height"], bit_depth=geo["bit_depth"], chroma="420")

    def open(self, paths: dict) -> None:
        """Set-up a user pays before the first frame: resolve, open both streams."""
        self.spec()
        self._streams(paths)

    def run(self, paths: dict, spec=None) -> Outcome:
        spec = spec or self.spec()
        out = pipeline.run_score(paths["ref"], paths["dist"], spec, **self.raw_args())
        records = out["records"]
        scores = {f"frame{r['frame']}": r["score"] for r in records}
        scores["pooled"] = out["summary"]["pooled_score"]
        report = write_report(records, spec.report_format, pipeline.FRAME_FIELDS)
        return Outcome(out["summary"]["frames"], scores, report)

    def _streams(self, paths: dict):
        return [pipeline.open_stream(paths[role], **self.raw_args()) for role in ("ref", "dist")]

    def oracle(self, paths: dict, outcome: Outcome) -> list[str]:
        """Problems found by the repo's own oracles (empty when all agree)."""
        spec = self.spec()
        problems = []
        if self.kt > 1:
            # Rolling-sum drift: a fresh volume holding only the last kt
            # frames must reproduce the last frame's score.
            ref, dist = self._streams(paths)
            volume = RollingVolume(self.kt)
            for a, b in deque(zip(ref.luma_frames(), dist.luma_frames()), maxlen=self.kt):
                volume.push(a, b)
            config = spec.config.for_bit_depth(INPUTS[self.name]["bit_depth"])
            maps = term_maps_from_stats(volume.local_statistics(config.window), config.c1, config.c2)
            key = f"frame{outcome.frames - 1}"
            got = mssim(maps.q_map)
            if not close(outcome.scores[key], got):
                problems.append(f"{key}: direct volume gives {got!r}, run gave {outcome.scores[key]!r}")
            return problems
        # Naive engine on the first frame pair must match the integral engine.
        ref, dist = self._streams(paths)
        a, b = next(iter(ref)), next(iter(dist))
        naive = pipeline.score_frame_pair(a, b, replace(spec.config, engine="naive")).score
        if not close(outcome.scores["frame0"], naive):
            problems.append(f"frame0: naive engine gives {naive!r}, run gave {outcome.scores['frame0']!r}")
        if self.workers > 1:
            serial = self.run(paths, replace(spec, workers=1))
            if serial.scores != outcome.scores:
                problems.append(f"workers={self.workers} scores differ from the serial run")
        return problems


@dataclass(frozen=True)
class SweepWorkload:
    """``run_benchmark`` of several specs over a labelled image manifest."""

    name: str
    specs: tuple  # (label, preset, {selector: value})

    def resolved(self) -> dict:
        return {label: resolve(preset, **sel) for label, preset, sel in self.specs}

    def open(self, paths: dict) -> None:
        self.resolved()
        load_manifest(paths["manifest"])

    def run(self, paths: dict, specs=None) -> Outcome:
        rows = pipeline.run_benchmark(paths["manifest"], specs or self.resolved())
        scores = {f"{r['spec']}.{k}": r[k] for r in rows for k in ("pcc", "srocc", "rmse")}
        report = write_report([{f: r[f] for f in SWEEP_FIELDS} for r in rows], "jsonl", SWEEP_FIELDS)
        return Outcome(sum(r["clips"] for r in rows), scores, report)

    def oracle(self, paths: dict, outcome: Outcome) -> list[str]:
        """The first pair under the first spec: the naive engine must match the integral one.

        Pooled scores are compared, not correlations: the 5PL fit behind
        PCC and RMSE turns score differences of 1e-14 into 1e-5.
        """
        row = load_manifest(paths["manifest"])[0]
        label, preset, sel = self.specs[0]
        spec = resolve(preset, **sel)
        scores = [
            pipeline.run_score(row["ref_path"], row["dist_path"], s)["summary"]["pooled_score"]
            for s in (spec, replace(spec, config=replace(spec.config, engine="naive")))
        ]
        if not close(*scores):
            return [f"{label} on {row['dist_path']}: integral gives {scores[0]!r}, naive {scores[1]!r}"]
        return []


WORKLOADS = {
    w.name: w
    for w in (
        VideoWorkload("vod1080_default", "default"),
        VideoWorkload("uhd2160_enhanced_w2", "enhanced", workers=2),
        VideoWorkload("st1080_kt5_10bit", "default", kt=5),
        SweepWorkload(
            "iqa_sweep_rgb",
            (
                ("default", "default", {}),
                ("gauss", "default", {"window": "gauss:1.5"}),
                ("ms", "default", {"multiscale": "product"}),
                ("qssim", "default", {"color": "qssim"}),
                ("cw", "default", {"color": "cw:a=-0.3,b=-0.3"}),
            ),
        ),
    )
}


def golden_problems(expected: dict, outcome: Outcome) -> list[str]:
    """Scores against golden values: SROCC exactly, everything else to REL_TOL."""
    problems = [f"{k}: missing from the run" for k in expected if k not in outcome.scores]
    problems += [f"{k}: not in the golden values" for k in outcome.scores if k not in expected]
    for k, want in expected.items():
        got = outcome.scores.get(k)
        if got is None:
            continue
        ok = got == want if k.endswith(".srocc") else close(want, got)
        if not ok:
            problems.append(f"{k}: golden {want!r}, run gave {got!r}")
    return problems


def repeat_problems(first: Outcome, outcome: Outcome) -> list[str]:
    """A repeat on the same inputs must give identical scores and report bytes."""
    problems = []
    if outcome.scores != first.scores:
        problems.append("scores differ from the first operation on the same inputs")
    if outcome.report != first.report:
        problems.append("write_report bytes differ from the first operation")
    return problems
