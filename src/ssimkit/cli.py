"""Batch command-line front end.

Commands: ``score`` a reference/distorted media pair, ``benchmark`` a set of
pipeline specs against a labeled manifest, ``pareto`` prune cost/performance
points, ``fit-5pl`` fit the logistic mapping, and ``presets`` show the named
configurations. Exit codes: 0 success, 2 input error, 3 numeric degeneracy.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace

import click

from . import __version__
from .config import (
    parse_color,
    parse_multiscale,
    parse_scale,
    parse_window,
)
from .errors import DegenerateData, SsimkitError, ValidationError
import numpy as np

from .evaluation import (
    CostPerfPoint,
    LabeledDataset,
    correlations,
    eval_5pl,
    fit_5pl,
    is_monotone,
    normalize_scores,
    pareto_front,
)
from .media import format_float, write_report
from .pipeline import (
    BENCH_FIELDS,
    FRAME_FIELDS,
    PipelineSpec,
    expand_preset,
    preset_specs,
    run_benchmark,
    run_score,
)

EXIT_INPUT_ERROR = 2
EXIT_DEGENERATE = 3


def _fail(exc: Exception, code: int) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _config_setter(field: str, parse=lambda value: value):
    return lambda config, value: replace(config, **{field: parse(value)})


#: The overrides that ``score`` options and benchmark spec-string keys give,
#: name -> (cast of spec-string text, setter on the config). A setter of None
#: marks the preset, or a PipelineSpec field. Setters run in this order, so a
#: stride lands on the window chosen with it. Spec strings write ``_`` as ``-``.
_OVERRIDES = {
    "preset": (str, None),
    "window": (str, _config_setter("window", parse_window)),
    "stride": (int, lambda config, value: replace(config, window=config.window.with_stride(value))),
    "k1": (float, _config_setter("k1")),
    "k2": (float, _config_setter("k2")),
    "scale": (str, _config_setter("scaling", parse_scale)),
    "color": (str, _config_setter("color", parse_color)),
    "multiscale": (str, _config_setter("multiscale", parse_multiscale)),
    "spatial_pool": (str, _config_setter("spatial_pool")),
    "temporal_pool": (str, _config_setter("temporal_pool")),
    "engine": (str, _config_setter("engine")),
    "kt": (int, None),
}


def _build_spec(preset=None, **overrides) -> PipelineSpec:
    """A preset (or the default spec) with the given overrides; None gives none.

    Besides the config overrides, ``kt``, ``report_format`` and ``workers``
    set the PipelineSpec fields of those names.
    """
    spec = expand_preset(preset) if preset else PipelineSpec()
    given = {name: value for name, value in overrides.items() if value is not None}
    config = spec.config
    for name, (_, setter) in _OVERRIDES.items():
        if setter is not None and name in given:
            config = setter(config, given.pop(name))
    return replace(spec, config=config, **given)


def _spec_from_string(text: str) -> tuple[str, PipelineSpec]:
    """Benchmark spec: a preset name or ``name=preset;key=value;...``."""
    label, _, body = text.partition("=")
    if not body:
        return text.strip(), expand_preset(text.strip())
    keys = {name.replace("_", "-"): name for name in _OVERRIDES}
    overrides = {}
    for part in filter(None, (p.strip() for p in body.split(";"))):
        key, _, value = part.partition("=")
        key = key.strip().lower()
        if key not in keys:
            raise SsimkitError(f"unknown spec key {key!r} in {text!r}")
        name = keys[key]
        try:
            overrides[name] = _OVERRIDES[name][0](value.strip())
        except ValueError:
            raise ValidationError(f"bad {key} value {value.strip()!r} in {text!r}") from None
    return label.strip(), _build_spec(**overrides)


def _emit(data: bytes, output) -> None:
    if output:
        with open(output, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())


@click.group()
@click.version_option(__version__, package_name="ssimkit")
def main() -> None:
    """Full-reference structural-similarity scoring and benchmarking."""


@main.command()
@click.argument("ref")
@click.argument("dist")
@click.option("--preset", type=click.Choice(sorted(preset_specs())), default=None,
              help="Start from a named preset; other flags override it.")
@click.option("--window", default=None, help="rect:K or gauss:SIGMA[,k=K]")
@click.option("--stride", type=int, default=None, help="Window stride in pixels.")
@click.option("--k1", type=float, default=None, help="Luminance constant K1.")
@click.option("--k2", type=float, default=None, help="Contrast constant K2.")
@click.option("--scale", default=None, help="none | legacy[:ceil] | sast:D=... | dh:RATIO")
@click.option("--color", default=None,
              help="luma | cw:a=..,b=.. | fixed:wY,wCb,wCr | qssim[:space] | cmssim | hssim")
@click.option("--multiscale", default=None, help="off | product[:levels=N] | sum | fast4")
@click.option("--spatial-pool", default=None,
              help="am | cov | md:p=..,o=.. | fns | dw:p=.. | mink:p=.. | lw:a=..,b=.. | pp:ps=..,rs=..")
@click.option("--temporal-pool", default=None,
              help="am | gm | hm | median | cov | wam:k=.. | wgm:k=.. | whm:k=.. | wcov:k=.. "
                   "| md:p=..,o=.. | fns | dw:p=.. | mink:p=.. | pp:ps=..,rs=..")
@click.option("--engine", type=click.Choice(["auto", "naive", "integral"]), default=None)
@click.option("--kt", type=int, default=None, help="Temporal window depth (SSIM-3D when > 1).")
@click.option("--format", "report_format", type=click.Choice(["jsonl", "csv"]), default=None)
@click.option("--workers", type=int, default=None, help="Worker threads for frame scoring.")
@click.option("--width", type=int, default=None, help="Raw input width.")
@click.option("--height", type=int, default=None, help="Raw input height.")
@click.option("--bit-depth", type=int, default=8, help="Raw input bit depth.")
@click.option("--chroma", type=click.Choice(["420", "444", "400"]), default="420",
              help="Raw input chroma subsampling.")
@click.option("--output", default=None, help="Write per-frame records here instead of stdout.")
def score(ref, dist, width, height, bit_depth, chroma, output, **overrides) -> None:
    """Score a distorted file against its reference."""
    try:
        spec = _build_spec(**overrides)
        report = run_score(ref, dist, spec, width=width, height=height,
                           bit_depth=bit_depth, chroma=chroma)
    except SsimkitError as exc:
        _fail(exc, EXIT_DEGENERATE if isinstance(exc, DegenerateData) else EXIT_INPUT_ERROR)
    except OSError as exc:
        _fail(exc, EXIT_INPUT_ERROR)
    data = write_report(report["records"], spec.report_format, FRAME_FIELDS)
    _emit(data, output)
    summary = {
        k: (format_float(v) if isinstance(v, float) else v) for k, v in report["summary"].items()
    }
    click.echo(json.dumps({"summary": summary}))


@main.command()
@click.argument("manifest")
@click.option("--spec", "specs", multiple=True, required=True,
              help="Preset name, or LABEL=key=value;... (repeatable).")
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="jsonl")
@click.option("--output", default=None, help="Write the correlation report here.")
def benchmark(manifest, specs, fmt, output) -> None:
    """Correlate pipeline specs against a labeled dataset manifest."""
    try:
        parsed = dict(_spec_from_string(s) for s in specs)
        rows = run_benchmark(manifest, parsed)
    except SsimkitError as exc:
        _fail(exc, EXIT_DEGENERATE if isinstance(exc, DegenerateData) else EXIT_INPUT_ERROR)
    except OSError as exc:
        _fail(exc, EXIT_INPUT_ERROR)
    _emit(write_report(rows, fmt, BENCH_FIELDS), output)
    if any(row["srocc"] != row["srocc"] for row in rows):
        click.echo("warning: degenerate correlations reported as NaN", err=True)
        sys.exit(EXIT_DEGENERATE)


@main.command()
@click.argument("points_csv")
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="csv")
def pareto(points_csv, fmt) -> None:
    """Prune a label,cost,perf CSV to its Pareto front."""
    import csv as csvmod

    try:
        with open(points_csv, newline="") as fh:
            reader = csvmod.DictReader(fh)
            points = [
                CostPerfPoint(row["label"], float(row["cost"]), float(row["perf"]))
                for row in reader
            ]
        if not points:
            raise SsimkitError("no points in input")
        front = pareto_front(points)
    except (SsimkitError, KeyError, TypeError, ValueError) as exc:
        _fail(exc, EXIT_INPUT_ERROR)
    except OSError as exc:
        _fail(exc, EXIT_INPUT_ERROR)
    records = [{"label": p.label, "cost": p.cost, "perf": p.perf} for p in front]
    _emit(write_report(records, fmt, ("label", "cost", "perf")), None)


@main.command("fit-5pl")
@click.argument("data_csv")
def fit_5pl_command(data_csv) -> None:
    """Fit the 5-parameter logistic to an objective,subjective CSV."""
    import csv as csvmod

    try:
        with open(data_csv, newline="") as fh:
            reader = csvmod.DictReader(fh)
            obj, subj = [], []
            for row in reader:
                obj.append(float(row["objective"]))
                subj.append(float(row["subjective"]))
        subj_arr = np.asarray(subj, dtype=float)
        normalized = bool(subj_arr.size and (subj_arr.min() < 0.0 or subj_arr.max() > 1.0))
        if normalized:
            subj_arr = normalize_scores(subj_arr)
        data = LabeledDataset.from_pairs(obj, subj_arr)
        fit = fit_5pl(data)
        fitted = eval_5pl(fit, data.objective)
        pcc, _, rmse = correlations(fitted, data.subjective)
        _, srocc, _ = correlations(data.objective, data.subjective)
    except DegenerateData as exc:
        _fail(exc, EXIT_DEGENERATE)
    except (SsimkitError, KeyError, ValueError) as exc:
        _fail(exc, EXIT_INPUT_ERROR)
    except OSError as exc:
        _fail(exc, EXIT_INPUT_ERROR)
    out = {
        "beta": [format_float(b) for b in fit.as_array()],
        "pcc": format_float(pcc),
        "srocc": format_float(srocc),
        "rmse": format_float(rmse),
        "monotone": is_monotone(fit, float(data.objective.min()), float(data.objective.max())),
        "normalized_subjective": normalized,
    }
    click.echo(json.dumps(out))
    if math.isnan(pcc) or math.isnan(srocc):
        sys.exit(EXIT_DEGENERATE)


@main.command()
def presets() -> None:
    """Show the named presets and their full expansion."""
    out = {}
    for name, spec in preset_specs().items():
        out[name] = {"kt": spec.kt, "config": spec.config.to_dict()}
    click.echo(json.dumps(out, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
