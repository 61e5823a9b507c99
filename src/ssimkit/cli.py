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
from contextlib import contextmanager
from dataclasses import replace

import click

from . import __version__
from .config import (
    ENGINES,
    SsimConfig,
    parse_color,
    parse_multiscale,
    parse_scale,
    parse_window,
)
from .errors import DegenerateData, SsimkitError, ValidationError
import numpy as np

from .evaluation import CostPerfPoint, _unit_subjective, finite_float, pareto_front, read_csv
from .media import format_float, write_report
from .pipeline import (
    BENCH_FIELDS,
    FRAME_FIELDS,
    PipelineSpec,
    expand_preset,
    fit_and_correlate,
    preset_specs,
    run_benchmark,
    run_score,
)

EXIT_INPUT_ERROR = 2
EXIT_DEGENERATE = 3


@contextmanager
def _input_errors():
    """Exit with 3 on DegenerateData, and with 2 on any other SsimkitError
    or OSError, printing the error."""
    try:
        yield
    except (SsimkitError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_DEGENERATE if isinstance(exc, DegenerateData) else EXIT_INPUT_ERROR)


def _config_setter(field: str, parse=lambda value: value):
    return lambda settings, value: settings.update({field: parse(value)})


#: The overrides that ``score`` options and benchmark spec-string keys give,
#: name -> (cast of spec-string text, setter on the config's fields). A setter
#: of None marks the preset, or a PipelineSpec field. Setters run in this
#: order, so a stride lands on the window chosen with it, and the config is
#: built and checked once, after all of them. Spec strings write ``_`` as ``-``.
_OVERRIDES = {
    "preset": (str, None),
    "window": (str, _config_setter("window", parse_window)),
    "stride": (int, lambda settings, value: settings.update(window=settings["window"].with_stride(value))),
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
    settings = dict(vars(spec.config))
    for name, (_, setter) in _OVERRIDES.items():
        if setter is not None and name in given:
            setter(settings, given.pop(name))
    return replace(spec, config=SsimConfig(**settings), **given)


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
            raise ValidationError(f"unknown spec key {key!r} in {text!r}")
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
@click.option("--engine", type=click.Choice(ENGINES), default=None)
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
    with _input_errors():
        spec = _build_spec(**overrides)
        report = run_score(ref, dist, spec, width=width, height=height,
                           bit_depth=bit_depth, chroma=chroma)
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
    with _input_errors():
        parsed = dict(_spec_from_string(s) for s in specs)
        rows = run_benchmark(manifest, parsed)
    _emit(write_report(rows, fmt, BENCH_FIELDS), output)
    if any(row["srocc"] != row["srocc"] for row in rows):
        click.echo("warning: degenerate correlations reported as NaN", err=True)
        sys.exit(EXIT_DEGENERATE)


@main.command()
@click.argument("points_csv")
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]), default="csv")
def pareto(points_csv, fmt) -> None:
    """Prune a label,cost,perf CSV to its Pareto front."""
    with _input_errors():
        points = read_csv(points_csv, "points", ("label", "cost", "perf"),
                          lambda row: CostPerfPoint(row["label"], finite_float(row["cost"]), finite_float(row["perf"])))
        front = pareto_front(points)
    records = [{"label": p.label, "cost": p.cost, "perf": p.perf} for p in front]
    _emit(write_report(records, fmt, ("label", "cost", "perf")), None)


@main.command("fit-5pl")
@click.argument("data_csv")
def fit_5pl_command(data_csv) -> None:
    """Fit the 5-parameter logistic to an objective,subjective CSV and report
    the statistics ``benchmark`` reports for a spec."""
    with _input_errors():
        rows = read_csv(data_csv, "data", ("objective", "subjective"),
                        lambda row: (finite_float(row["objective"]), finite_float(row["subjective"])))
        obj, subj = np.asarray(rows, dtype=float).T
        subj, normalized = _unit_subjective(subj)
        fit, pcc, srocc, rmse, monotone = fit_and_correlate(obj, subj)
    out = {
        "beta": [format_float(b) for b in fit.as_array()],
        "pcc": format_float(pcc),
        "srocc": format_float(srocc),
        "rmse": format_float(rmse),
        "monotone": monotone,
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
