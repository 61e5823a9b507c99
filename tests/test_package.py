import ast
import dataclasses
import inspect
import json
import math
import pathlib
import re
import sys

import numpy as np
import pytest

import ssimkit
from ssimkit import color, multiscale, pipeline, spatiotemporal, ssim
from ssimkit.config import (
    REQUIRED,
    ColorModelSpec,
    MultiscaleSpec,
    ScalePolicy,
    SsimConfig,
    WindowSpec,
    parse_color,
    parse_multiscale,
    parse_scale,
    parse_window,
)
from ssimkit.errors import SsimkitError, ValidationError
from ssimkit.pooling import SpatialPooler, TemporalPooler, parse_spatial, parse_temporal
from ssimkit.ssim import ssim_map


def imported_names(tree):
    """(name, import node, under TYPE_CHECKING) for every name a module binds by import."""
    guarded = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and isinstance(block.test, ast.Name) and block.test.id == "TYPE_CHECKING"
        for stmt in block.body
        for node in ast.walk(stmt)
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node, id(node) in guarded


def string_annotations(tree):
    """The text of every string constant inside an annotation."""
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations = [a.annotation for a in every if a is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield part.value


#: Every string in perfbench's tracer, among them each attribute it wraps.
TRACED = {
    node.value
    for node in ast.walk(ast.parse((pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py").read_text()))
    if isinstance(node, ast.Constant) and isinstance(node.value, str)
}


@pytest.mark.parametrize("path", sorted(pathlib.Path(ssimkit.__file__).parent.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used_or_kept_for_perfbench(path):
    """An import a deletion left behind fails here. A name counts as used
    when the module loads it, lists it in ``__all__``, or (imported only
    for type checking) names it in a string annotation. Otherwise it must
    be a binding perfbench's tracer wraps, and its import line says so
    beside its ``noqa``."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = {
        item.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for item in node.value.elts
    }
    annotated = {word for text in string_annotations(tree) for word in re.findall(r"\w+", text)}
    unused = []
    for name, node, type_only in imported_names(tree):
        if name in loaded or name in exported or (type_only and name in annotated):
            continue
        if name not in TRACED or not re.search(r"# noqa: F401 .*perfbench", lines[node.lineno - 1]):
            unused.append(f"{path.name}:{node.lineno}: {name}")
    assert unused == []


def iinfo_callers(tree, scope=""):
    """The qualified name of the function or class around every call of
    ``np.iinfo`` in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "iinfo"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            yield scope
        yield from iinfo_callers(node, inner)


def test_the_sample_bound_has_one_owner():
    """A dtype's integer range is read in two places: ``stats._peak``, the
    bound every exact accumulator comes from, and LumaPlane's check of its
    samples. Any other reader would be a second copy of the rule."""
    callers = {
        f"{path.stem}.{caller}"
        for path in pathlib.Path(ssimkit.__file__).parent.glob("*.py")
        for caller in iinfo_callers(ast.parse(path.read_text()))
    }
    assert callers == {"stats._peak", "frames.LumaPlane.__post_init__"}


def test_every_export_resolves():
    missing = [name for name in ssimkit.__all__ if not hasattr(ssimkit, name)]
    assert missing == []
    assert len(set(ssimkit.__all__)) == len(ssimkit.__all__)


#: What a scorer may take besides its config: frames, frame iterables or a
#: rolling volume of frames, the temporal depth, and per-level volumes.
SCORER_PARAMS = {"ref", "dist", "ref_frames", "dist_frames", "vol", "kt", "config", "volumes"}


def public_scorers():
    """Public functions of the scoring modules that take an SsimConfig."""
    for module in (color, multiscale, spatiotemporal, ssim, pipeline):
        for name, fn in vars(module).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and not name.startswith("_")
                and "config" in inspect.signature(fn).parameters
            ):
                yield name, fn


def test_scorers_take_their_settings_from_the_config_alone():
    scorers = dict(public_scorers())
    assert {
        "channelwise_cssim", "fixed_weight_cssim", "qssim", "cmssim", "hssim",
        "msssim", "scale_scores", "ssim3d_map", "ssim3d_series", "msssim3d",
        "ssim_map", "ssim_score", "score_frame_pair",
    } <= set(scorers)
    extra = {
        name: sorted(set(inspect.signature(fn).parameters) - SCORER_PARAMS)
        for name, fn in scorers.items()
    }
    assert {name: params for name, params in extra.items() if params} == {}


#: For every field of every config part with kinds, a value away from its
#: resting value, valid for the kinds that read it; some need all 17
#: significant digits to print exactly.
OTHER = dict(
    distance=2500.5, theta_h=35.125, theta_w=45.0625, d_over_h=2.625, rounding="ceil",
    alpha=-0.2123456789012345, beta=0.1, weights=(0.6, 0.3, 0.1), space="lab",
    levels=3, exponents=(0.2, 0.3, 0.5),
    k=5, p=3.141592653589793, o=2.25, a=10.125, b=40.5, ps=10.25, rs=4.125,
    sigma=2.125, stride=3,
)

#: Each part, its parser, and its field in a JSON config (None: the
#: config holds the part as a selector string).
PARTS = [
    (WindowSpec, parse_window, "window"),
    (ScalePolicy, parse_scale, "scaling"),
    (ColorModelSpec, parse_color, "color"),
    (MultiscaleSpec, parse_multiscale, "multiscale"),
    (SpatialPooler, parse_spatial, None),
    (TemporalPooler, parse_temporal, None),
]


def kind_rows():
    for cls, parse, part in PARTS:
        table = cls._table
        for kind, params in table.kinds.items():
            yield pytest.param(cls, parse, part, kind, params, id=f"{cls.__name__}-{kind}")


@pytest.mark.parametrize("cls, parse, part, kind, params", kind_rows())
def test_every_kind_is_parsed_printed_and_checked_from_its_row(cls, parse, part, kind, params):
    table = cls._table
    fields = [f.name for f in dataclasses.fields(cls)]
    assert fields[0] == table.kind_field and set(fields[1:]) == set(table.rest) <= set(OTHER)
    required = {p.field: OTHER[p.field] for p in params if p.default is REQUIRED}
    spec = cls(kind, **required)
    assert parse(spec.selector()) == spec
    # the constructor's defaults are the selector's
    given = [f"{p.key}={OTHER[p.field]}" for p in params if p.field in required and p.key]
    given += [str(w) for p in params if p.field in required and not p.key for w in OTHER[p.field]]
    assert parse(":".join([kind, ",".join(given)]) if given else kind) == spec
    for p in params:
        if p.key and p.field not in required:  # a required field already holds its OTHER value
            other = cls(kind, **required, **{p.field: OTHER[p.field]})
            assert other != spec and parse(other.selector()) == other
    for name in set(table.rest) - {p.field for p in params}:
        with pytest.raises(ValidationError):
            cls(kind, **required, **{name: OTHER[name]})
        if part is not None:
            config = json.loads(SsimConfig().to_json())
            config[part] = {**dataclasses.asdict(spec), name: OTHER[name]}
            with pytest.raises(ValidationError):
                SsimConfig.from_json(json.dumps(config))


NON_FINITE = (math.nan, math.inf, -math.inf)

#: The SsimConfig field that holds each pooler as a selector string.
POOL_FIELDS = {SpatialPooler: "spatial_pool", TemporalPooler: "temporal_pool"}


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
@pytest.mark.parametrize("cls, parse, part, kind, params", kind_rows())
def test_every_float_field_rejects_non_finite_values(cls, parse, part, kind, params, bad):
    """Through the constructor, the selector and the JSON config alike."""
    required = {p.field: OTHER[p.field] for p in params if p.default is REQUIRED}
    spec = cls(kind, **required)
    keys = {p.field: p.key for p in params}
    for name in cls._table.rest:
        current = getattr(spec, name)
        if isinstance(current, float):
            value = bad
        elif isinstance(current, tuple) and current:
            value = (bad, *current[1:])
        else:
            continue
        with pytest.raises(ValidationError):
            cls(kind, **{**required, name: value})
        if name not in keys:
            continue
        selector = None  # multiscale exponents have none
        if keys[name]:
            given = {keys[f]: v for f, v in required.items() if keys[f]}
            selector = f"{kind}:" + ",".join(f"{k}={v}" for k, v in {**given, keys[name]: bad}.items())
        elif cls is ColorModelSpec:  # fixed's weights, given by position
            selector = f"{kind}:" + ",".join(map(str, value))
        if selector:
            with pytest.raises(ValidationError):
                parse(selector)
        config = json.loads(SsimConfig().to_json())
        if part is not None:
            config[part] = {**dataclasses.asdict(spec), name: value}
        elif keys[name]:
            config[POOL_FIELDS[cls]] = selector
        with pytest.raises(ValidationError):
            SsimConfig.from_json(json.dumps(config))


@pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
def test_window_sigma_and_constants_reject_non_finite_values(bad):
    with pytest.raises(SsimkitError):
        WindowSpec("gauss", 11, bad)
    with pytest.raises(SsimkitError):
        parse_window(f"gauss:{bad}")
    for name, value in (("window", {"shape": "gauss", "k": 11, "sigma": bad, "stride": 1}), ("k1", bad), ("k2", bad)):
        config = {**json.loads(SsimConfig().to_json()), name: value}
        with pytest.raises(SsimkitError):
            SsimConfig.from_json(json.dumps(config))
        if name != "window":
            with pytest.raises(ValidationError):
                SsimConfig(**{name: bad})


#: The largest k whose constant (k * 65535)^2, at the widest peak
#: ``for_bit_depth`` gives, is still a finite float.
K_BOUND = math.sqrt(sys.float_info.max) / 65535.0


@pytest.mark.parametrize("name", ["k1", "k2"])
@pytest.mark.parametrize("value", [1e200, 1e308, K_BOUND * 1.001])
def test_constants_that_overflow_are_rejected(name, value):
    with pytest.raises(ValidationError, match="overflow"):
        SsimConfig(**{name: value})


@pytest.mark.parametrize("name", ["k1", "k2"])
def test_constants_just_inside_the_bound_give_finite_maps(name):
    rng = np.random.default_rng(3)
    a = rng.integers(0, 65536, (16, 16)).astype(np.uint16)
    b = rng.integers(0, 65536, (16, 16)).astype(np.uint16)
    for bits in (8, 16):
        config = SsimConfig(**{name: K_BOUND * 0.999}, bit_depth=bits)
        assert math.isfinite(config.c1) and math.isfinite(config.c2)
        maps = ssim_map(a if bits == 16 else a >> 8, b if bits == 16 else b >> 8, config)
        for m in (maps.l_map, maps.cs_map, maps.q_map):
            assert np.isfinite(m.values).all()


@pytest.mark.parametrize("make", [
    lambda: pipeline.PipelineSpec(kt=True),
    lambda: pipeline.PipelineSpec(workers=True),
    lambda: WindowSpec.rectangular(True),
    lambda: WindowSpec.rectangular(11, stride=True),
    lambda: MultiscaleSpec.product(True),
    lambda: spatiotemporal.RollingVolume(True),
    lambda: TemporalPooler("wam", k=True),
    lambda: ssimkit.adaptation.HistogramMatcher(refresh_interval=True),
    lambda: ssimkit.adaptation.HistogramMatcher(bins=True),
    lambda: ssimkit.adaptation.box_downsample(np.zeros((4, 4)), True),
    lambda: ssimkit.stats.gaussian_kernel(1.5, True),
    lambda: ssimkit.evaluation.is_rank_preserving(ssimkit.evaluation.Logistic5(1.0, 1.0, 0.0, 0.0, 0.0), 0.0, 1.0, True),
    lambda: ssimkit.frames.QualityMap(np.ones((2, 2)), stride=True),
    lambda: ssimkit.frames.QualityMap(np.ones((2, 2)), stride=2.5),
    lambda: ssimkit.adaptation.compute_ratio(True, 0.5, 0.1, 0.1),
    lambda: ssimkit.adaptation.compute_ratio(1.5, 0.5, 0.1, 0.1),
], ids=[
    "kt", "workers", "window k", "stride", "levels", "volume kt", "temporal k", "refresh interval", "bins",
    "factor", "kernel size", "points", "map stride", "map stride 2.5", "ratio interval", "ratio interval 1.5",
])
def test_a_bool_is_not_an_integer_setting(make):
    # One check serves every integer setting: True is an int to Python, not a count.
    with pytest.raises(ValidationError, match="integer"):
        make()
