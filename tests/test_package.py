import inspect

import ssimkit
from ssimkit import color, multiscale, pipeline, spatiotemporal, ssim


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
