"""The demos still run against the library's current interfaces."""

import importlib.util
import math
import pathlib

from memctx import training

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def _load(name):
    """Import ``demos/<name>.py`` inside the calling test, so its module-level code
    runs, and fails, within that test rather than at collection."""
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_retrieval_demo_probe_and_reference_run_on_untrained_models():
    demo = _load("retrieval_demo")
    enc, g = training.build_models(0)
    ds = training.make_dataset(200, 1)
    psnr, delta = demo.ctx_usage_delta(enc, g, ds, n=1)
    # the untrained velocity head is zero, so both samples are the sampler's noise
    assert math.isfinite(psnr) and delta == 0.0
    assert math.isfinite(demo.mean_frame_psnr(ds, n=1))


def test_budget_table_demo_prints_the_table(capsys):
    _load("budget_table").main()
    out = capsys.readouterr().out
    assert "uncompressed context length" in out and "4x4x2" in out
