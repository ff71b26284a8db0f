"""End-to-end acceptance checks for the history-compression package.

Each test here asserts one externally stated guarantee of the artifact:
budget arithmetic, autodiff soundness, flow identities, streaming
equality, learned-retrieval quality versus non-learned baselines, the
compression-structure quality ordering, index-set policy effects,
pretraining benefit, step-0 adapter identities, determinism of the
persistence layer, and a runtime that needs numpy alone.  The
training-backed checks share trained models via module-scoped fixtures
so each recipe runs once.
"""

import json
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import memctx
from memctx import (
    checkpoint,
    cli,
    data,
    diffusion,
    experiments,
    metrics,
    nn,
    rollout,
    seeding,
    training,
)
from memctx.compressor import CompressedContext, Provenance
from memctx.tensor import Tensor, backward, no_grad, using_dtype
from test_diffusion import FixedTimestep, ZeroVelocity, timestep_cdf
from test_tensor import matmul


# -- 1. budget arithmetic ---------------------------------------------------------


def test_uncompressed_minute_budget_is_exact():
    spec = metrics.BudgetSpec(width=832, height=480, fps=24, duration_s=60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no axis floors
        (row,) = metrics.budget_table(spec, [(1, 1, 1)])
    assert row["accounting"] == "exact" and row["tokens"] == 561_600


def test_twenty_second_4x4x2_budget_lands_near_five_thousand():
    spec = metrics.BudgetSpec(width=832, height=480, fps=24, duration_s=20)
    (row,) = metrics.budget_table(spec, [(4, 4, 2)])
    compressed = row["tokens"]
    # [DERIVED] fixture: 52*30*120 tokens / 32 with floor semantics.
    assert compressed == 5_850
    assert 4_500 <= compressed <= 6_500


# -- 2. autodiff soundness --------------------------------------------------------


def _fd_grad(fn, x, eps=1e-6):
    g = np.zeros_like(x)
    flat, gflat = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


OP_LOSSES = {
    "add_mul": lambda t: ((t + 2.0) * t).mean(),
    "silu": lambda t: t.silu().square().mean(),
    "matmul": lambda t: matmul(t, t.transpose(1, 0)).square().mean(),
    "linear": lambda t: nn.linear(t, t, t[0]).square().mean(),
    "softmax": lambda t: nn.softmax(t, axis=-1).square().sum(),
    "layernorm": lambda t: nn.layernorm(
        t, Tensor(np.ones(t.shape[-1])), Tensor(np.zeros(t.shape[-1]))
    )
    .silu()
    .mean(),
    "reshape_concat": lambda t: t.reshape(2, 8).square().mean(),
}


@pytest.mark.parametrize("name", sorted(OP_LOSSES))
def test_each_op_matches_central_differences_64bit(name):
    x = np.random.default_rng(hash(name) % 2**32).normal(size=(4, 4))
    with using_dtype("float64"):
        t = Tensor(x.copy(), requires_grad=True)
        backward(OP_LOSSES[name](t))
        analytic = t.grad.copy()
    numeric = _fd_grad(lambda a: OP_LOSSES[name](Tensor(a)).item(), x.copy())
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    assert (np.abs(analytic - numeric) / denom).max() < 1e-5


def _tiny_dit_fd_case():
    """A tiny velocity-prediction loss touching every parameter group."""
    g = training.build_models(0, model_dim=16, n_blocks=2, n_heads=2)[1]
    # four 2x2x2 blocks of frames [0, 2): (chunk, t0, t1, h0, w0)
    blocks = [(0, 0, 2, 0, 0), (0, 0, 2, 0, 2), (0, 0, 2, 2, 0), (0, 0, 2, 2, 2)]
    prov = Provenance(np.array(blocks, np.int64))
    fixed = np.random.default_rng(7)
    x0 = fixed.standard_normal((2, 1, 4, 4, 4))
    eps = fixed.standard_normal(x0.shape)

    def loss_fn():
        ctx = CompressedContext(
            tokens=Tensor(x0.reshape(2, 4, 16)), provenance=prov, span_frames=8
        )
        pred = g.predict_velocity(
            0.1 * x0 + 0.9 * eps, np.full(2, 0.9), np.zeros(2, dtype=int),
            g.read_memory(ctx, (4, 4)), g.row_rope(x0.shape, [0]),
        )
        return (pred - Tensor(eps - x0)).square().mean()

    return g, loss_fn


@pytest.mark.parametrize("dtype,tol", [("float64", 1e-5), ("float32", 1e-3)])
def test_full_tiny_dit_backward_matches_central_differences(dtype, tol):
    """After a few optimizer steps (zero-init heads unlocked), every
    parameter's reverse-mode gradient matches central differences."""
    with using_dtype(dtype):
        g, loss_fn = _tiny_dit_fd_case()
        opt = nn.Adam(g.parameters(), lr=1e-2)
        for _ in range(5):
            opt.zero_grad()
            backward(loss_fn())
            opt.step()
        params = g.parameters()
        for p in params:
            p.grad = None
        backward(loss_fn())
        rng = np.random.default_rng(1)
        h = 1e-6 if dtype == "float64" else 1e-3
        for p in params:
            flat, gflat = p.data.reshape(-1), p.grad.reshape(-1)
            for i in rng.choice(flat.size, size=min(2, flat.size), replace=False):
                orig = flat[i]
                step = h * max(1.0, abs(orig))
                flat[i] = orig + step
                hi = loss_fn().item()
                flat[i] = orig - step
                lo = loss_fn().item()
                flat[i] = orig
                fd = (hi - lo) / (2 * step)
                an = gflat[i]
                # floor the denominator at the central-difference noise
                # scale (~eps_machine * |loss| / h) so near-zero entries
                # are judged on absolute rather than relative error
                denom = max(abs(fd), abs(an), 1e-4 if dtype == "float64" else 1e-1)
                assert abs(fd - an) / denom < tol, f"fd {fd} vs analytic {an}"


# -- 3. flow identities -----------------------------------------------------------


def test_interpolation_endpoints_and_velocity_target(monkeypatch):
    """finetune_loss noises the future clip along x_t = (1 - t) x0 + t eps and
    regresses the velocity eps - x0, from t near 0 up to t = 1."""
    rng = np.random.default_rng(5)
    hist = rng.normal(size=(1, 8, 4, 4, 2)).astype(np.float32)
    x0 = rng.normal(size=(1, 8, 4, 4, 2)).astype(np.float32)
    eps = seeding.stream(23, 0xF17E).standard_normal(x0.shape).astype(np.float32)
    stub = ZeroVelocity()
    for t, expected in ((1e-9, x0), (1.0, eps), (0.37, 0.63 * x0 + 0.37 * eps)):
        monkeypatch.setattr(diffusion, "FINETUNE_TIMESTEPS", FixedTimestep(t))
        loss = diffusion.finetune_loss(stub, stub, hist, x0, c=[0], seed=23)
        assert np.allclose(stub.x_t, expected, atol=1e-6)
        assert loss.item() == pytest.approx(float(np.mean((eps - x0) ** 2)), rel=1e-6)


@pytest.mark.parametrize("mu,sigma,shift", [(0.0, 1.0, 1.0), (0.5, 0.8, 3.0)])
def test_timestep_samples_pass_ks_against_closed_form_cdf(mu, sigma, shift):
    from scipy import stats

    dist = diffusion.TimestepDistribution(mu=mu, sigma=sigma, shift=shift)
    draws = dist.sample(np.random.default_rng(11), size=100_000)
    res = stats.kstest(draws, lambda t: timestep_cdf(dist, t))
    assert res.statistic < 0.01


# -- 4. streaming equality --------------------------------------------------------


@pytest.mark.parametrize(
    "n_chunks,variant",
    [pytest.param(n, "dual", id=str(n)) for n in (1, 2, 4, 8)]
    + [pytest.param(n, "large_patchifier", id=f"large_patchifier-{n}") for n in (1, 2, 4, 8)],
)
def test_streaming_compression_equals_batch(n_chunks, variant):
    enc, _ = training.build_models(3, rate=(4, 4, 2), variant=variant)
    rng = np.random.default_rng(n_chunks)
    history = rng.normal(size=(enc.chunk_len * n_chunks, 8, 8, 4)).astype(np.float32)
    with no_grad():
        batch = enc.compress(history)
        ctx = None
        for k in range(n_chunks):
            ctx = enc.compress_streaming(ctx, history[k * enc.chunk_len : (k + 1) * enc.chunk_len])
    assert ctx.provenance == batch.provenance
    np.testing.assert_array_equal(ctx.tokens.numpy(), batch.tokens.numpy())


# -- 9. step-0 identities ---------------------------------------------------------


def _history_ctx_and_clip(seed):
    enc, g = training.build_models(seed)
    g.out_proj.weight.data[:] = np.random.default_rng(seed).normal(0, 0.05, g.out_proj.weight.shape)
    hist = np.random.default_rng(seed + 1).normal(size=(24, 8, 8, 4)).astype(np.float32)
    clip = np.random.default_rng(seed + 2).normal(size=(4, 8, 8, 4)).astype(np.float32)
    return enc, g, hist, clip


def test_lora_wrap_is_pointwise_identity():
    enc, g, hist, clip = _history_ctx_and_clip(21)
    with no_grad():
        ctx = enc.compress(hist)
        rope = g.row_rope((1,) + clip.shape, [1, 4, 7, 9])
        before = g.predict_velocity(clip[None], 0.8, 2, g.read_memory(ctx, (8, 8)), rope).numpy()
        g.enable_lora(rank=4, rng=seeding.stream(22, 0xAB))
        after = g.predict_velocity(clip[None], 0.8, 2, g.read_memory(ctx, (8, 8)), rope).numpy()
    assert np.array_equal(before, after)


# -- 10. determinism & persistence ------------------------------------------------


def _write_cfg(tmp_path, name, **training_over):
    cfg = {
        "dataset": {"seed": 77, "size": 2},
        "training": {"steps": 3, "batch": 1, "log_every": 1, **training_over},
        "output": {"dir": str(tmp_path / name)},
    }
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(cfg))
    return str(p)


def test_identical_config_and_seed_give_byte_identical_reports(tmp_path):
    outs = []
    for run in ("first", "second"):
        cfg = _write_cfg(tmp_path, run)
        assert cli.main(["pretrain", cfg]) == 0
        log = os.path.join(str(tmp_path / run), "pretrain.log")
        outs.append(open(log, "rb").read())
    assert outs[0] == outs[1]


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    enc, g = training.build_models(9)
    named = training.named_params(enc, g)
    path = str(tmp_path / "model.mcck")
    checkpoint.save_checkpoint(path, named, config={"x": 1}, step=12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the same config: no digest warning
        arrays, step, opt = checkpoint.load_checkpoint(path, config={"x": 1})
    assert step == 12
    for name, p in named.items():
        assert arrays[name].dtype == p.data.dtype
        assert np.array_equal(arrays[name], p.data)


def test_resumed_training_matches_uninterrupted_loss_log(tmp_path):
    straight = _write_cfg(tmp_path, "straight", steps=4)
    assert cli.main(["pretrain", straight]) == 0
    short = _write_cfg(tmp_path, "short", steps=2)
    assert cli.main(["pretrain", short]) == 0
    resumed = _write_cfg(tmp_path, "resumed", steps=4)
    ckpt = os.path.join(str(tmp_path / "short"), "pretrain.mcck")
    assert cli.main(["pretrain", resumed, "--resume", ckpt]) == 0

    def losses(run):
        return open(os.path.join(str(tmp_path / run), "pretrain.log")).read().splitlines()

    full, cont = losses("straight"), losses("resumed")
    assert cont == full[2:]


# -- 11. numpy-only runtime --------------------------------------------------------


def test_runtime_runs_without_scipy():
    """With every scipy import failing, the package imports, ``budget`` exits 0,
    and a pretrain step and a rollout clip run."""
    script = textwrap.dedent(
        """
        import sys
        sys.modules["scipy"] = None  # any import of scipy now raises ImportError
        import memctx, memctx.cli, memctx.experiments
        from memctx import rollout, training
        assert memctx.cli.main(["budget"]) == 0
        enc, g = training.build_models(0, rate=(4, 4, 2))
        dataset = training.make_dataset(0, 2)
        training.pretrain_retrieval(enc, g, dataset, steps=1, seed=0, batch=1)
        session = rollout.RolloutSession(g, enc, seed=0, sample_steps=1, seed_clip=dataset[0][0][: enc.chunk_len])
        assert session.step().shape[0] == enc.chunk_len
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(memctx.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
