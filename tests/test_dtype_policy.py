"""The dtype policy: default_dtype() decides what parameters and activations are."""

import numpy as np
import pytest

from memctx import data, diffusion, training
from memctx.compressor import VARIANTS
from memctx.tensor import no_grad, using_dtype


def _tape(loss):
    """Every node reachable from ``loss``, leaves included."""
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if node._id not in seen:
            seen[node._id] = node
            stack.extend(node._parents)
    return seen.values()


def _dtypes(variant, history):
    """Dtype name sets of everything the policy covers, for one freshly built variant."""
    enc, g = training.build_models(0, variant=variant, model_dim=16, n_blocks=1, n_heads=2)
    out = {"params": {p.dtype.name for p in g.parameters() + enc.parameters()}}
    omega = data.sample_omega(history.shape[1], (0, 1))
    loss = diffusion.retrieval_loss(g, enc, history, omega, [0, 1], seed=2)
    out["retrieval_tape"] = {n.dtype.name for n in _tape(loss)}
    loss = diffusion.finetune_loss(
        g, enc, history[:, :16], history[:, 16:], [0, 1], seed=3,
        window_latents=history[:, 12:16],
    )
    out["finetune_tape"] = {n.dtype.name for n in _tape(loss)}
    with no_grad():
        ctx = enc.compress_streaming(None, history[0, :8])
        ctx = enc.compress_streaming(ctx, history[0, 8:16])
    out["stream_tokens"] = {ctx.tokens.dtype.name}
    clip = diffusion.sample(g, ctx, 0, (8, 8, 8, 4), seed=4, steps=1, frame_indices=list(range(16, 24)))
    out["clip"] = {clip.dtype.name}
    return out


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("policy", ["float32", "float64"])
def test_everything_follows_the_default_dtype(variant, policy):
    # inputs of the other width, so every entry point has to cast them
    other = np.float64 if policy == "float32" else np.float32
    history = np.random.default_rng(5).normal(size=(2, 24, 8, 8, 4)).astype(other)
    with using_dtype(policy):
        found = _dtypes(variant, history)
    assert found == {key: {policy} for key in found}
