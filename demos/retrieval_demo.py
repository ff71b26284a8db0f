"""Two-minute retrieval pretraining demo.

Trains the 4x4x2 compression encoder and toy DiT on the frame-retrieval
objective for a short budget and reports held-out retrieval PSNR against
a non-learned reference: the masked history's mean frame, scored on the
same clean targets.  The PSNR should climb visibly while the ctx-usage
probe shows the model beginning to read its compressed memory.  Both
probes score ``training.retrieval_cases``, the cases the recipes score.
"""

import time

import numpy as np

from memctx import diffusion, metrics, nn, training
from memctx.tensor import no_grad

STEPS = 1500
EVAL_SEED = 9


def mean_frame_psnr(eval_ds, n=4):
    """PSNR of the masked history's mean frame on the targets ``ctx_usage_delta`` scores."""
    scores = []
    for lat, _, masked, targets, _ in training.retrieval_cases(eval_ds, EVAL_SEED, n, "uniform"):
        guess = np.broadcast_to(masked.mean(axis=0), (len(targets),) + lat.shape[1:])
        scores.append(metrics.psnr(guess, lat[targets]))
    return float(np.mean(scores))


def ctx_usage_delta(enc, g, eval_ds, n=4):
    """Eval PSNR with the true compressed context minus with a zeroed one."""
    true_scores, zero_scores = [], []
    for lat, cond, masked, targets, seed in training.retrieval_cases(eval_ds, EVAL_SEED, n, "uniform"):
        shape = (len(targets),) + lat.shape[1:]
        with no_grad():
            ctx = enc.compress(masked)
            recon = diffusion.sample(g, ctx, cond, shape, seed, targets, steps=4)
            ctx.tokens = ctx.tokens * 0.0
            blind = diffusion.sample(g, ctx, cond, shape, seed, targets, steps=4)
        true_scores.append(metrics.psnr(recon, lat[targets]))
        zero_scores.append(metrics.psnr(blind, lat[targets]))
    return float(np.mean(true_scores)), float(np.mean(true_scores) - np.mean(zero_scores))


def main():
    train_ds = training.make_dataset(100, 64)
    eval_ds = training.make_dataset(200, 4)
    enc, g = training.build_models(0, rate=(4, 4, 2))
    opt = nn.Adam(training.named_params(enc, g), lr=3e-3)
    dist = diffusion.TimestepDistribution(mu=2.0, sigma=0.8)

    print(f"masked-history mean frame: {mean_frame_psnr(eval_ds):.2f} dB")

    t0 = time.time()

    def on_step(step, loss):
        if step % 300 == 0:
            psnr, delta = ctx_usage_delta(enc, g, eval_ds)
            print(f"step {step:5d}  loss {loss:.3f}  retrieval {psnr:.2f} dB  "
                  f"ctx-usage {delta:+.2f} dB  ({time.time() - t0:.0f}s)")

    training.pretrain_retrieval(enc, g, train_ds, steps=STEPS, seed=1,
                                optimizer=opt, timestep_dist=dist, on_step=on_step)


if __name__ == "__main__":
    main()
