"""Flow-matching machinery: timestep law, losses and their interpolation, sampler."""

import numpy as np
import pytest
from scipy import stats

from memctx import data, diffusion, seeding, training
from memctx.tensor import Tensor, backward


# -- timestep distribution -----------------------------------------------------------


def timestep_cdf(dist, t):
    """Closed-form CDF of ``dist``: undo the shift, then the logistic, then apply Phi.

    The oracle for the KS checks; the library itself only samples.
    """
    t = np.asarray(t, dtype=np.float64)
    s = dist.shift
    u = np.clip(t / (s - (s - 1.0) * t), 1e-300, 1 - 1e-16)
    return stats.norm.cdf((np.log(u / (1.0 - u)) - dist.mu) / dist.sigma)


def test_timestep_validation():
    with pytest.raises(ValueError):
        diffusion.TimestepDistribution(sigma=0.0)
    with pytest.raises(ValueError):
        diffusion.TimestepDistribution(shift=-1.0)


@pytest.mark.parametrize("dist", [
    diffusion.TimestepDistribution(),
    diffusion.TimestepDistribution(shift=3.0),
    diffusion.TimestepDistribution(mu=0.5, sigma=1.3, shift=2.0),
])
def test_timestep_samples_match_cdf(dist):
    """KS statistic of 1e5 draws against the analytic CDF stays below 0.01."""
    rng = np.random.default_rng(12345)
    draws = dist.sample(rng, size=100_000)
    assert np.all(draws > 0) and np.all(draws < 1)
    ks = stats.kstest(draws, lambda t: timestep_cdf(dist, t))
    assert ks.statistic < 0.01


def test_shift_pushes_mass_toward_one():
    rng = np.random.default_rng(2)
    plain = diffusion.TimestepDistribution().sample(rng, size=20_000)
    shifted = diffusion.TimestepDistribution(shift=3.0).sample(rng, size=20_000)
    assert shifted.mean() > plain.mean() + 0.1


def test_shift_one_is_plain_logit_normal():
    dist = diffusion.TimestepDistribution()
    z = np.random.default_rng(3).standard_normal(1000)
    assert np.array_equal(dist.sample(np.random.default_rng(3), size=1000), 1 / (1 + np.exp(-z)))
    z = np.linspace(-3, 3, 101)
    assert np.allclose(timestep_cdf(dist, 1 / (1 + np.exp(-z))), stats.norm.cdf(z), atol=1e-9)


# -- masking --------------------------------------------------------------------


def _omega(seed=0):
    return data.sample_omega(24, seed, policy="uniform")


def test_mask_history_keeps_selected_frames_bitwise():
    rng = np.random.default_rng(3)
    hist = rng.normal(size=(24, 8, 8, 4)).astype(np.float32)
    om = _omega(1)
    masked = diffusion.mask_history(hist, om, seed=7)
    for f in om.indices:
        assert np.array_equal(masked[f], hist[f])
    for f in om.mask_noise_levels:
        assert not np.array_equal(masked[f], hist[f])


def test_mask_history_matches_formula_oracle():
    rng = np.random.default_rng(4)
    hist = rng.normal(size=(24, 8, 8, 4)).astype(np.float32)
    om = _omega(2)
    masked = diffusion.mask_history(hist, om, seed=9)
    oracle_rng = seeding.stream(9, 0x3A5C)
    expected = hist.copy()
    for frame, level in om.mask_noise_levels.items():
        eps = oracle_rng.standard_normal(expected[frame].shape)
        expected[frame] = (1 - level) * expected[frame] + level * eps
    assert np.allclose(masked, expected.astype(np.float32), atol=1e-7)


def test_mask_determinism():
    hist = np.random.default_rng(5).normal(size=(24, 8, 8, 4)).astype(np.float32)
    om = _omega(3)
    a = diffusion.mask_history(hist, om, seed=11)
    b = diffusion.mask_history(hist, om, seed=11)
    assert np.array_equal(a, b)


# -- losses ------------------------------------------------------------------------


def _models(seed=0, **kw):
    return training.build_models(seed, rate=(4, 4, 2), **kw)


def test_retrieval_loss_at_init_equals_target_second_moment():
    """The velocity head starts at zero, so the loss is exactly E[(eps - x0)^2]
    over the drawn batch, recomputable from the seeded stream."""
    enc, g = _models()
    hist = np.random.default_rng(6).normal(size=(2, 24, 8, 8, 4)).astype(np.float32)
    om = _omega(4)
    loss = diffusion.retrieval_loss(g, enc, hist, om, c=[1, 2], seed=31)
    rng = seeding.stream(31, 0x2E72)
    target = hist[:, list(om.indices)]
    diffusion._mask_history(hist, om, rng)  # consume the same draws
    eps = rng.standard_normal(target.shape).astype(np.float32)
    diffusion.TimestepDistribution().sample(rng, size=2)
    expected = float(np.mean((eps - target) ** 2))
    assert loss.item() == pytest.approx(expected, rel=1e-6)


def test_finetune_loss_freeze_encoder_blocks_grads(monkeypatch):
    """A frozen encoder compresses off the tape: its tokens never require a gradient, and
    no encoder parameter gets one."""
    enc, g = _models()
    # give the output head weight so gradients are nonzero at init
    g.out_proj.weight.data[:] = np.random.default_rng(7).normal(
        0, 0.05, size=g.out_proj.weight.shape
    )
    taped = []
    original = enc.compress

    def recording(history):
        ctx = original(history)
        taped.append(ctx.tokens.requires_grad)
        return ctx

    monkeypatch.setattr(enc, "compress", recording)
    hist = np.random.default_rng(8).normal(size=(1, 24, 8, 8, 4)).astype(np.float32)
    loss = diffusion.finetune_loss(g, enc, hist[:, :16], hist[:, 16:], c=[0], seed=13, freeze_encoder=True)
    backward(loss)
    assert taped == [False]
    assert all(p.grad is None for p in enc.parameters())
    assert any(p.grad is not None and np.abs(p.grad).sum() > 0 for p in g.parameters())


class FixedTimestep:
    """Stub timestep law: every draw is ``t``."""

    def __init__(self, t):
        self.t = t

    def sample(self, rng, size=None):
        return np.full(size, self.t)


class ZeroVelocity:
    """Stub encoder and DiT: records the noised input and predicts zero velocity,
    so a loss equals the mean square of its velocity target."""

    def compress(self, history):
        return None

    def read_memory(self, ctx, latent_hw):
        return None

    def row_rope(self, shape, frame_indices, window_frames=0):
        return None

    def predict_velocity(self, x_t, t, c, memory, rope, window_latents=None):
        self.x_t = np.asarray(x_t)
        return Tensor(np.zeros(self.x_t.shape, np.float32))


def test_interpolate_formula():
    """retrieval_loss noises its targets to x_t = (1 - t) x0 + t eps and regresses eps - x0."""
    stub = ZeroVelocity()
    hist = np.random.default_rng(6).normal(size=(2, 24, 8, 8, 4)).astype(np.float32)
    om = _omega(4)
    loss = diffusion.retrieval_loss(stub, stub, hist, om, c=[1, 2], seed=31, timestep_dist=FixedTimestep(0.3))
    rng = seeding.stream(31, 0x2E72)
    diffusion._mask_history(hist, om, rng)  # consume the same draws
    x0 = hist[:, list(om.indices)]
    eps = rng.standard_normal(x0.shape).astype(np.float32)
    assert np.allclose(stub.x_t, 0.7 * x0 + 0.3 * eps, atol=1e-6)
    assert loss.item() == pytest.approx(float(np.mean((eps - x0) ** 2)), rel=1e-6)


def test_retrieval_loss_validation():
    enc, g = _models()
    hist = np.zeros((1, 20, 8, 8, 4), dtype=np.float32)
    with pytest.raises(ValueError, match="history length"):
        diffusion.retrieval_loss(g, enc, hist, _omega(6), c=[0], seed=1)


def test_finetune_loss_at_init_oracle():
    enc, g = _models()
    rng0 = np.random.default_rng(9)
    hist = rng0.normal(size=(1, 16, 8, 8, 4)).astype(np.float32)
    fut = rng0.normal(size=(1, 8, 8, 8, 4)).astype(np.float32)
    loss = diffusion.finetune_loss(g, enc, hist, fut, c=[3], seed=17)
    rng = seeding.stream(17, 0xF17E)
    eps = rng.standard_normal(fut.shape).astype(np.float32)
    expected = float(np.mean((eps - fut) ** 2))
    assert loss.item() == pytest.approx(expected, rel=1e-6)


def test_finetune_loss_shape_validation():
    enc, g = _models()
    with pytest.raises(ValueError):
        diffusion.finetune_loss(
            g, enc, np.zeros((1, 16, 8, 8, 4), np.float32),
            np.zeros((1, 8, 4, 4, 4), np.float32), c=[0], seed=1,
        )


# -- sampler --------------------------------------------------------------------


class _ConstantVelocity:
    """Stub model with a fixed velocity field, for exact Euler oracles."""

    def __init__(self, v):
        self.v = v

    def row_rope(self, shape, frame_indices, window_frames=0):
        return None

    def predict_velocity(self, x_t, t, c, memory, rope, window_latents=None):
        n = np.asarray(x_t).shape[0]
        return Tensor(np.broadcast_to(self.v, (n,) + self.v.shape).copy())


def test_sampler_exact_on_constant_field():
    """With v constant, Euler gives x0 = eps - v for any step count."""
    rng = np.random.default_rng(10)
    v = rng.normal(size=(2, 8, 8, 4)).astype(np.float32)
    stub = _ConstantVelocity(v)
    for steps in (1, 3, 8):
        out = diffusion.sample(stub, None, c=0, shape=(2, 8, 8, 4), seed=21, frame_indices=[0, 1], steps=steps)
        eps = seeding.stream(21, 0x5A3B).standard_normal((2, 8, 8, 4)).astype(np.float32)
        assert np.allclose(out, eps - v, atol=1e-5)


def test_sampler_deterministic():
    enc, g = _models()
    from memctx.tensor import no_grad

    hist = np.random.default_rng(11).normal(size=(24, 8, 8, 4)).astype(np.float32)
    with no_grad():
        ctx = enc.compress(hist)
        a = diffusion.sample(g, ctx, c=2, shape=(2, 8, 8, 4), seed=5, frame_indices=[3, 9])
        b = diffusion.sample(g, ctx, c=2, shape=(2, 8, 8, 4), seed=5, frame_indices=[3, 9])
    assert np.array_equal(a, b)


@pytest.mark.parametrize("code", [-1, 16, 2.7], ids=str)
def test_sampler_refuses_a_condition_code_outside_the_vocabulary(code):
    """−1 would read code 15's row, 16 index past the table, and 2.7 run code 2."""
    _, g = _models()
    match = "codes must be integers" if isinstance(code, float) else f"code {code} is outside the vocabulary of 16 codes"
    with pytest.raises(ValueError, match=match):
        diffusion.sample(g, None, c=code, shape=(2, 8, 8, 4), seed=5, frame_indices=[3, 9], steps=1)


def test_sampler_validation():
    with pytest.raises(ValueError):
        diffusion.sample(_ConstantVelocity(np.zeros((1, 2, 2, 4), np.float32)), None, 0,
                         (1, 2, 2, 4), seed=0, frame_indices=[0], steps=0)


@pytest.mark.parametrize("policy", ["uniform", "fixed-endpoints"])
def test_retrieval_cases_follow_the_scoring_protocol(policy):
    """Per scene k, cycling through the dataset: an index set drawn on stream 0xE7A1, the history
    masked on 0xE7A3, its first four clean frames as targets, and sample seed (seed, 0xE7A4, k)."""
    dataset = training.make_dataset(3, 2)
    cases = list(training.retrieval_cases(dataset, 9, 3, policy))
    assert len(cases) == 3
    for k, (lat, cond, masked, targets, sample_seed) in enumerate(cases):
        want_lat, want_cond = dataset[k % 2]
        omega = data.sample_omega(24, (9, 0xE7A1, k), policy=policy)
        assert lat is want_lat and cond == want_cond
        assert np.array_equal(masked, diffusion.mask_history(want_lat, omega, (9, 0xE7A3, k)))
        assert targets == sorted(omega.indices)[:4]
        assert sample_seed == (9, 0xE7A4, k)
        if policy == "fixed-endpoints":
            assert targets == [23]
