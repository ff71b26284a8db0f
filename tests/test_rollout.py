"""Autoregressive session: streaming context growth, windows, determinism."""

import numpy as np
import pytest

from memctx import data, training
from memctx.rollout import RolloutSession


def _session(seed=0, **kw):
    enc, g = training.build_models(0, rate=(4, 4, 2))
    spec = data.SceneSpec.random(5, static=True)
    seed_clip = data.make_latent_scene(spec, 5, pixel_shape=(32, 64, 64)).data  # 8 latent frames
    return RolloutSession(g, enc, seed=seed, seed_clip=seed_clip, **kw), seed_clip


def test_streaming_context_grows_per_step():
    sess, seed_clip = _session()
    assert sess.generated_frames == 8
    assert sess.ctx.length == 16  # one compressed chunk
    sess.step()
    assert sess.generated_frames == 16
    assert sess.ctx.length == 32
    sess.step()
    assert sess.ctx.length == 48
    assert sess.full_history().shape == (24, 8, 8, 4)


def test_run_records():
    sess, _ = _session()
    video, records = sess.run(2)
    assert video.shape == (24, 8, 8, 4)
    assert [r["step"] for r in records] == [1, 2]
    assert records[-1]["context_length"] == 48
    assert all(np.isfinite(r["consistency_psnr"]) for r in records)


def test_rollout_deterministic():
    sess_a, _ = _session(seed=3)
    sess_b, _ = _session(seed=3)
    va, _ = sess_a.run(2)
    vb, _ = sess_b.run(2)
    assert np.array_equal(va, vb)


def test_rollout_seed_changes_output():
    sess_a, _ = _session(seed=3)
    sess_b, _ = _session(seed=4)
    # unlock the zero-initialized velocity head so seeds can differ
    for s in (sess_a, sess_b):
        s.dit.out_proj.weight.data[:] = np.random.default_rng(1).normal(
            0, 0.05, s.dit.out_proj.weight.shape
        )
    assert not np.array_equal(sess_a.run(1)[0], sess_b.run(1)[0])


def test_condition_schedule_switches():
    sess, _ = _session(condition_schedule=((0, 2), (16, 7)))
    assert sess.active_condition() == 2
    sess.step()  # now 16 frames generated
    assert sess.active_condition() == 7


def test_run_records_the_condition_each_clip_was_generated_with():
    # the switch to 7 lands exactly on the boundary after the first generated clip
    sess, _ = _session(condition_schedule=((0, 2), (16, 7)))
    _, records = sess.run(2)
    assert [r["condition"] for r in records] == [2, 7]


def test_condition_schedule_validation():
    enc, g = training.build_models(0)
    with pytest.raises(ValueError, match="frame 0"):
        RolloutSession(g, enc, seed=0, condition_schedule=((4, 1),))


def test_window_latents_tail():
    sess, seed_clip = _session(window_frames=5)
    win = sess.window_latents()
    assert win.shape == (5, 8, 8, 4)
    assert np.array_equal(win, seed_clip[-5:])
    sess.step()


def test_misaligned_seed_clip_rejected():
    enc, g = training.build_models(0)
    with pytest.raises(ValueError, match="misaligned"):
        RolloutSession(g, enc, seed=0, seed_clip=np.zeros((5, 8, 8, 4), np.float32))


def test_empty_session_errors():
    enc, g = training.build_models(0)
    sess = RolloutSession(g, enc, seed=0)
    with pytest.raises(ValueError):
        sess.full_history()
    with pytest.raises(ValueError):
        sess.step()
    with pytest.raises(ValueError):
        sess.run(0)
