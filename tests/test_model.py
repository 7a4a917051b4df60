import copy
import math
import os
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from elicit import data, evaluate, linalg, model
from elicit.linalg import gumbel_noise, softmax_rows
from conftest import (checkpoint_bytes, corrupt_checkpoint, matrix_from_rows,
                      write_small_checkpoint)


def small_instance(k=2, m=4, d=3, b=2, seed=0, dtype=np.float64):
    rng = np.random.Generator(np.random.PCG64(seed))
    phi = rng.standard_normal((k, m)).astype(dtype)
    theta = model.DecoderParams(
        w1=rng.standard_normal((k, d)).astype(dtype),
        b1=rng.standard_normal(d).astype(dtype),
        w2=rng.standard_normal((d, m)).astype(dtype),
        b2=rng.standard_normal(m).astype(dtype),
    )
    r = (rng.random((b, m)) < 0.5).astype(dtype)
    return phi, theta, r


def test_temperature_endpoints_and_midpoint():
    cfg = _quick_cfg(epochs=100, t0=10.0, te=0.1)
    assert model.temperature(0, cfg) == pytest.approx(10.0)
    assert model.temperature(100, cfg) == pytest.approx(0.1)
    assert model.temperature(50, cfg) == pytest.approx(1.0)  # geometric midpoint


def test_encode_onehot_selection():
    # hard one-hot rows pick out the third and first entries of r
    phi = np.full((2, 4), -50.0)
    phi[0, 2] = 50.0
    phi[1, 0] = 50.0
    r = np.array([[0.1, 0.2, 0.3, 0.4]])
    g = gumbel_noise(2, 4, np.random.Generator(np.random.PCG64(0)))
    y, z = model.encode(phi, r, tau=0.01, g=g, ws=model.Workspace())
    assert np.allclose(z, [[0.3, 0.1]], atol=1e-6)
    assert np.allclose(y.sum(axis=1), 1.0, atol=1e-6)


def test_encode_zero_noise_limit():
    phi = np.array([[0.5, 2.0, -1.0], [3.0, 0.0, 1.0]])
    y = softmax_rows(phi + np.zeros_like(phi), 1e-4)
    assert np.array_equal(np.argmax(y, axis=1), np.argmax(phi, axis=1))
    assert np.allclose(np.max(y, axis=1), 1.0, atol=1e-9)


def test_encode_gumbel_max_property():
    # argmax frequencies of the relaxed samples follow softmax(phi, 1)
    from scipy import stats
    rng = np.random.Generator(np.random.PCG64(1))
    phi = rng.standard_normal((1, 6))
    probs = softmax_rows(phi, 1.0)[0]
    counts = np.zeros(6)
    r = np.ones((1, 6))
    for _ in range(10000):
        y, _ = model.encode(phi, r, tau=0.05, g=gumbel_noise(1, 6, rng), ws=model.Workspace())
        counts[np.argmax(y[0])] += 1
    chi2 = stats.chisquare(counts, probs * 10000)
    assert chi2.pvalue > 0.01


def test_decode_zero_parameters():
    theta = model.DecoderParams(np.zeros((2, 3)), np.zeros(3), np.zeros((3, 4)), np.zeros(4))
    out = model.decode(theta, np.array([[1.0, 0.0]]))
    assert np.allclose(out, 0.5)


def test_decode_range_and_hand_forward():
    phi, theta, r = small_instance(seed=3)
    out = model.decode(theta, r[:, :2])
    assert np.all((out > 0) & (out < 1))
    # single hidden unit, hand-set weights, 2 items
    theta = model.DecoderParams(
        w1=np.array([[1.0]]), b1=np.array([0.5]),
        w2=np.array([[2.0, -1.0]]), b2=np.array([0.0, 1.0]),
    )
    z = np.array([[1.0]])
    h = 1 / (1 + np.exp(-1.5))
    expected = [1 / (1 + np.exp(-2 * h)), 1 / (1 + np.exp(-(1 - h)))]
    assert np.allclose(model.decode(theta, z), [expected], atol=1e-12)


def _masked_sigmoid(x):
    """The boolean-mask logistic function that model._sigmoid replaced,
    frozen as its bit-level reference."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
def test_sigmoid_bit_identical_to_masked_reference(dtype, bits):
    rng = np.random.Generator(np.random.PCG64(14))
    x = (8.0 * rng.standard_normal((700, 301))).astype(dtype)
    # several row blocks, the last one ragged
    step = model._block_rows(x)
    assert len(x) > 2 * step and len(x) % step
    specials = [0.0, -0.0, 100.0, -100.0, np.nan, -np.nan, np.inf, -np.inf, 1e-30, -1e-30]
    x.flat[:10] = specials
    x.flat[-10:] = specials
    # -0.0 leaves every x as it is, so the specials reach the kernel as such
    bias = rng.standard_normal(301).astype(dtype)
    bias[:10] = bias[-10:] = -0.0
    want = _masked_sigmoid(x + bias)
    got = x.copy()
    assert model._sigmoid(got, bias, model.Workspace()) is got  # in place
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got.view(bits), want.view(bits))


def test_mse_loss_cases():
    r = np.array([[1.0, 0.0]])
    assert model.mse_loss(r, r) == 0.0
    assert model.mse_loss(np.array([[0.5, 0.5]]), r) == pytest.approx(0.5)
    a, b = np.array([[0.2, 0.9]]), np.array([[0.7, 0.1]])
    assert model.mse_loss(a, b) == pytest.approx(model.mse_loss(b, a))


def _unblocked_decoder_forward(theta, z):
    """The decoder forward pass before its sigmoid was blocked and took the
    bias inside its block loop, frozen as its bit-level reference."""
    h = _masked_sigmoid(z @ theta.w1 + theta.b1)
    return h, _masked_sigmoid(h @ theta.w2 + theta.b2)


def _unblocked_decoder_backward(theta, z, h, r_hat, r_batch):
    """The decoder backward pass before its output gradient was built by row
    blocks from the positives of a dense 0/1 target r_batch, frozen as its
    bit-level reference."""
    d_out = (2.0 / r_batch.shape[0]) * (r_hat - r_batch) * r_hat * (1.0 - r_hat)
    d_h = (d_out @ theta.w2.T) * h * (1.0 - h)
    grads = {"w1": z.T @ d_h, "b1": d_h.sum(axis=0), "w2": h.T @ d_out, "b2": d_out.sum(axis=0)}
    return grads, d_h


def _unblocked_mse_loss(r_hat, r_batch):
    """The loss that the training step took from mse_loss before it summed the
    squared residuals of the backward, frozen as its bit-level reference."""
    diff = r_hat - r_batch
    return float(np.sum(diff * diff) / r_batch.shape[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_backward_bit_identical_to_unblocked_reference(dtype):
    # on these seeds, summing the squares block by block would change the
    # last bits of the loss in both dtypes
    phi, theta, _ = small_instance(k=5, m=700, d=16, b=256, seed=21, dtype=dtype)
    rng = np.random.Generator(np.random.PCG64(22))
    r = (rng.random((256, 700)) < 0.05).astype(dtype)
    # the output block spans several row blocks, the last one ragged; rows
    # with no positive and rows positive at every item, in the ragged block
    # and in others
    step = model._block_rows(r)
    assert len(r) > 2 * step and len(r) % step
    r[[0, -2]] = 0
    r[[94, -1]] = 1
    g = gumbel_noise(*phi.shape, rng, out=np.empty(phi.shape, dtype))
    tau = 0.8
    loss, grads = model._forward_backward(phi, theta, np.nonzero(r), len(r), tau, g,
                                          model.Workspace())

    y, z = model.encode(phi, r, tau, g, model.Workspace())
    h, r_hat = _unblocked_decoder_forward(theta, z)
    want, d_h = _unblocked_decoder_backward(theta, z, h, r_hat, r)
    d_y = (d_h @ theta.w1.T).T @ r
    want["phi"] = (d_y - (d_y * y).sum(axis=1, keepdims=True)) * y / tau
    assert loss == _unblocked_mse_loss(r_hat, r)
    assert sorted(grads) == sorted(want)
    for name, grad in grads.items():
        assert grad.dtype == want[name].dtype == dtype
        assert grad.tobytes() == want[name].tobytes(), name


def finite_difference_check(k, m, d, b, seed, h=1e-5):
    phi, theta, r = small_instance(k, m, d, b, seed)
    tau = 0.7
    g = gumbel_noise(k, m, np.random.Generator(np.random.PCG64(seed + 100)))
    grads = model.backward(phi, theta, r, tau, g)

    params = {"phi": phi, "w1": theta.w1, "b1": theta.b1, "w2": theta.w2, "b2": theta.b2}

    def loss_fn():
        y = softmax_rows(phi + g, tau)
        return model.mse_loss(model.decode(theta, r @ y.T), r)

    max_rel = 0.0
    for name, p in params.items():
        fd = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = loss_fn()
            p[idx] = orig - h
            down = loss_fn()
            p[idx] = orig
            fd[idx] = (up - down) / (2 * h)
        denom = max(np.max(np.abs(fd)), np.max(np.abs(grads[name])), 1e-8)
        max_rel = max(max_rel, np.max(np.abs(fd - grads[name])) / denom)
    return max_rel


def test_forward_backward_selects_through_encode(monkeypatch):
    # the training step's selection is encode's, so encode's tests cover it
    phi, theta, r = small_instance(seed=4)
    g = gumbel_noise(*phi.shape, np.random.Generator(np.random.PCG64(5)))
    calls = []
    encode = model.encode

    def recorded(*args):
        calls.append(args)
        return encode(*args)

    monkeypatch.setattr(model, "encode", recorded)
    model.backward(phi, theta, r, 0.7, g)
    assert len(calls) == 1 and calls[0][3] is g


def test_backward_matches_finite_differences():
    assert finite_difference_check(2, 4, 3, 2, seed=0) <= 1e-4


def test_backward_zero_gradient_at_minimum():
    # an all-zero decoder outputs 0.5 everywhere, so a 0.5 target would make
    # the reconstruction exact and every gradient vanish; with w2 = 0 the
    # output stays exactly 0.5 and the hidden gradient is 0, whatever w1 is
    phi, theta, _ = small_instance(k=2, m=4, d=3, seed=5)
    theta.w2[:] = 0.0
    theta.b2[:] = 0.0
    g = np.zeros_like(phi)
    # the target is given by its positives, so it must be 0/1
    with pytest.raises(ValueError, match="only 0 and 1"):
        model.backward(phi, theta, np.full((2, 4), 0.5), 1.0, g)
    # for a 0/1 target each output gradient is (2/b) * (0.5 - r) * 0.25,
    # +-1/16 at b = 4, exactly; the rows have no positive, all of them and
    # some, so a positive dropped, negated, or moved to another item or row
    # changes b2's column sums or w2, whose hidden rows h differ
    r = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                  [1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]])
    d_out = (0.5 - r) / 8
    h = model._decoder_forward(theta, r @ softmax_rows(phi + g, 1.0).T, model.Workspace())[0]
    assert len(np.unique(h, axis=0)) == len(r)
    grads = model.backward(phi, theta, r, 1.0, g)
    assert np.array_equal(grads["b2"], [-0.125, 0.125, 0.0, 0.125])
    assert np.array_equal(grads["b2"], d_out.sum(axis=0))
    assert grads["w2"].tobytes() == (h.T @ d_out).tobytes()
    for name in ("b1", "w1", "phi"):
        assert not grads[name].any(), name


def test_backward_shift_invariance():
    phi, theta, r = small_instance(seed=6)
    g = gumbel_noise(*phi.shape, rng=np.random.Generator(np.random.PCG64(7)))
    tau = 0.9
    loss1, _ = model._forward_backward(phi, theta, np.nonzero(r), len(r), tau, g,
                                       model.Workspace())
    shifted = phi.copy()
    shifted[0] += 3.17
    loss2, grads = model._forward_backward(shifted, theta, np.nonzero(r), len(r), tau, g,
                                           model.Workspace())
    assert loss1 == pytest.approx(loss2, rel=1e-12)
    assert abs(grads["phi"][0].sum()) <= 1e-12


def test_logit_vs_normalized_equivalence():
    phi, theta, r = small_instance(seed=8)
    g = gumbel_noise(*phi.shape, rng=np.random.Generator(np.random.PCG64(9)))
    log_pi = np.log(softmax_rows(phi, 1.0))
    y1 = softmax_rows(phi + g, 0.5)
    y2 = softmax_rows(log_pi + g, 0.5)
    assert np.allclose(y1, y2, atol=1e-12)


def test_adam_step_properties():
    p = np.array([1.0, -2.0, 3.0])
    state = model.AdamState()
    model.adam_step({"p": p}, {"p": np.zeros(3)}, state, lr=0.1)
    assert np.array_equal(p, [1.0, -2.0, 3.0])
    # bias-corrected first step has magnitude ~ lr for any nonzero gradient
    p = np.array([1.0])
    state = model.AdamState()
    model.adam_step({"p": p}, {"p": np.array([7.3])}, state, lr=0.1)
    assert abs(p[0] - (1.0 - 0.1)) <= 1e-6


def _allocating_adam_step(params, grads, state, lr):
    """The Adam step that model.adam_step replaced, with fresh moment arrays
    on every step, frozen as its bit-level reference."""
    state.t += 1
    b1, b2 = 0.9, 0.999
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        grad = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * grad
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * grad * grad
        p -= lr * (state.m[name] / c1) / (np.sqrt(state.v[name] / c2) + 1e-8)


@pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
def test_adam_step_bit_identical_to_allocating_reference(dtype, bits):
    rng = np.random.Generator(np.random.PCG64(15))
    # "big" spans two blocks, the second ragged
    shapes = {"w": (7, 5), "b": (5,), "big": (3, model.BLOCK_ELEMS // 2 + 11)}
    assert 1 < shapes["big"][0] * shapes["big"][1] / model.BLOCK_ELEMS < 2
    params = {name: rng.standard_normal(shape).astype(dtype) for name, shape in shapes.items()}
    reference = {name: p.copy() for name, p in params.items()}
    state, ref_state = model.AdamState(), model.AdamState()
    for step in range(5):
        # magnitudes from 1e-6 to 1e3, and one zero gradient per step
        grads = {name: (10.0 ** rng.integers(-6, 4, shape)
                        * rng.standard_normal(shape)).astype(dtype)
                 for name, shape in shapes.items()}
        grads["b"][step] = 0.0
        model.adam_step(params, grads, state, lr=0.01)
        _allocating_adam_step(reference, grads, ref_state, lr=0.01)
    for name in shapes:
        for got, want in ((params, reference), (state.m, ref_state.m), (state.v, ref_state.v)):
            assert got[name].dtype == want[name].dtype == dtype
            assert np.array_equal(got[name].view(bits), want[name].view(bits))


def test_extract_seeds_collision_free():
    phi = np.full((2, 10), -1.0)
    phi[0, 7] = 5.0
    phi[1, 2] = 5.0
    assert model.extract_seeds(phi).tolist() == [7, 2]


def test_extract_seeds_collision_resolution():
    # both rows peak at item 5; the more confident row keeps it
    phi = np.zeros((2, 6))
    phi[0, 5] = 4.0  # peak prob ~0.9
    phi[0, 1] = 2.0
    phi[1, 5] = 1.5  # peak prob ~0.6
    phi[1, 3] = 1.0
    seeds = model.extract_seeds(phi)
    assert seeds[0] == 5 and seeds[1] == 3
    assert len(set(seeds.tolist())) == 2


def test_extract_seeds_shift_invariance():
    rng = np.random.Generator(np.random.PCG64(10))
    phi = rng.standard_normal((4, 12))
    shifted = phi + rng.standard_normal((4, 1))
    assert np.array_equal(model.extract_seeds(phi), model.extract_seeds(shifted))


def _quick_cfg(**kw):
    base = dict(k=3, d=8, lr=0.01, epochs=30, batch_size=64,
                t0=5.0, te=0.1, retrain_epochs=10, seed=0, val_every=10)
    base.update(kw)
    return model.TrainConfig(**base)


def test_train_determinism_and_loss_decrease(cluster_matrix):
    split = data.split_users(cluster_matrix, seed=0)
    cfg = _quick_cfg()
    phi1, theta1, hist1 = model.train(cluster_matrix, split, cfg)
    phi2, theta2, hist2 = model.train(cluster_matrix, split, cfg)
    assert np.array_equal(phi1, phi2)
    assert np.array_equal(theta1.w2, theta2.w2)
    assert hist1 == hist2
    assert hist1[-1]["loss"] < hist1[0]["loss"]
    assert hist1[0]["tau"] == pytest.approx(5.0)


def _train_with_allocating_steps(matrix, split, cfg):
    """Reference: model.train's epochs with the training matrix held dense,
    minibatches taken by row, and each step allocating its arrays: the
    encoder and its softmax backward as plain expressions, the frozen
    unblocked decoder step and loss, and the allocating Adam step. It
    returns the final parameters and the per-epoch losses, which are what
    model.train returns when it validates only after the last epoch."""
    init_rng, noise_rng, shuffle_rng = model.rng_streams(cfg.seed)
    phi = model.init_encoder(cfg.k, matrix.m, init_rng)
    theta = model.init_decoder(cfg.k, cfg.d, matrix.m, init_rng)
    R = matrix.dense(split.train_users).astype(np.float32)
    state = model.AdamState()
    params = {"phi": phi, "w1": theta.w1, "b1": theta.b1, "w2": theta.w2, "b2": theta.b2}
    losses = []
    for e in range(cfg.epochs):
        tau = model.temperature(e, cfg)
        order = shuffle_rng.permutation(len(R))
        epoch_loss = 0.0
        for start in range(0, len(R), cfg.batch_size):
            r = R[order[start:start + cfg.batch_size]]
            g = gumbel_noise(cfg.k, matrix.m, noise_rng,
                             out=np.empty((cfg.k, matrix.m), np.float32))
            y = softmax_rows(phi + g, tau)
            z = r @ y.T
            h, r_hat = _unblocked_decoder_forward(theta, z)
            loss = _unblocked_mse_loss(r_hat, r)
            grads, d_h = _unblocked_decoder_backward(theta, z, h, r_hat, r)
            d_y = (d_h @ theta.w1.T).T @ r
            grads["phi"] = (d_y - (d_y * y).sum(axis=1, keepdims=True)) * y / tau
            _allocating_adam_step(params, grads, state, cfg.lr)
            epoch_loss += loss * len(r)
        losses.append(epoch_loss / len(R))
    return phi, theta, losses


def test_train_bit_identical_to_allocating_reference(cluster_matrix):
    # the cluster users, 6 with no positive and 6 positive at every item; 3
    # epochs of 4 minibatches, the last one ragged. A workspace array that a
    # step reads before writing all of it would carry the previous step's
    # rows, which differ most from the next step's at these users.
    n, m = cluster_matrix.n, cluster_matrix.m
    rows = np.split(cluster_matrix.indices, cluster_matrix.indptr[1:-1])
    matrix = matrix_from_rows(rows + [np.array([], np.int64)] * 6 + [np.arange(m)] * 6, m)
    split = data.split_users(matrix, seed=0)
    split = data.SplitSpec(np.union1d(split.train_users, np.arange(n, n + 12)),
                           split.val_users, split.test_users)
    cfg = _quick_cfg(k=4, d=16, epochs=3, batch_size=64, val_every=3)
    n_train = len(split.train_users)
    assert 3 * cfg.batch_size < n_train < 4 * cfg.batch_size
    # consecutive minibatches where one holds an all-positive user and the
    # next a user with no positive, or the other way round
    shuffle_rng = model.rng_streams(cfg.seed)[2]
    kinds = []
    for _ in range(cfg.epochs):
        users = split.train_users[shuffle_rng.permutation(n_train)]
        for start in range(0, n_train, cfg.batch_size):
            batch = users[start:start + cfg.batch_size]
            full, empty = batch >= n + 6, (batch >= n) & (batch < n + 6)
            kinds.append((bool(full.any()), bool(empty.any())))
    assert any((a[0] and b[1]) or (a[1] and b[0]) for a, b in zip(kinds, kinds[1:]))

    phi, theta, history = model.train(matrix, split, cfg)
    want_phi, want_theta, want_losses = _train_with_allocating_steps(matrix, split, cfg)
    assert [row["loss"] for row in history] == want_losses
    assert phi.tobytes() == want_phi.tobytes()
    for name in ("w1", "b1", "w2", "b2"):
        assert getattr(theta, name).tobytes() == getattr(want_theta, name).tobytes(), name


def test_train_returns_the_best_validation_snapshot(cluster_matrix, monkeypatch):
    # the second of three validations scores best: train must return the
    # parameters as they were then, not the last ones nor the first
    script = [0.2, 0.5, 0.1]
    phis, thetas = [], []  # the parameters at each validation
    extract_seeds = model.extract_seeds

    def recording_extract_seeds(phi):
        phis.append(phi.copy())
        return extract_seeds(phi)

    def scripted_validation(theta, seeds, matrix, user_ids, ws):
        thetas.append(copy.deepcopy(theta))
        return script[len(thetas) - 1]

    monkeypatch.setattr(model, "extract_seeds", recording_extract_seeds)
    monkeypatch.setattr(model, "_validation_ndcg", scripted_validation)
    split = data.split_users(cluster_matrix, seed=0)
    phi, theta, history = model.train(cluster_matrix, split, _quick_cfg(epochs=3, val_every=1))
    assert [row["val_ndcg"] for row in history] == script
    assert len(phis) == len(thetas) == 3
    # the epochs trained on, so the snapshot is not the last parameters
    assert phis[2].tobytes() != phis[1].tobytes()
    assert phi.tobytes() == phis[1].tobytes()
    for name in ("w1", "b1", "w2", "b2"):
        assert getattr(theta, name).tobytes() == getattr(thetas[1], name).tobytes(), name


def test_retrain_decoder_noop_and_frozen_encoder(cluster_matrix):
    split = data.split_users(cluster_matrix, seed=0)
    cfg = _quick_cfg(epochs=10)
    phi, theta, _ = model.train(cluster_matrix, split, cfg)
    seeds = model.extract_seeds(phi)
    kw = dict(lr=cfg.lr, batch_size=cfg.batch_size)
    assert model.retrain_decoder(cluster_matrix, split, seeds, theta, 0, seed=0, **kw) is theta
    phi_before = phi.copy()
    # trained in place: the copy keeps theta's weights for the comparison below
    theta2 = model.retrain_decoder(cluster_matrix, split, seeds, copy.deepcopy(theta), 5,
                                   seed=1, **kw)
    assert np.array_equal(phi, phi_before)  # encoder untouched
    R = cluster_matrix.dense(split.train_users).astype(np.float32)
    z = R[:, seeds]
    before = model.mse_loss(model.decode(theta, z), R)
    after = model.mse_loss(model.decode(theta2, z), R)
    assert after <= before + 1e-6


def _retrain_with_resident_matrix(matrix, split, seeds, theta, epochs, lr, batch_size, seed):
    """Reference: retrain_decoder with the whole training matrix held dense
    and its seed columns sliced once, minibatches taken by row, and the
    frozen unblocked decoder step and allocating Adam step."""
    theta = copy.deepcopy(theta)
    shuffle_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(1)[0]))
    R_train = matrix.dense(split.train_users).astype(theta.w1.dtype)
    Z = R_train[:, seeds]
    state = model.AdamState()
    params = {"w1": theta.w1, "b1": theta.b1, "w2": theta.w2, "b2": theta.b2}
    for _ in range(epochs):
        order = shuffle_rng.permutation(len(R_train))
        for start in range(0, len(R_train), batch_size):
            idx = order[start:start + batch_size]
            z, r = Z[idx], R_train[idx]
            h, r_hat = _unblocked_decoder_forward(theta, z)
            _allocating_adam_step(params, _unblocked_decoder_backward(theta, z, h, r_hat, r)[0],
                                  state, lr)
    return theta


@pytest.mark.parametrize("k, d, batch_size", [(3, 8, 32), (5, 16, 64), (4, 300, 256)])
def test_retrain_decoder_bit_identical_to_resident_matrix_reference(cluster_matrix, k, d,
                                                                    batch_size):
    # the cluster users and two training users more: one with no positive,
    # one positive at every item
    n, m = cluster_matrix.n, cluster_matrix.m
    rows = np.split(cluster_matrix.indices, cluster_matrix.indptr[1:-1])
    matrix = matrix_from_rows(rows + [np.array([], np.int64), np.arange(m)], m,
                              item_index=cluster_matrix.item_index)
    split = data.split_users(matrix, seed=0)
    split = data.SplitSpec(np.union1d(split.train_users, [n, n + 1]), split.val_users,
                           split.test_users)
    seeds = np.array([0, 11, 22, 7, 19][:k])
    theta = model.init_decoder(k, d, m, np.random.Generator(np.random.PCG64(4)))
    want = _retrain_with_resident_matrix(matrix, split, seeds, theta, 3, 0.01, batch_size, 2)
    # the decoder given is trained in place and returned
    got = model.retrain_decoder(matrix, split, seeds, theta, 3, lr=0.01,
                                batch_size=batch_size, seed=2)
    assert got is theta
    for name in ("w1", "b1", "w2", "b2"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_retrain_decoder_nan_weight_diverges_at_epoch_0(cluster_matrix):
    split = data.split_users(cluster_matrix, seed=0)
    theta = model.init_decoder(3, 8, cluster_matrix.m, np.random.Generator(np.random.PCG64(4)))
    theta.w2[2, 5] = np.nan
    with pytest.raises(RuntimeError, match="decoder retraining diverged at epoch 0"):
        model.retrain_decoder(cluster_matrix, split, np.array([0, 11, 22]), theta, 3,
                              lr=0.005, batch_size=256, seed=0)


def test_retrain_decoder_rejects_repeated_seed(cluster_matrix):
    split = data.split_users(cluster_matrix, seed=0)
    theta = model.init_decoder(3, 8, cluster_matrix.m, np.random.Generator(np.random.PCG64(4)))
    for epochs in (1, 0):
        with pytest.raises(ValueError, match="distinct"):
            model.retrain_decoder(cluster_matrix, split, np.array([0, 11, 0]), theta, epochs,
                                  lr=0.005, batch_size=256, seed=0)


def test_train_nan_encoder_diverges_at_epoch_0(cluster_matrix, monkeypatch):
    init_encoder = model.init_encoder

    def with_nan(*args, **kwargs):
        phi = init_encoder(*args, **kwargs)
        phi[1, 4] = np.nan
        return phi

    monkeypatch.setattr(model, "init_encoder", with_nan)
    split = data.split_users(cluster_matrix, seed=0)
    with pytest.raises(RuntimeError, match="training diverged at epoch 0"):
        model.train(cluster_matrix, split, _quick_cfg())


def test_recommend_contract():
    rng = np.random.Generator(np.random.PCG64(11))
    m, k, d = 12, 3, 4
    theta = model.init_decoder(k, d, m, rng)
    seeds = np.array([1, 5, 9])
    z = np.array([[1.0, 0.0, 1.0]])  # one user's answers, as a block
    full = model.recommend(theta, seeds, z, m - k)[0]
    assert sorted(full.tolist()) == sorted(set(range(m)) - {1, 5, 9})
    assert np.array_equal(model.recommend(theta, seeds, z, 5),
                          model.recommend(theta, seeds, z.copy(), 5))
    assert not set(seeds.tolist()) & set(full.tolist())
    for bad_n in (m - k + 1, -1):
        with pytest.raises(ValueError):
            model.recommend(theta, seeds, z, bad_n)
    block = model.recommend(theta, seeds, np.vstack([z, 1.0 - z, z]), m - k)
    assert block.shape == (3, m - k)
    assert all(sorted(row.tolist()) == sorted(full.tolist()) for row in block)
    assert np.array_equal(block[0], block[2])
    # a block of answers only: too many per user, or one user's alone
    for bad_z in (np.ones((2, k + 1)), z[0]):
        with pytest.raises(ValueError, match="block"):
            model.recommend(theta, seeds, bad_z, 5)


def _tie_decoder(k, m, dtype, rng):
    """A decoder under which every item scores the same in exact arithmetic,
    so that rounding alone ranks them: w1's columns are equal, so every
    hidden unit is too, and each column of w2 permutes one negative vector,
    so each output sums the same terms in another order (near -16, where
    the sigmoid keeps the last bits). A product that sums in another order,
    such as numpy's matrix-vector product of a single row, ranks them
    otherwise."""
    d = 64
    base = -rng.random(d)
    return model.DecoderParams(
        w1=np.repeat(rng.standard_normal((k, 1)), d, axis=1).astype(dtype),
        b1=np.zeros(d, dtype),
        w2=np.stack([rng.permutation(base) for _ in range(m)], axis=1).astype(dtype),
        b2=np.zeros(m, dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_recommend_of_distinct_rows_has_the_bits_of_decoding_every_row(monkeypatch, dtype):
    rng = np.random.Generator(np.random.PCG64(23))
    k, m = 4, 400
    seeds, N = np.array([3, 50, 51, 399]), m - k
    random = model.DecoderParams(*(rng.standard_normal(shape).astype(dtype)
                                   for shape in ((k, 16), (16,), (16, m), (m,))))
    answers = rng.integers(0, 2, (40, k)).astype(np.float64)  # at most 16 distinct rows
    # {name: (feedback block, rows decoded)}
    blocks = {
        "repeated": (answers, len(np.unique(answers, axis=0))),
        "repeated_f_order": (np.asfortranarray(answers), len(np.unique(answers, axis=0))),
        "identical": (np.repeat(rng.random((1, k)), 6, axis=0), 2),
        "two_identical": (np.repeat(rng.random((1, k)), 2, axis=0), 2),
        "distinct": (rng.random((5, k)), 5),
        "single": (rng.random((1, k)), 1),
        "none": (np.zeros((0, k)), 0),
    }
    decoded = []
    decode = model.decode

    def counting_decode(theta, z, ws=None):
        decoded.append(len(z))
        return decode(theta, z, ws)

    for theta in (random, _tie_decoder(k, m, dtype, rng)):
        for name, (z, rows) in blocks.items():
            want = model._rank_candidates(decode(theta, np.asarray(z, dtype)), seeds, N)
            monkeypatch.setattr(model, "decode", counting_decode)
            decoded.clear()
            got = model.recommend(theta, seeds, z, N)
            monkeypatch.setattr(model, "decode", decode)
            assert decoded == [rows], name
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name


def test_rank_candidates_block_matches_lexsort_reference():
    rng = np.random.Generator(np.random.PCG64(13))
    m = 40
    seeds = np.array([3, 17, 0, 39])
    candidates = np.setdiff1d(np.arange(m), seeds)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0])
    blocks = [
        rng.integers(-3, 4, size=(9, m)).astype(np.float32),   # many ties
        rng.integers(-3, 4, size=(9, m)).astype(np.float64),
        rng.integers(0, 5, size=(9, m)),                       # item counts
        rng.choice(specials, size=(9, m)),
        rng.choice(specials, size=(9, m)).astype(np.float32),
        np.where(rng.random((9, m)) < 0.5, np.nan, rng.integers(-3, 4, size=(9, m))),
        rng.standard_normal((9, m)).astype(np.float32),
    ]
    straddled = nan_cut = 0
    for scores in blocks:
        for N in (1, 7, 25, len(candidates)):
            block = model._rank_candidates(scores, seeds, N)
            assert block.shape == (len(scores), N)
            for row, ranked in zip(scores, block):
                keys = -row[candidates].astype(np.float64)
                reference = candidates[np.lexsort((candidates, keys))][:N]
                assert np.array_equal(ranked, reference)
                assert np.array_equal(model._rank_candidates(row[None], seeds, N)[0], reference)
                cut = -np.float64(row[reference[-1]])
                straddled += np.count_nonzero(keys <= cut) > N
                nan_cut += bool(np.isnan(cut))
    # equal keys straddle the cut in many rows, and the N-th key is NaN in
    # some: both take the full stable sort
    assert straddled > 50 and nan_cut > 5


def test_rank_candidates_peak_memory_is_one_chunk():
    m = 2000
    scores = np.random.Generator(np.random.PCG64(17)).standard_normal((256, m))
    seeds = np.arange(0, m, 500)
    assert model._block_rows(scores) < len(scores) // 4
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        ranked = model._rank_candidates(scores, seeds, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the rankings and one chunk of about BLOCK_ELEMS candidates: its float64
    # keys and their int64 partition (with the boolean tie count, 17 bytes
    # per candidate) and slack. A copy of the whole block's keys alone would
    # take 8 bytes for each of its 256 x 1996 candidates, 62 BLOCK_ELEMS.
    assert peak - ranked.nbytes < 32 * model.BLOCK_ELEMS
    candidates = np.setdiff1d(np.arange(m), seeds)
    want = candidates[np.argsort(-scores[:, candidates], axis=1, kind="stable")[:, :100]]
    assert np.array_equal(ranked, want)


def test_train_peak_memory_is_one_unit_with_one_snapshot():
    # 8 minibatches an epoch, the last ragged, and a validation after each of
    # 2 epochs, the second better: its snapshot replaces the first
    rng = np.random.Generator(np.random.PCG64(4))
    n, m = 2500, 4000
    matrix = matrix_from_rows([np.sort(rng.choice(m, rng.integers(10, 70), replace=False))
                               for _ in range(n)], m)
    split = data.split_users(matrix, seed=0)
    k, d, b = 8, 128, 256
    b_val = len(split.val_users)
    assert 7 * b < len(split.train_users) < 8 * b and b_val < evaluate.BLOCK_ROWS
    cfg = model.TrainConfig(k=k, d=d, lr=0.01, epochs=2, batch_size=b, t0=5.0, te=0.1,
                            retrain_epochs=1, seed=0, val_every=1)
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        history = model.train(matrix, split, cfg)[2]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < history[0]["val_ndcg"] < history[1]["val_ndcg"]
    params = 4 * (k * m + k * d + d + d * m + m)  # float32 phi and decoder
    # the parameters, their Adam moments and one best snapshot; and one
    # workspace: the minibatch (which also holds the squared residuals), the
    # output, the encoder's input, hidden and softmax arrays (y, its
    # gradient and the Gumbel draw) and the gradients. Validation decodes into
    # the same workspace. A squared-residual buffer, a second decode output
    # (b_val x m) next to the workspace's, or two snapshots alive at once
    # each exceed the slack, which covers the scratch and block buffers, the
    # positives and validation's boolean rows and rankings.
    workspace = 4 * (b * (2 * m + 2 * k + 3 * d) + 3 * k * m) + params
    assert peak - (4 * params + workspace) < 4 * b_val * m


def _in_one_and_two_lanes(monkeypatch, run):
    """run() as on 1 CPU and as on 2: the two results, and whether the
    second run split a block loop over two lanes."""
    out, two_lanes = [], []
    in_lanes = model._in_lanes

    def recording_in_lanes(total, step, body, **split):
        def recording_body(lane, start, stop):
            two_lanes.append(lane == 1)
            body(lane, start, stop)

        in_lanes(total, step, recording_body, **split)

    monkeypatch.setattr(model, "_in_lanes", recording_in_lanes)
    for cpus in (1, 2):
        monkeypatch.setattr(linalg, "_lane_cpus", cpus)
        two_lanes.clear()
        out.append(run())
    return out[0], out[1], any(two_lanes)


def _assert_same_bits(got, want):
    assert type(got) is type(want)
    if isinstance(got, dict):
        assert got.keys() == want.keys()
        for key in got:
            _assert_same_bits(got[key], want[key])
    elif isinstance(got, (tuple, list)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _assert_same_bits(a, b)
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# rows of 10 columns per block loop at BLOCK_ELEMS = 64, 6 rows a block: an
# odd count of blocks with a ragged last one, an even count, one block, and
# no rows
LANE_ROWS = {"odd_ragged": 27, "even": 24, "one_block": 4, "no_rows": 0}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", list(LANE_ROWS.values()), ids=list(LANE_ROWS))
def test_block_loops_in_two_lanes_are_bit_identical_to_one(monkeypatch, dtype, rows):
    monkeypatch.setattr(model, "BLOCK_ELEMS", 64)
    rng = np.random.Generator(np.random.PCG64(21))
    m, d = 10, 7
    x = (8.0 * rng.standard_normal((rows, m))).astype(dtype)
    x.flat[:4] = [np.nan, np.inf, -np.inf, -0.0][:x.size]
    bias = rng.standard_normal(m).astype(dtype)
    one, two, two_lanes = _in_one_and_two_lanes(
        monkeypatch, lambda: model._sigmoid(x.copy(), bias, model.Workspace()))
    _assert_same_bits(two, one)
    assert two_lanes == (rows > 6)

    theta = model.DecoderParams(*(rng.standard_normal(shape).astype(dtype)
                                  for shape in ((3, d), (d,), (d, m), (m,))))
    z = rng.random((rows, 3)).astype(dtype)
    r = (rng.random((rows, m)) < 0.3).astype(dtype)

    def backward():
        ws = model.Workspace()
        h, r_hat = model._decoder_forward(theta, z, ws)
        sq_err = np.empty_like(r_hat)
        grads, d_h = model._decoder_backward(theta, z, h, r_hat, np.nonzero(r), ws, sq_err)
        return {name: g.copy() for name, g in grads.items()}, d_h.copy(), r_hat.copy(), sq_err

    one, two, two_lanes = _in_one_and_two_lanes(monkeypatch, backward)
    _assert_same_bits(two, one)
    assert two_lanes == (rows > 6)

    # the blocks of every parameter form one loop, of 4 to 9 blocks here,
    # ragged ones and none of the empty parameter among them
    shapes = {"a": (rows, m), "b": (5,), "c": (2, 40), "empty": (0, 3), "d": (64,)}

    def adam():
        params = {name: np.linspace(-1, 1, math.prod(shape), dtype=dtype).reshape(shape)
                  for name, shape in shapes.items()}
        state = model.AdamState()
        for step in range(3):
            grads = {name: np.cos(p * (step + 1)) for name, p in params.items()}
            model.adam_step(params, grads, state, lr=0.01)
        return params, state.m, state.v

    one, two, two_lanes = _in_one_and_two_lanes(monkeypatch, adam)
    _assert_same_bits(two, one)
    assert two_lanes

    # few distinct scores, so ties straddle the cut, and a NaN
    scores = rng.integers(-2, 3, (rows, m)).astype(dtype)
    scores.flat[5:6] = np.nan
    for N in (0, 3, m - 2):
        one, two, two_lanes = _in_one_and_two_lanes(
            monkeypatch, lambda: model._rank_candidates(scores, [1, 8], N))
        _assert_same_bits(two, one)
        assert two_lanes == (rows > 3 and N > 0)  # chunks of 3 rows; N = 0 ranks nothing


def test_lanes_under_frequent_thread_switches_are_bit_identical_to_one(monkeypatch):
    # blocks of 2,048 elements, past numpy's threshold for releasing the GIL
    # in a loop, and a thread switch asked for every microsecond: lanes that
    # shared a buffer or a range would interleave and change bits
    monkeypatch.setattr(model, "BLOCK_ELEMS", 2048)
    rng = np.random.Generator(np.random.PCG64(22))
    rows, m, d = 2000, 64, 40
    theta = model.DecoderParams(*(rng.standard_normal(shape) for shape in
                                  ((5, d), (d,), (d, m), (m,))))
    z = rng.random((rows, 5))
    positives = np.nonzero(rng.random((rows, m)) < 0.3)

    def passes():
        ws = model.Workspace()
        h, r_hat = model._decoder_forward(theta, z, ws)
        grads, d_h = model._decoder_backward(theta, z, h, r_hat, positives, ws)
        params = {name: p.copy() for name, p in vars(theta).items()}
        state = model.AdamState(scratch=ws)
        for _ in range(2):
            model.adam_step(params, grads, state, lr=0.01)
        return (h.copy(), r_hat.copy(), d_h.copy(), params,
                model._rank_candidates(r_hat, [0, 9], 10))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        one, two, two_lanes = _in_one_and_two_lanes(monkeypatch, passes)
        for _ in range(20):
            _assert_same_bits(passes(), one)
    finally:
        sys.setswitchinterval(interval)
    assert two_lanes
    _assert_same_bits(two, one)


def test_train_and_retrain_in_two_lanes_are_bit_identical_to_one(cluster_matrix, monkeypatch):
    # at BLOCK_ELEMS = 300 an output block is 10 rows of the m = 30 items, so
    # the passes over minibatches of 64 rows (the last one ragged) and
    # validation's rankings run in two lanes
    monkeypatch.setattr(model, "BLOCK_ELEMS", 300)
    split = data.split_users(cluster_matrix, seed=0)
    cfg = _quick_cfg(epochs=4, val_every=2)
    assert len(split.train_users) % cfg.batch_size

    def fit():
        phi, theta, history = model.train(cluster_matrix, split, cfg)
        seeds = model.extract_seeds(phi)
        retrained = model.retrain_decoder(cluster_matrix, split, seeds, copy.deepcopy(theta), 3,
                                          lr=cfg.lr, batch_size=cfg.batch_size, seed=1)
        return phi, vars(theta), vars(retrained), history

    one, two, two_lanes = _in_one_and_two_lanes(monkeypatch, fit)
    assert two_lanes and two[3] == one[3]
    _assert_same_bits(two[:3], one[:3])


def test_lane_exception_reaches_the_caller_and_the_lanes_stay_usable(monkeypatch):
    monkeypatch.setattr(linalg, "_lane_cpus", 2)
    for failing in (1, 0, None):
        ran = {0: [], 1: []}  # lane -> (thread ident, start) of each block it ran

        def body(lane, start, stop):
            ran[lane].append((threading.get_ident(), start))
            if lane == failing and stop == (3, 5)[lane]:  # at the lane's last block
                raise KeyError(f"lane {lane}")

        if failing is None:
            model._in_lanes(5, 1, body)
        else:
            with pytest.raises(KeyError, match=f"lane {failing}"):
                model._in_lanes(5, 1, body)
        # both lanes ran to the end, lane 1 on the worker
        assert ran[0] == [(threading.get_ident(), start) for start in (0, 1, 2)]
        assert [start for _, start in ran[1]] == [3, 4]
        assert threading.get_ident() not in {ident for ident, _ in ran[1]}


def test_one_cpu_or_one_block_starts_no_thread(cluster_matrix, monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a lane thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)
    monkeypatch.setattr(linalg, "_lane_worker", None)
    # one block per loop, on 2 CPUs
    monkeypatch.setattr(linalg, "_lane_cpus", 2)
    model._sigmoid(np.zeros((3, 4)), np.zeros(4), model.Workspace())
    # many blocks, on the 1 CPU that the affinity mask allows
    monkeypatch.setattr(linalg, "_lane_cpus", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(model, "BLOCK_ELEMS", 64)
    model.train(cluster_matrix, data.split_users(cluster_matrix, seed=0), _quick_cfg(epochs=2))
    assert linalg._lane_cpus == 1 and linalg._lane_worker is None


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(12))
    k, m, d = 3, 10, 4
    phi = rng.standard_normal((k, m)).astype(np.float32)
    theta = model.init_decoder(k, d, m, rng)
    seeds = np.array([2, 4, 8], dtype=np.int64)
    path = str(tmp_path / "ckpt.dre")
    model.save_checkpoint(path, phi, theta, seeds)
    with open(path, "rb") as fh:
        assert fh.read(4) == b"DRE1"
    phi2, theta2, seeds2 = model.load_checkpoint(path)
    assert np.array_equal(phi, phi2)
    assert np.array_equal(theta.w1, theta2.w1) and np.array_equal(theta.b2, theta2.b2)
    assert np.array_equal(seeds, seeds2)


@pytest.mark.parametrize("fault, message", [
    ("truncated", "bytes, but its header"),
    ("trailing", "bytes, but its header"),
    ("nan", "non-finite"),
    ("inf", "non-finite"),
    ("seed_out_of_range", "distinct item indices below m=10"),
    ("duplicate_seed", "distinct item indices below m=10"),
    ("k_zero", r"header \(k=0, m=10, d=0\) needs 1 <= k < m and d >= 1"),
    ("k_equals_m", r"header \(k=10, m=10, d=4\) needs"),
    ("d_zero", r"header \(k=3, m=10, d=0\) needs"),
])
def test_load_checkpoint_rejects_corrupt_file(tmp_path, fault, message):
    path = str(tmp_path / "ckpt.dre")
    write_small_checkpoint(path)
    model.load_checkpoint(path)
    corrupt_checkpoint(path, fault)
    with pytest.raises(data.DataError, match=message):
        model.load_checkpoint(path)


@st.composite
def mutated_checkpoints(draw):
    """The bytes of a write_small_checkpoint file (k=3, m=10, d=4) after one
    to three mutations: a cut at a byte, a flipped byte, inserted bytes, or a
    new header (k, m, d) of small values with the body resized to what it
    implies."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ckpt.dre")
        write_small_checkpoint(path)
        raw = bytearray(Path(path).read_bytes())
    for kind in draw(st.lists(st.sampled_from(["cut", "flip", "insert", "header"]),
                              min_size=1, max_size=3)):
        if kind == "cut":
            del raw[draw(st.integers(0, len(raw))):]
        elif kind == "flip" and raw:
            raw[draw(st.integers(0, len(raw) - 1))] ^= draw(st.integers(1, 255))
        elif kind == "insert":
            raw[draw(st.integers(0, len(raw))):0] = draw(st.binary(min_size=1, max_size=8))
        elif kind == "header":
            raw = bytearray(checkpoint_bytes(*(draw(st.integers(0, 12)) for _ in range(3))))
    return bytes(raw)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_checkpoints())
@example(checkpoint_bytes(0, 10, 0))
def test_load_checkpoint_of_a_mutated_file_loads_or_is_data_error(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "mutated.dre"
    path.write_bytes(raw)
    try:
        phi, theta, seeds = model.load_checkpoint(str(path))
    except data.DataError as exc:
        # the CLI prints it as one error: line
        event("DataError")
        assert "\n" not in str(exc)
    else:
        # what loads is what train could have written
        event("loaded")
        (k, m), d = phi.shape, theta.w1.shape[1]
        assert 1 <= k < m and d >= 1
        assert [getattr(theta, name).shape for name in ("w1", "b1", "w2", "b2")] == [
            (k, d), (d,), (d, m), (m,)]
        assert np.isfinite(phi).all() and all(np.isfinite(p).all() for p in vars(theta).values())
        assert len(np.unique(seeds)) == k and (seeds < m).all()


def test_load_checkpoint_rejects_short_header(tmp_path):
    path = tmp_path / "ckpt.dre"
    path.write_bytes(b"DRE1\x03\0\0\0")
    with pytest.raises(data.DataError, match="not a DRE1 checkpoint"):
        model.load_checkpoint(str(path))
