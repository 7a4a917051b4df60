from pathlib import Path

import numpy as np
import pytest

from elicit import data, model
from elicit.linalg import gumbel_noise, softmax_rows
from conftest import corrupt_checkpoint, write_small_checkpoint


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
    cfg = model.TrainConfig(k=3, epochs=100, t0=10.0, te=0.1)
    assert model.temperature(0, cfg) == pytest.approx(10.0)
    assert model.temperature(100, cfg) == pytest.approx(0.1)
    assert model.temperature(50, cfg) == pytest.approx(1.0)  # geometric midpoint


def test_train_config_validation():
    with pytest.raises(ValueError):
        model.TrainConfig(k=3, t0=0.1, te=1.0)
    with pytest.raises(ValueError):
        model.TrainConfig(k=0)


def test_encode_onehot_selection():
    # hard one-hot rows pick out the third and first entries of r
    phi = np.full((2, 4), -50.0)
    phi[0, 2] = 50.0
    phi[1, 0] = 50.0
    r = np.array([[0.1, 0.2, 0.3, 0.4]])
    rng = np.random.Generator(np.random.PCG64(0))
    y, z = model.encode(phi, r, tau=0.01, rng=rng)
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
        y, _ = model.encode(phi, r, tau=0.05, rng=rng)
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
    x = (8.0 * rng.standard_normal((64, 301))).astype(dtype)
    x.flat[:10] = [0.0, -0.0, 100.0, -100.0, np.nan, -np.nan, np.inf, -np.inf, 1e-30, -1e-30]
    got, want = model._sigmoid(x), _masked_sigmoid(x)
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got.view(bits), want.view(bits))


def test_mse_loss_cases():
    r = np.array([[1.0, 0.0]])
    assert model.mse_loss(r, r) == 0.0
    assert model.mse_loss(np.array([[0.5, 0.5]]), r) == pytest.approx(0.5)
    a, b = np.array([[0.2, 0.9]]), np.array([[0.7, 0.1]])
    assert model.mse_loss(a, b) == pytest.approx(model.mse_loss(b, a))


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


def test_backward_matches_finite_differences():
    assert finite_difference_check(2, 4, 3, 2, seed=0) <= 1e-4


def test_backward_zero_gradient_at_minimum():
    # an all-zero decoder outputs 0.5 everywhere, so a 0.5 target makes the
    # reconstruction exact and every gradient vanishes
    phi, _, _ = small_instance(seed=5)
    theta = model.DecoderParams(np.zeros((2, 3)), np.zeros(3), np.zeros((3, 4)), np.zeros(4))
    r = np.full((2, 4), 0.5)
    g = np.zeros_like(phi)
    grads = model.backward(phi, theta, r, 1.0, g)
    for name in ("b2", "w2", "b1", "w1", "phi"):
        assert np.allclose(grads[name], 0.0, atol=1e-12)


def test_backward_shift_invariance():
    phi, theta, r = small_instance(seed=6)
    g = gumbel_noise(*phi.shape, rng=np.random.Generator(np.random.PCG64(7)))
    tau = 0.9
    loss1, _ = model._forward_backward(phi, theta, r, tau, g)
    shifted = phi.copy()
    shifted[0] += 3.17
    loss2, grads = model._forward_backward(shifted, theta, r, tau, g)
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
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name, p in params.items():
        grad = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * grad
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * grad * grad
        p -= lr * (state.m[name] / c1) / (np.sqrt(state.v[name] / c2) + state.eps)


@pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
def test_adam_step_bit_identical_to_allocating_reference(dtype, bits):
    rng = np.random.Generator(np.random.PCG64(15))
    shapes = {"w": (7, 5), "b": (5,)}
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


def test_retrain_decoder_noop_and_frozen_encoder(cluster_matrix):
    split = data.split_users(cluster_matrix, seed=0)
    cfg = _quick_cfg(epochs=10)
    phi, theta, _ = model.train(cluster_matrix, split, cfg)
    seeds = model.extract_seeds(phi)
    assert model.retrain_decoder(cluster_matrix, split, seeds, theta, 0) is theta
    phi_before = phi.copy()
    theta2 = model.retrain_decoder(cluster_matrix, split, seeds, theta, 5, seed=1)
    assert np.array_equal(phi, phi_before)  # encoder untouched
    R = cluster_matrix.dense(split.train_users, dtype=np.float32)
    z = R[:, seeds]
    before = model.mse_loss(model.decode(theta, z), R)
    after = model.mse_loss(model.decode(theta2, z), R)
    assert after <= before + 1e-6


def test_recommend_contract():
    rng = np.random.Generator(np.random.PCG64(11))
    m, k, d = 12, 3, 4
    theta = model.init_decoder(k, d, m, rng, dtype=np.float64)
    seeds = np.array([1, 5, 9])
    z = np.array([1.0, 0.0, 1.0])
    full = model.recommend(theta, seeds, z, m - k)
    assert sorted(full.tolist()) == sorted(set(range(m)) - {1, 5, 9})
    assert np.array_equal(model.recommend(theta, seeds, z, 5),
                          model.recommend(theta, seeds, z.copy(), 5))
    assert not set(seeds.tolist()) & set(full.tolist())
    for bad_n in (m - k + 1, -1):
        with pytest.raises(ValueError):
            model.recommend(theta, seeds, z, bad_n)
    block = model.recommend(theta, seeds, np.stack([z, 1.0 - z, z]), m - k)
    assert block.shape == (3, m - k)
    assert all(sorted(row.tolist()) == sorted(full.tolist()) for row in block)
    assert np.array_equal(block[0], block[2])
    with pytest.raises(ValueError):
        model.recommend(theta, seeds, np.ones((2, k + 1)), 5)


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
                assert np.array_equal(model._rank_candidates(row, seeds, N), reference)
                cut = -np.float64(row[reference[-1]])
                straddled += np.count_nonzero(keys <= cut) > N
                nan_cut += bool(np.isnan(cut))
    # equal keys straddle the cut in many rows, and the N-th key is NaN in
    # some: both take the full stable sort
    assert straddled > 50 and nan_cut > 5


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(12))
    k, m, d = 3, 10, 4
    phi = rng.standard_normal((k, m)).astype(np.float32)
    theta = model.init_decoder(k, d, m, rng)
    seeds = np.array([2, 4, 8], dtype=np.int64)
    path = str(tmp_path / "ckpt.dre")
    model.save_checkpoint(path, phi, theta, seeds, manifest={"k": k, "note": "x"})
    with open(path, "rb") as fh:
        assert fh.read(4) == b"DRE1"
    phi2, theta2, seeds2 = model.load_checkpoint(path)
    assert np.array_equal(phi, phi2)
    assert np.array_equal(theta.w1, theta2.w1) and np.array_equal(theta.b2, theta2.b2)
    assert np.array_equal(seeds, seeds2)
    manifest = dict(line.split("=", 1) for line in
                    Path(path + ".manifest").read_text().splitlines())
    assert manifest["k"] == "3"


@pytest.mark.parametrize("fault, message", [
    ("truncated", "bytes, but its header"),
    ("trailing", "bytes, but its header"),
    ("nan", "non-finite"),
    ("inf", "non-finite"),
    ("seed_out_of_range", "distinct item indices below m=10"),
    ("duplicate_seed", "distinct item indices below m=10"),
])
def test_load_checkpoint_rejects_corrupt_file(tmp_path, fault, message):
    path = str(tmp_path / "ckpt.dre")
    write_small_checkpoint(path)
    model.load_checkpoint(path)
    corrupt_checkpoint(path, fault)
    with pytest.raises(data.DataError, match=message):
        model.load_checkpoint(path)


def test_load_checkpoint_rejects_short_header(tmp_path):
    path = tmp_path / "ckpt.dre"
    path.write_bytes(b"DRE1\x03\0\0\0")
    with pytest.raises(data.DataError, match="not a DRE1 checkpoint"):
        model.load_checkpoint(str(path))
