"""End-to-end seed-item selection: relaxed categorical encoder, 2-layer
sigmoid decoder, joint MSE training with Adam and temperature annealing,
decoder re-training on hard selections, and new-user recommendation."""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import evaluate
from .data import DataError, densify
from .linalg import (BLOCK_ELEMS, DENSE_LANE_WORK, SMALL_GEMM_WORK, _in_lanes, _matmul,
                     gumbel_noise, softmax_rows)

CHECKPOINT_MAGIC = b"DRE1"
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# the share U/b of rows to decode up to which a decoder-only step decodes
# each distinct row once: on the perfbench seed-7 matrix (b = 256, k = 50,
# d = 300, 2 cores) such a step took 0.76 of the time of decoding every row
# at U/b 0.26, 0.96 at 0.8, 0.99 at 0.85 and 1.01 at 0.9
DISTINCT_ROWS_CUT = 0.85


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters. Their defaults and ranges are the rules of
    cli.CONFIG_RULES, which cli.check_config applies where a command reads its
    config; built directly, a TrainConfig holds what it is given."""
    k: int
    d: int
    lr: float
    epochs: int
    batch_size: int
    t0: float
    te: float
    retrain_epochs: int
    seed: int
    val_every: int


@dataclass
class DecoderParams:
    w1: np.ndarray  # k x d
    b1: np.ndarray  # d
    w2: np.ndarray  # d x m
    b2: np.ndarray  # m


class Workspace:
    """The arrays of one training unit (one `train` or `retrain_decoder`
    call), which every step and validation of the unit reuses, or of one
    decode. A named array is made at its first request, and made again with
    more rows at a request for more; a request for no more rows, as from a
    ragged last batch, gets the leading rows of the same array. A name is
    an array, not one value: where values' lives do not overlap, one array
    holds them in turn (the DRE step's "r_hat" holds the minibatch, the
    output, its gradient, the minibatch again and then a softmax product).
    Steps write into these arrays with out= or in place, so no step
    allocates an array the size of a minibatch or a parameter, and a step's
    results are overwritten by the next step's instead of staying alive
    while it allocates its own."""

    def __init__(self):
        self._arrays = {}

    def get(self, name, shape, dtype):
        a = self._arrays.get(name)
        if a is None or a.dtype != dtype or a.shape[1:] != shape[1:] or len(a) < shape[0]:
            a = self._arrays[name] = np.empty(shape, dtype)
        return a[:shape[0]]

    def lane_buffers(self, n, dtype):
        """The block buffers of the two lanes (_in_lanes), for each two
        arrays of n elements of dtype, which every block loop of the unit
        shares; in one lane, lane 1's are made but never touched."""
        return [(self.get(f"lane {lane} a", (n,), dtype), self.get(f"lane {lane} b", (n,), dtype))
                for lane in (0, 1)]


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    scratch: Workspace = field(default_factory=Workspace)  # adam_step's block buffers
    t: int = 0


def temperature(e, cfg):
    """Exponential annealing from t0 down to te over the epoch budget."""
    return cfg.t0 * (cfg.te / cfg.t0) ** (e / cfg.epochs)


def init_encoder(k, m, rng):
    return (0.01 * rng.standard_normal((k, m))).astype(np.float32)


def init_decoder(k, d, m, rng):
    """Glorot-uniform float32 weights, zero biases."""
    lim1 = np.sqrt(6.0 / (k + d))
    lim2 = np.sqrt(6.0 / (d + m))
    return DecoderParams(
        w1=rng.uniform(-lim1, lim1, (k, d)).astype(np.float32),
        b1=np.zeros(d, dtype=np.float32),
        w2=rng.uniform(-lim2, lim2, (d, m)).astype(np.float32),
        b2=np.zeros(m, dtype=np.float32),
    )


def encode(phi, r_batch, tau, g, ws):
    """Relaxed categorical selection: y = softmax((phi + g) / tau) with one
    Gumbel draw g shared across the batch; z = r @ y^T. Both are arrays of
    the workspace ws."""
    y = ws.get("y", phi.shape, np.result_type(phi, g))
    softmax_rows(np.add(phi, g, out=y), tau, out=y)
    z = ws.get("z", (len(r_batch), len(y)), np.result_type(r_batch, y))
    return y, _matmul(r_batch, y.T, out=z)


def _block_rows(a):
    """Rows of `a` per block of about BLOCK_ELEMS elements, at least one."""
    return max(1, BLOCK_ELEMS // max(1, math.prod(a.shape[1:])))


def _sigmoid(x, bias, ws):
    """Logistic function of x + bias (bias: one value per column) without
    overflow: 1 / (1 + e) for x + bias >= 0 and e / (1 + e) below, with
    e = exp(-|x + bias|); written over x, which is returned.
    min(a, -a) is -|a| except that it keeps the sign bit of a NaN, which
    -abs(a) would flip. The numerator max(e, a >= 0) is 1 or e as required,
    since e <= 1 and a NaN e propagates, with no branch. Works through blocks
    of whole rows, in lanes (_in_lanes) with the block buffers of the
    workspace ws, so each pass (the bias sum first) reads a block still in
    cache; every element sees the same operations, so the bits do not depend
    on the block size or the lanes."""
    step = _block_rows(x)
    # each lane's e buffer, and a mask in its b buffer's bytes
    bufs = [(e, b.view(bool)) for e, b in ws.lane_buffers(x[:step].size, x.dtype)]

    def rows(lane, start, stop):
        a = x[start:stop]
        a += bias
        e_buf, pos_buf = bufs[lane]
        e, pos = e_buf[:a.size].reshape(a.shape), pos_buf[:a.size].reshape(a.shape)
        np.negative(a, out=e)
        np.exp(np.minimum(a, e, out=e), out=e)
        np.maximum(e, np.greater_equal(a, 0, out=pos), out=a)
        e += 1
        np.divide(a, e, out=a)

    _in_lanes(len(x), step, rows)
    return x


def _decoder_forward(theta, z, ws, out=None):
    """Hidden activations and reconstruction for a block of inputs z, as
    arrays of the workspace ws, or as the leading rows of out, a pair of
    arrays for them; each layer's product buffer takes its bias and then its
    output."""
    n, dtype = len(z), np.result_type(z, theta.w1)
    if out is None:
        out = (ws.get("h", (n, theta.w1.shape[1]), dtype),
               ws.get("r_hat", (n, theta.w2.shape[1]), np.result_type(dtype, theta.w2)))
    h = _sigmoid(_matmul(z, theta.w1, out=out[0][:n]), theta.b1, ws)
    return h, _sigmoid(_matmul(h, theta.w2, out=out[1][:n]), theta.b2, ws)


def _distinct_rows(theta, z):
    """The rows of z, a block of decoder inputs, whose decode gives the bits
    of decoding z when its rows are taken by `inverse`: (rows, inverse), or
    None where no such rows are fewer than z's. rows holds the first row of
    each distinct row of z (by its bytes), repeated in turn as needed so that
    each product of the decode runs over more than SMALL_GEMM_WORK
    multiply-adds, as over z, and over at least 2 rows: a 1-row decode takes
    numpy's matrix-vector path, which rounds differently from the matrix
    product. Only float32 decodes are grouped (see SMALL_GEMM_WORK)."""
    # the smaller product's multiply-adds per row set the least rows to decode
    least = max(2, SMALL_GEMM_WORK // min(theta.w1.size, theta.w2.size) + 1)
    if np.result_type(z, theta.w1, theta.w2) != np.float32 or len(z) <= least:
        return None
    keys = np.ascontiguousarray(z).view(np.dtype((np.void, z[0].nbytes))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    count = max(len(first), least)
    return (np.resize(first, count), inverse) if count < len(z) else None


def _decoder_step(theta, z, positives, ws):
    """The decoder's gradients on the inputs z with the given positives, as
    _decoder_backward returns them (arrays of the workspace ws): those of
    _decoder_forward and _decoder_backward over every row, to the bit. Where
    at most DISTINCT_ROWS_CUT of z's rows, and at most d, are to be decoded
    (_distinct_rows), the forward decodes just those, into the leading rows
    of the "d_h" and "d_w2" buffers, which the backward writes only after it
    has read h and r_hat, and takes its rows back to z's with np.take
    (mode="clip" writes straight into out; the default buffers all of it)."""
    b, (d, m) = len(z), theta.w2.shape
    distinct = _distinct_rows(theta, z)
    if distinct is None or len(distinct[0]) > min(DISTINCT_ROWS_CUT * b, d):
        h, r_hat = _decoder_forward(theta, z, ws)
    else:
        rows, inverse = distinct
        h, r_hat = _decoder_forward(theta, z[rows], ws, out=(ws.get("d_h", (b, d), np.float32),
                                                            ws.get("d_w2", (d, m), np.float32)))
        h = np.take(h, inverse, axis=0, mode="clip", out=ws.get("h", (b, d), np.float32))
        r_hat = np.take(r_hat, inverse, axis=0, mode="clip",
                        out=ws.get("r_hat", (b, m), np.float32))
    return _decoder_backward(theta, z, h, r_hat, positives, ws)[0]


def decode(theta, z_batch, ws=None):
    """The reconstruction of z_batch, an array of the workspace ws, a fresh
    one when not given."""
    return _decoder_forward(theta, z_batch, Workspace() if ws is None else ws)[1]


def mse_loss(r_hat, r_batch):
    """Per-user sum of squared errors over items, averaged over the batch."""
    diff = r_hat - r_batch
    return float(np.sum(diff * diff) / r_batch.shape[0])


def _decoder_backward(theta, z, h, r_hat, positives, ws, loss=False):
    """Gradients of the MSE loss w.r.t. the decoder parameters, plus the
    gradient at the hidden pre-activation, from which callers that also
    train the encoder continue the chain rule, all arrays of the workspace
    ws: (grads, d_h). The 0/1 target r is given by its positives (rows,
    items), ordered by row, as RatingMatrix.positives returns them. The
    output gradient is written over r_hat. With loss=True, (grads, d_h,
    loss) with the loss of mse_loss, to the bit: the squared residuals
    (r_hat - r)**2 go into the leading b rows of the "d_w2" array, grown to
    max(b, d) rows, and are summed there before w2's gradient is written
    over them."""
    b, m = r_hat.shape
    rows, items = positives
    at = rows * m
    at += items  # flat positions of the positives
    flat = r_hat.reshape(-1, copy=False)
    step = _block_rows(r_hat)
    bufs = ws.lane_buffers(r_hat[:step].size, r_hat.dtype)
    w2_dtype = np.result_type(h, r_hat)
    sq_err = ws.get("d_w2", (max(b, len(theta.w2)), m), w2_dtype)[:b] if loss else None

    # by row blocks that stay in cache, in lanes, with the operations and
    # order of (2 / b) * (r_hat - r) * r_hat * (1 - r_hat), so bit-identical
    # to it: r_hat - r is r_hat - 1 at a positive and r_hat itself elsewhere
    def rows_of(lane, start, stop):
        d = r_hat[start:stop]  # becomes the block of the output gradient
        rh = bufs[lane][0][:d.size].reshape(d.shape)
        np.copyto(rh, d)
        lo, hi = np.searchsorted(rows, (start, stop))
        flat[at[lo:hi]] -= 1
        if sq_err is not None:
            np.multiply(d, d, out=sq_err[start:stop])
        d *= 2.0 / b
        d *= rh
        d *= np.subtract(1.0, rh, out=rh)

    _in_lanes(b, step, rows_of)
    # mse_loss's sum over the same squares, so the same bits
    summed = None if sq_err is None else float(np.sum(sq_err) / b)
    d_out = r_hat
    d_h = ws.get("d_h", h.shape, np.result_type(d_out, theta.w2))
    d_w2 = ws.get("d_w2", theta.w2.shape, w2_dtype)
    # the two products of d_out at once, one per lane, each whole: fewer
    # hand-overs, and no operand packed twice, than cutting each in two
    products = ((d_out, theta.w2.T, d_h), (h.T, d_out, d_w2))
    _in_lanes(2, 1, lambda lane, i, _: np.matmul(*products[i][:2], out=products[i][2]),
              split=d_out.size * h.shape[1] >= DENSE_LANE_WORK)
    d_h *= h
    d_h *= np.subtract(1.0, h, out=ws.get("1 - h", h.shape, h.dtype))
    grads = {
        "w1": _matmul(z.T, d_h, out=ws.get("d_w1", theta.w1.shape, np.result_type(z, d_h))),
        "b1": np.sum(d_h, axis=0, out=ws.get("d_b1", theta.b1.shape, d_h.dtype)),
        "w2": d_w2,
        "b2": np.sum(d_out, axis=0, out=ws.get("d_b2", theta.b2.shape, d_out.dtype)),
    }
    return (grads, d_h) if summed is None else (grads, d_h, summed)


def _forward_backward(phi, theta, positives, b, tau, g, ws):
    """Forward pass with the given Gumbel noise g, then exact reverse-mode
    gradients of the MSE loss w.r.t. phi and all decoder parameters, as
    arrays of the workspace ws: (loss, grads). The target is the 0/1
    minibatch of b rows whose positives (rows, items), ordered by row, are
    given; the encoder reads it densified in phi's dtype. Each array holds
    a value only while it is live: the minibatch is densified into the
    output array, read by the encoder and overwritten by the decode; the
    squared residuals fill the w2 gradient's array (_decoder_backward)
    until the loss is summed; once the output gradient is spent, the
    minibatch is densified there again for the encoder's gradient d_y,
    which is written into the workspace's Gumbel array "g" (never into a g
    the caller passed), and then over by phi's gradient."""
    m = phi.shape[1]
    r_batch = densify(positives, ws.get("r_hat", (b, m), phi.dtype))
    y, z = encode(phi, r_batch, tau, g, ws)
    h, r_hat = _decoder_forward(theta, z, ws)
    grads, d_h, loss = _decoder_backward(theta, z, h, r_hat, positives, ws, loss=True)
    r_batch = densify(positives, ws.get("r_hat", (b, m), phi.dtype))
    d_z = _matmul(d_h, theta.w1.T, out=ws.get("d_z", z.shape, np.result_type(d_h, theta.w1)))
    d_y = _matmul(d_z.T, r_batch, out=ws.get("g", y.shape, np.result_type(d_z, r_batch)))
    # softmax backward per row, through (phi + g) / tau, by the operations of
    # (d_y - (d_y * y).sum(axis=1, keepdims=True)) * y / tau; d_y * y goes
    # into the leading k rows of the output array, whose minibatch d_y has read
    d_y_y = np.multiply(d_y, y, out=ws.get("r_hat", y.shape, np.result_type(d_y, y)))
    d_phi = np.subtract(d_y, d_y_y.sum(axis=1, keepdims=True), out=d_y)
    d_phi *= y
    d_phi /= tau
    grads["phi"] = d_phi
    return loss, grads


def backward(phi, theta, r_batch, tau, g):
    """Gradients of the reconstruction loss of a 0/1 batch r_batch for a
    replayed noise draw g, computed in phi's dtype."""
    if not ((r_batch == 0) | (r_batch == 1)).all():
        raise ValueError("r_batch must hold only 0 and 1")
    return _forward_backward(phi, theta, np.nonzero(r_batch), len(r_batch), tau, g,
                             Workspace())[1]


def adam_step(params, grads, state, lr):
    """Standard bias-corrected Adam update, in place on the params dict and
    on the moments. The parameters share one dtype. Each (C-contiguous, as
    are its gradient and moments) is updated in consecutive
    BLOCK_ELEMS-sized slices of its flat view; the slices of all parameters
    are one block loop, run in lanes (_in_lanes) with the lane buffers of
    state.scratch."""
    dtypes = {p.dtype for p in params.values()}
    if len(dtypes) != 1:
        raise ValueError(f"Adam's parameters must share one dtype, got {sorted(map(str, dtypes))}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    blocks = []  # the (p, grad, m, v) slices of every parameter
    for name, p in params.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        # reshape with copy=False raises where a flat view would be a copy,
        # which would silently drop the update
        flat = [a.reshape(-1, copy=False)
                for a in (p, grads[name], state.m[name], state.v[name])]
        blocks += [[a[i:i + BLOCK_ELEMS] for a in flat] for i in range(0, p.size, BLOCK_ELEMS)]
    bufs = state.scratch.lane_buffers(max((len(block[0]) for block in blocks), default=0),
                                      dtypes.pop())

    def update(lane, i, _):
        pb, grad, m, v = blocks[i]
        s, r = bufs[lane][0][:len(pb)], bufs[lane][1][:len(pb)]
        # the operations and their order are those of the plain
        # expressions, so the results are bit-identical to them:
        # m = b1 * m + (1 - b1) * g and v = b2 * v + ((1 - b2) * g) * g
        m *= b1
        m += np.multiply(grad, 1.0 - b1, out=s)
        v *= b2
        np.multiply(grad, 1.0 - b2, out=s)
        v += np.multiply(s, grad, out=s)
        # p -= lr * (m / c1) / (sqrt(v / c2) + eps)
        np.divide(m, c1, out=s)
        s *= lr
        np.divide(v, c2, out=r)
        np.sqrt(r, out=r)
        r += ADAM_EPS
        pb -= np.divide(s, r, out=s)

    # two lanes by the elements: small parameters make several blocks of little work
    _in_lanes(len(blocks), 1, update, split=sum(p.size for p in params.values()) > BLOCK_ELEMS)


def extract_seeds(phi):
    """Hard seed itemset: per-row argmax, with collisions resolved by letting
    the most confident rows pick first and later rows fall back to their best
    not-yet-taken item. Output order follows encoder rows."""
    # in place on a float64 copy, which is made even of a float64 phi
    probs = np.array(phi, dtype=np.float64)
    softmax_rows(probs, 1.0, out=probs)
    k, m = probs.shape
    if m < k:
        raise ValueError(f"cannot pick {k} distinct items out of {m}")
    order = np.argsort(-probs.max(axis=1), kind="stable")
    free = np.ones(m, dtype=bool)
    items = np.empty(k, dtype=np.int64)
    for row in order:
        # probabilities are >= 0, so a taken item (-1) is never the argmax
        items[row] = np.argmax(np.where(free, probs[row], -1.0))
        free[items[row]] = False
    return items


def _validation_ndcg(theta, seeds, matrix, user_ids, ws):
    """NDCG@20 (or @ the candidate count, when smaller) on the given users
    with hard seed feedback, seeds excluded from ranking and from ground
    truth. Users with empty truth are skipped. Decodes into the workspace
    ws."""
    N = min(20, matrix.m - len(set(int(s) for s in seeds)))
    table = evaluate.score_users(
        lambda z: recommend(theta, seeds, z, N, ws), matrix, user_ids, seeds, (N,))
    return float(table["NDCG"][N].mean()) if table["users"] else 0.0


def rng_streams(seed):
    """The training streams of a seed, in order: weight init, Gumbel noise and
    minibatch shuffle, each a PCG64 child of the seed's sequence."""
    return [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(seed).spawn(3)]


def _fit(params, users, epochs, batch_size, shuffle_rng, lr, step, unit, ws, after_epoch=None):
    """The epoch loop of a training unit, whose workspace ws also holds
    Adam's block buffers. Per epoch: permute the users with shuffle_rng,
    and for each minibatch of them take the gradients step(e, ids) returns
    and one Adam step on params; then after_epoch(e), when given. The loss
    is finite unless r_hat holds a NaN (r_hat lies in [0, 1], r in {0, 1}),
    and such a NaN reaches the sum over its column, so one check of b2's
    gradient stands for the loss."""
    state = AdamState(scratch=ws)
    for e in range(epochs):
        order = shuffle_rng.permutation(len(users))
        for start in range(0, len(users), batch_size):
            grads = step(e, users[order[start:start + batch_size]])
            if not np.isfinite(grads["b2"]).all():
                raise RuntimeError(f"{unit} diverged at epoch {e}")
            adam_step(params, grads, state, lr)
        if after_epoch is not None:
            after_epoch(e)


def train(matrix, split, cfg):
    """Joint end-to-end training of encoder logits and decoder: each step
    draws Gumbel noise at the epoch's annealed temperature and runs encode
    -> decode, MSE loss and backprop on a minibatch (densified from its
    positives; the whole training matrix never is). Validation NDCG@20 (hard
    extracted seeds) is recorded every cfg.val_every epochs, decoded in the
    training workspace, and the best snapshot is kept, refreshed in place.
    Returns (phi, theta, history) for the best-validation snapshot."""
    init_rng, noise_rng, shuffle_rng = rng_streams(cfg.seed)
    m = matrix.m
    if cfg.k >= m:
        raise ValueError(f"k={cfg.k} must be smaller than the item count {m}")
    phi = init_encoder(cfg.k, m, init_rng)
    theta = init_decoder(cfg.k, cfg.d, m, init_rng)
    params = {"phi": phi, **vars(theta)}
    ws = Workspace()
    history, best = [], {}  # best is filled at the last epoch at the latest
    best_ndcg, epoch_loss = -1.0, 0.0

    def step(e, ids):
        nonlocal epoch_loss
        g = gumbel_noise(cfg.k, m, noise_rng, out=ws.get("g", phi.shape, phi.dtype))
        loss, grads = _forward_backward(phi, theta, matrix.positives(ids), len(ids),
                                        temperature(e, cfg), g, ws)
        epoch_loss += loss * len(ids)
        return grads

    def after_epoch(e):
        nonlocal best_ndcg, epoch_loss
        val_ndcg = None
        if (e + 1) % cfg.val_every == 0 or e == cfg.epochs - 1:
            val_ndcg = _validation_ndcg(theta, extract_seeds(phi), matrix, split.val_users, ws)
            if val_ndcg > best_ndcg:
                best_ndcg = val_ndcg
                if not best:
                    best.update((name, np.empty_like(p)) for name, p in params.items())
                for name, p in params.items():
                    np.copyto(best[name], p)
        history.append({"epoch": e, "tau": temperature(e, cfg),
                        "loss": epoch_loss / len(split.train_users), "val_ndcg": val_ndcg})
        epoch_loss = 0.0

    _fit(params, split.train_users, cfg.epochs, cfg.batch_size, shuffle_rng, cfg.lr, step,
         "training", ws, after_epoch)
    return best.pop("phi"), DecoderParams(**best), history


def retrain_decoder(matrix, split, seeds, theta, epochs, lr, batch_size, seed):
    """Decoder-only Adam training with the encoder frozen: the input is the
    hard selection r[:, seeds] of each minibatch r, with no Gumbel noise and
    no encoder update. Only the seed columns of a minibatch are built dense;
    the target is its positives. Users who answer the seeds alike share
    their decode: a step decodes each distinct answer row once where few
    enough are distinct (_decoder_step), with the bits of decoding every
    row. theta, the decoder to start from, is trained in place and returned;
    a caller that needs its starting weights passes a copy."""
    seeds = np.asarray(seeds, dtype=np.int64)
    if len(np.unique(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    column = np.full(matrix.m, -1, dtype=np.int64)  # item -> its input, -1 if not a seed
    column[seeds] = np.arange(len(seeds))
    ws = Workspace()

    def step(e, ids):
        positives = rows, items = matrix.positives(ids)
        # in C order, as the BLAS products below can round differently
        # for an F-order input
        hit = column[items]
        z = densify((rows[hit >= 0], hit[hit >= 0]),
                    ws.get("z", (len(ids), len(seeds)), theta.w1.dtype))
        return _decoder_step(theta, z, positives, ws)

    # stream 0 is train's init stream, not a shuffle stream: kept for byte-identical output
    _fit(vars(theta), split.train_users, epochs, batch_size, rng_streams(seed)[0], lr,
         step, "decoder retraining", ws)
    return theta


def _rank_candidates(scores, seeds, N):
    """The (b, N) top-N item indices of each row of a (b, m) score block, by
    descending score, seeds excluded, ties broken by ascending index. The
    rows are ranked in lanes (_in_lanes), in chunks of about BLOCK_ELEMS / 2
    scores, each row on its own, so the working arrays are a chunk's, not
    the block's."""
    mask = np.ones(scores.shape[1], dtype=bool)
    mask[seeds] = False
    candidates = np.nonzero(mask)[0]
    if not 0 <= N <= len(candidates):
        raise ValueError(f"N={N} is not within the candidate count {len(candidates)}")
    ranked = np.empty((len(scores), N), dtype=candidates.dtype)

    def rank(lane, start, stop):
        # negated in their own float dtype (float32 -> float64 is exact, so
        # the order, the ties and the NaNs are those of float64 keys);
        # integer scores, such as item counts, as float64. The column
        # selection is a copy, made by take in C order: the partition below
        # reads rows about 2.5x faster than from the F-order copy that
        # scores[:, candidates] makes.
        keys = np.take(scores[start:stop], candidates, axis=1)
        if keys.dtype.kind != "f":
            keys = keys.astype(np.float64)
        np.negative(keys, out=keys)
        # the N smallest keys in some order, then a stable sort of just
        # those columns taken in ascending index order: the ranking of a
        # full stable sort, unless equal keys straddle the cut (the
        # partition may keep a higher index than one it drops) or the N-th
        # key is NaN (equal to nothing); such rows take the full stable sort
        part = np.argpartition(keys, N - 1, axis=1)
        kth = np.take_along_axis(keys, part[:, N - 1:N], axis=1)
        redo = np.isnan(kth[:, 0]) | (np.count_nonzero(keys <= kth, axis=1) > N)
        top = np.sort(part[:, :N], axis=1)
        order = np.argsort(np.take_along_axis(keys, top, axis=1), axis=1, kind="stable")
        top = np.take_along_axis(top, order, axis=1)
        if redo.any():
            top[redo] = np.argsort(keys[redo], axis=1, kind="stable")[:, :N]
        ranked[start:stop] = candidates[top]

    if N:  # N = 0 leaves every ranking empty
        _in_lanes(len(scores), max(1, _block_rows(scores) // 2), rank)
    return ranked


def recommend(theta, seeds, z, N, ws=None):
    """The (b, N) rankings of candidate items for b new users from their
    seed feedback z, a (b, k) block of their answers. Where it saves rows
    with the bits of decoding every row (_distinct_rows), each distinct row
    of z (by its bytes) is decoded and ranked once, and its ranking copied
    to the rows that repeat it. The scores are decoded into the workspace
    ws, a fresh one when not given."""
    z = np.asarray(z, dtype=theta.w1.dtype)
    if z.ndim != 2 or z.shape[1] != len(seeds):
        raise ValueError(f"feedback must be a (b, {len(seeds)}) block, got shape {z.shape}")
    distinct = _distinct_rows(theta, z)
    if distinct is not None:
        rows, inverse = distinct
        return _rank_candidates(decode(theta, z[rows], ws), seeds, N)[inverse]
    return _rank_candidates(decode(theta, z, ws), seeds, N)


def save_checkpoint(path, phi, theta, seeds):
    """Binary checkpoint: magic 'DRE1', little-endian u32 (k, m, d), float32
    row-major phi, w1, b1, w2, b2, then the k u32 seed indices."""
    k, m = phi.shape
    d = theta.w1.shape[1]
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<III", k, m, d))
        for arr in (phi, theta.w1, theta.b1, theta.w2, theta.b2):
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(seeds, dtype="<u4").tobytes())


def load_checkpoint(path):
    """Read a save_checkpoint file. Raises DataError unless its header has
    1 <= k < m and d >= 1, as train admits, its length is what the header
    implies, every float is finite and the seeds are k distinct item indices
    below m that equal extract_seeds(phi), as train writes them."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:4] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a DRE1 checkpoint")
    k, m, d = struct.unpack_from("<III", raw, 4)
    if not (1 <= k < m and d >= 1):
        raise DataError(f"{path}: header (k={k}, m={m}, d={d}) needs 1 <= k < m and d >= 1")
    shapes = [("phi", (k, m)), ("w1", (k, d)), ("b1", (d,)), ("w2", (d, m)), ("b2", (m,))]
    n_floats = sum(math.prod(shape) for _, shape in shapes)
    if len(raw) != 16 + 4 * (n_floats + k):
        raise DataError(f"{path}: {len(raw)} bytes, but its header (k={k}, m={m}, d={d}) "
                        f"implies {16 + 4 * (n_floats + k)}")
    floats = np.frombuffer(raw, dtype="<f4", count=n_floats, offset=16)
    if not np.isfinite(floats).all():
        raise DataError(f"{path}: non-finite weights")
    arrays, off = {}, 0
    for name, shape in shapes:
        count = math.prod(shape)
        arrays[name] = floats[off:off + count].reshape(shape).copy()
        off += count
    seeds = np.frombuffer(raw, dtype="<u4", count=k, offset=16 + 4 * n_floats).astype(np.int64)
    if len(np.unique(seeds)) != k or (seeds >= m).any():
        raise DataError(f"{path}: seeds must be {k} distinct item indices below m={m}")
    # else each decoder input would hold another item's answer
    if not np.array_equal(seeds, extract_seeds(arrays["phi"])):
        raise DataError(f"{path}: seeds are not the selection of its encoder (extract_seeds)")
    return arrays.pop("phi"), DecoderParams(**arrays), seeds
