"""Training loops: plain local SGD, federated SGD over workers, DP federated
SGD by phases, and MPC shared inference.

Reproducibility contract (all np.random streams are derived, never global):
    split       default_rng([split_seed, 1])   (data.load_dataset)
    init        default_rng([seed, 2])
    batch order default_rng([seed, 3, epoch, worker_index])
    DP worker pick default_rng([seed, 4])
    worker-side lots and noise: the worker's own rng (seed, name)
Identical seeds therefore give bit-identical weights on virtual and socket
transports: the command sequence, and hence every rng draw, is the same.
"""

from __future__ import annotations

import collections
import time
from dataclasses import dataclass, field

import numpy as np

from . import fixedpoint, nn, spdz, tensor as tc
from .data import FederatedDataset
from .dp import MomentLedger, PrivacySpec
from .errors import ConfigError, InsufficientTriples, LotTooLarge, ShapeMismatch
from .nn import TASK_BINARY, TASK_REGRESSION, Model
from .protocol import Command
from .protocol import serialize_chain  # noqa: F401  (perfbench/spans.py wraps this name)
from .tensor import Dtype, Tensor
from .workers import Federation


# DP recipe (kept stable under heavy noise; see README for rationale):
# harmonic lr decay, tail iterate averaging, hidden max-norm projection,
# and internally standardized regression targets.
DP_LR0 = 0.15
DP_LR_TAU = 150.0
DP_AVG_FRAC = 0.7
DP_MAX_NORM = 1.0


@dataclass
class TrainConfig:
    dataset: str = "boston"
    seed: int = 1
    lr: float = 0.01
    epochs: int = 10
    batch_size: int = 32
    hidden: int = 32
    privacy: PrivacySpec | None = None
    lot_size: int = 32

    def dims(self, n_features: int):
        return (n_features, self.hidden, 1)


def _init_model(ds: FederatedDataset, cfg: TrainConfig,
                target_scale=(0.0, 1.0)) -> Model:
    dims = cfg.dims(ds.n_features)
    params = nn.init_params(dims, np.random.default_rng([cfg.seed, 2]))
    return Model(dims, ds.task, params, target_scale)


def evaluate(model: Model, ds: FederatedDataset) -> float:
    """Regression: MSE in raw target units. Binary: accuracy at 0.5."""
    pred = model.predict(ds.test_X)
    if model.task == TASK_REGRESSION:
        return float(np.mean((pred - ds.test_y) ** 2))
    return float(np.mean((pred > 0.5) == ds.test_y))


# ---------------------------------------------------------------------------
# plain + federated SGD

def _epoch_order(seed: int, epoch: int, worker_index: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, 3, epoch, worker_index]).permutation(n)


def train_plain(ds: FederatedDataset, cfg: TrainConfig):
    """Local SGD over all training rows; numerically the degenerate one-worker
    federation (bit-identical under the same seed)."""
    X, y = ds.train_arrays()
    model = _init_model(ds, cfg)
    trace = []
    t0 = time.monotonic()
    step = 0
    for ep in range(cfg.epochs):
        order = _epoch_order(cfg.seed, ep, 0, len(X))
        for s in range(0, len(order) // cfg.batch_size * cfg.batch_size, cfg.batch_size):
            bi = order[s : s + cfg.batch_size]
            loss, grad = nn.forward_backward(model.params, model.dims, model.task, X[bi], y[bi])
            model.params = model.params - cfg.lr * grad
            trace.append({"step": step, "loss": loss,
                          "wall_ms": (time.monotonic() - t0) * 1e3})
            step += 1
    return model, trace


def _store_partitions(fed: Federation, ds: FederatedDataset, targets=None):
    """Push each worker's partition to it once; returns per-worker object ids."""
    placed = {}
    for name, (X, y) in ds.partitions.items():
        y_out = y if targets is None else targets[name]
        x_oid, y_oid = fed.allocate_id(), fed.allocate_id()
        handle = fed.worker(name)
        handle.store(x_oid, Tensor(X, Dtype.FLOAT64))
        handle.store(y_oid, Tensor(y_out, Dtype.FLOAT64))
        placed[name] = (x_oid, y_oid, len(y))
    return placed


def train_federated(fed: Federation, ds: FederatedDataset, cfg: TrainConfig):
    """Round-robin federated SGD: the leader sends parameters, the worker
    computes the batch gradient on its own rows, the leader applies the
    update. One by-value execute per step: the parameters go inline and
    the result comes back in its reply."""
    model = _init_model(ds, cfg)
    placed = _store_partitions(fed, ds)
    names = list(ds.partitions)
    trace = []
    t0 = time.monotonic()
    step = 0
    dims = list(model.dims)
    for ep in range(cfg.epochs):
        orders = {n: _epoch_order(cfg.seed, ep, i, placed[n][2]) for i, n in enumerate(names)}
        counts = {n: placed[n][2] // cfg.batch_size for n in names}
        for b in range(max(counts.values())):
            for name in names:
                if b >= counts[name]:
                    continue
                x_oid, y_oid, _ = placed[name]
                idx = orders[name][b * cfg.batch_size : (b + 1) * cfg.batch_size]
                params = ("tensor", Tensor(model.params, Dtype.FLOAT64))
                out = fed.worker(name).execute(Command(
                    "fb_batch",
                    (params, Command.obj(x_oid), Command.obj(y_oid)),
                    {"dims": dims, "task": model.task, "indices": [int(i) for i in idx]},
                )).data
                loss, grad = out[0], out[1:]
                model.params = model.params - cfg.lr * grad
                trace.append({"step": step, "loss": float(loss),
                              "wall_ms": (time.monotonic() - t0) * 1e3})
                step += 1
    return model, trace


# ---------------------------------------------------------------------------
# DP federated SGD

def train_federated_dp(fed: Federation, ds: FederatedDataset, cfg: TrainConfig):
    """Phase training per the sanitized-lot protocol: each phase picks one
    worker at random, which samples a lot from its own rows, clips
    per-example gradients and adds Gaussian noise locally; only the sanitized
    sum crosses the transport, in the reply to one by-value execute that
    carries the parameters inline. The trace therefore has no loss: each
    row is the step and its wall time. The accountant records the spec's q
    per phase, which must be the rate that runs, L/N."""
    if cfg.privacy is None:
        raise ConfigError("train_federated_dp needs a PrivacySpec")
    spec = cfg.privacy
    L = cfg.lot_size
    min_part = min(len(y) for _, y in ds.partitions.values())
    if L > min_part:
        raise LotTooLarge(f"lot {L} exceeds smallest partition {min_part}")
    if spec.q != L / ds.n_train:
        raise ConfigError(f"spec q={spec.q} is not the sampling rate L/N = {L}/{ds.n_train}")

    target_scale = (0.0, 1.0)
    targets = None
    if ds.task == TASK_REGRESSION:
        # heavy noise needs targets on the unit scale; predictions are mapped
        # back to raw units at evaluation time
        _, y_all = ds.train_arrays()
        ym, ys = float(y_all.mean()), float(y_all.std())
        target_scale = (ym, ys)
        targets = {n: (y - ym) / ys for n, (_, y) in ds.partitions.items()}

    model = _init_model(ds, cfg, target_scale)
    placed = _store_partitions(fed, ds, targets)
    names = list(ds.partitions)
    pick_rng = np.random.default_rng([cfg.seed, 4])
    dims = list(model.dims)
    T = spec.steps
    avg_from = T - int(round(T * DP_AVG_FRAC))
    acc, n_acc = None, 0
    trace = []
    t0 = time.monotonic()
    for t in range(T):
        name = names[int(pick_rng.integers(len(names)))]
        x_oid, y_oid, _ = placed[name]
        params = ("tensor", Tensor(model.params, Dtype.FLOAT64))
        sanitized = fed.worker(name).execute(Command(
            "dp_phase",
            (params, Command.obj(x_oid), Command.obj(y_oid)),
            {"dims": dims, "task": model.task, "lot_size": L,
             "clip_norm": spec.clip_norm, "sigma": spec.sigma},
        )).data
        lr = DP_LR0 / (1.0 + t / DP_LR_TAU)
        model.params = model.params - lr * (sanitized / L)
        model.params = nn.project_hidden_max_norm(model.params, model.dims, DP_MAX_NORM)
        if t >= avg_from:
            acc = model.params.copy() if acc is None else acc + model.params
            n_acc += 1
        trace.append({"step": t, "wall_ms": (time.monotonic() - t0) * 1e3})
    if n_acc:
        model.params = acc / n_acc
    if spec.sigma > 0:
        ledger = MomentLedger()
        ledger.record(spec.q, spec.sigma, count=T)
        eps = ledger.epsilon(spec.delta)
    else:
        eps = float("inf")  # noiseless runs carry no privacy guarantee
    return model, trace, eps


# ---------------------------------------------------------------------------
# MPC shared inference

def fixed_forward(model: Model, X: np.ndarray) -> np.ndarray:
    """Plaintext fixed-point forward pass: the oracle the shared pass must
    match. Every multiplication truncates immediately, like the MPC path."""
    w1, b1, w2, b2 = nn.unflatten(model.params, model.dims)
    B = X.shape[0]

    def enc(a):
        return fixedpoint.encode(Tensor(np.asarray(a, dtype=np.float64), Dtype.FLOAT64))

    def matmul_fp(a, b):
        return fixedpoint.truncate(tc.matmul(a, b))

    def sigmoid_fp(v):
        x2 = fixedpoint.truncate(tc.mul(v, v))
        x3 = fixedpoint.truncate(tc.mul(x2, v))
        t1 = fixedpoint.truncate(tc.scale(v, fixedpoint.encode_scalar(0.25)))
        t2 = fixedpoint.truncate(tc.scale(x3, fixedpoint.encode_scalar(-1.0 / 48.0)))
        return tc.offset(tc.add(t1, t2), fixedpoint.encode_scalar(0.5))

    xs = enc(X)
    z1 = tc.add(matmul_fp(xs, enc(w1)), enc(np.tile(b1, (B, 1))))
    a1 = sigmoid_fp(z1)
    z2 = tc.add(matmul_fp(a1, enc(w2)), enc(np.tile(b2, (B, 1))))
    if model.task == TASK_BINARY:
        z2 = sigmoid_fp(z2)
    return np.asarray(fixedpoint.decode(z2).data)[:, 0]


def _shared_sigmoid(sv, mul_trunc):
    x2 = mul_trunc("elementwise", sv, sv)
    x3 = mul_trunc("elementwise", x2, sv)
    enc = fixedpoint.encode_scalar
    t1 = spdz.trunc_shared(spdz.linear("scale", sv, enc(0.25)))
    t2 = spdz.trunc_shared(spdz.linear("scale", x3, enc(-1.0 / 48.0)))
    return spdz.linear("offset", spdz.linear("add", t1, t2), enc(0.5))


def mpc_triple_requirements(dims, batch: int, task: str):
    """Triples one shared forward pass consumes, as (kind, shape, count)."""
    d, h, o = dims
    reqs = [
        ("matmul", (batch, d, h), 1),
        ("elementwise", (batch, h), 2),
        ("matmul", (batch, h, o), 1),
    ]
    if task == TASK_BINARY:
        reqs.append(("elementwise", (batch, o), 2))
    return reqs


def provision_triples(fed: Federation, dealer: str, parties, dims, batch: int,
                      task: str, passes: int = 1) -> spdz.TriplePool:
    spdz.require_two_parties(tuple(parties))
    pool = spdz.TriplePool()
    for kind, shape, count in mpc_triple_requirements(dims, batch, task):
        for t in spdz.dealer_generate(fed, dealer, kind, shape, parties, count * passes):
            pool.put(t)
    return pool


def mpc_forward(model: Model, X: np.ndarray, fed: Federation, parties,
                pool: spdz.TriplePool, rng: np.random.Generator) -> np.ndarray:
    """Forward pass on secret-shared weights and inputs; reconstruction plus
    decode matches fixed_forward within accumulated truncation error. X's
    width and the pool's triples are checked before the first message. The
    inputs (X, w1, tiled b1, w2 and tiled b2) are encoded as one vector and
    shared with one draw from rng and one store_parts execute per party.
    Every object the pass stores or consumes on the parties is deleted by
    the end: each triple object by its beaver_open, the expanded triple that
    open keeps by beaver_combine, the input shares and products by one
    delete frame per party."""
    parties = tuple(parties)
    spdz.require_two_parties(parties)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.dims[0]:
        raise ShapeMismatch(f"X {X.shape} does not fit dims {tuple(model.dims)}")
    B = X.shape[0]
    need = collections.Counter()
    for kind, shape, count in mpc_triple_requirements(model.dims, B, model.task):
        need[kind, shape] += count
    for (kind, shape), count in need.items():
        if pool.count(kind, shape) < count:
            raise InsufficientTriples(f"a pass needs {count} {kind} triple(s) of shape "
                                      f"{shape}, the pool holds {pool.count(kind, shape)}")
    w1, b1, w2, b2 = nn.unflatten(model.params, model.dims)
    inputs = (X, w1, np.tile(b1, (B, 1)), w2, np.tile(b2, (B, 1)))
    flat = Tensor._own(np.concatenate([a.ravel() for a in inputs]), Dtype.FLOAT64)
    made = spdz.share(fixedpoint.encode(flat), parties, fed, rng,
                      shapes=[a.shape for a in inputs])
    xs, w1s, b1s, w2s, b2s = made

    def mul_trunc(kind, x, y):
        if kind == "matmul":
            prod = spdz.matmul_shared(x, y, pool.take(kind, x.shape + y.shape[1:]), fed)
        else:
            prod = spdz.beaver_mul(x, y, pool.take(kind, x.shape), fed)
        made.append(prod)
        return spdz.trunc_shared(prod)

    z1 = spdz.linear("add", mul_trunc("matmul", xs, w1s), b1s)
    a1 = _shared_sigmoid(z1, mul_trunc)
    z2 = spdz.linear("add", mul_trunc("matmul", a1, w2s), b2s)
    if model.task == TASK_BINARY:
        z2 = _shared_sigmoid(z2, mul_trunc)
    out = spdz.reconstruct(z2, fed)
    spdz.free(made, fed)
    return np.asarray(fixedpoint.decode(out).data)[:, 0]
