"""Acceptance criteria, one test per criterion.

Each test prints a single `criterion N PASS|FAIL` line (uncaptured) and then
asserts, so the verdicts are visible in any pytest run. Thresholds are fixed
here; see the README for the experimental setup they were pinned against.
"""

import struct
import time

import numpy as np
import pytest

from fedring import nn, protocol, spdz
from fedring.cli import run_benchmark
from fedring.data import bundled_path, load_dataset
from fedring.dp import calibrate_sigma, epsilon_for, log_moments, PrivacySpec
from fedring.fixedpoint import DEFAULT_CONFIG, Q, decode, encode, to_signed
from fedring.tensor import Dtype, Tensor
from fedring.train import (
    TrainConfig,
    evaluate,
    fixed_forward,
    mpc_forward,
    provision_triples,
    train_federated,
    train_federated_dp,
)
from fedring.workers import TransportTap, make_server, socket_federation, virtual_federation

from dp_oracle import oracle_log_moment

SEEDS = (1, 3, 4)
DELTA = 1e-5
PHASES = 500
LOT = 32
WORKERS = ["alice", "bob"]


def report(capsys, num: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def boston():
    return load_dataset(bundled_path("boston"), "boston", WORKERS, split_seed=0)


def pima():
    return load_dataset(bundled_path("pima"), "pima", WORKERS, split_seed=0)


def run_plain(ds, seed):
    fed, _ = virtual_federation(WORKERS, seed=seed)
    model, _ = train_federated(fed, ds, TrainConfig(seed=seed))
    return evaluate(model, ds)


def run_dp(ds, seed, sigma):
    fed, _ = virtual_federation(WORKERS, seed=seed)
    spec = PrivacySpec(q=LOT / ds.n_train, sigma=sigma, clip_norm=1.0,
                       delta=DELTA, steps=PHASES)
    model, _, _ = train_federated_dp(fed, ds, TrainConfig(seed=seed, privacy=spec))
    return evaluate(model, ds)


def test_criterion_1_boston_baseline(capsys):
    ds = boston()
    mses, times = [], []
    for seed in SEEDS:
        t0 = time.monotonic()
        mses.append(run_plain(ds, seed))
        times.append(time.monotonic() - t0)
    median = float(np.median(mses))
    ok = 15.0 <= median <= 30.0 and max(times) < 60.0
    report(capsys, 1, ok,
           f"no-privacy Boston median MSE {median:.2f} in [15, 30], "
           f"max runtime {max(times):.1f}s < 60s (seeds {SEEDS})")


def test_criterion_2_pima(capsys):
    ds = pima()
    plain = float(np.median([run_plain(ds, s) for s in SEEDS]))
    sigma = calibrate_sigma(0.5, DELTA, LOT / ds.n_train, PHASES)
    dp = float(np.median([run_dp(ds, s, sigma) for s in SEEDS]))
    ok = plain >= 0.65 and dp >= 0.55
    report(capsys, 2, ok,
           f"Pima accuracy: no-privacy median {plain:.3f} >= 0.65, "
           f"DP at eps=0.5 (sigma={sigma:.2f}) median {dp:.3f} >= 0.55")


def test_criterion_3_dp_boston(capsys):
    ds = boston()
    q = LOT / ds.n_train
    baselines = {s: run_plain(ds, s) for s in SEEDS}
    sigma_05 = calibrate_sigma(0.5, DELTA, q, PHASES)
    sigma_4 = calibrate_sigma(4.0, DELTA, q, PHASES)
    dp_05 = {s: run_dp(ds, s, sigma_05) for s in SEEDS}
    dp_4 = {s: run_dp(ds, s, sigma_4) for s in SEEDS}
    med_05 = float(np.median(list(dp_05.values())))
    med_4 = float(np.median(list(dp_4.values())))
    in_band = 24.0 <= med_05 <= 40.0
    degrades = all(dp_05[s] > baselines[s] for s in SEEDS)
    monotone = med_4 <= med_05
    ok = in_band and degrades and monotone
    report(capsys, 3, ok,
           f"DP Boston median MSE at eps=0.5 is {med_05:.2f} (band [24, 40]); "
           f"DP > baseline on all seeds: {degrades}; "
           f"median at eps=4 ({med_4:.2f}) <= median at eps=0.5: {monotone}")


def test_criterion_4_benchmark_shape(capsys):
    class Args:
        seed = 1
        epochs = 10
        phases = PHASES
        runs = 3

    rep = run_benchmark(Args())
    v, s = rep["virtual"]["wall_s"], rep["socket"]["wall_s"]
    ratio = rep["dp_per_batch_ratio"]
    ok = v <= s <= 3.0 * v and ratio > 1.0
    report(capsys, 4, ok,
           f"virtual {v:.3f}s <= socket {s:.3f}s <= 3x virtual; "
           f"DP per-batch ratio {ratio:.2f} > 1")


def test_criterion_5_mpc_correctness(capsys):
    ds = boston()
    fed, _ = virtual_federation(["alice", "bob", "dealer"], seed=9)
    parties = ("alice", "bob")
    rng = np.random.default_rng(0)

    # shared forward pass vs plaintext fixed-point forward on 100 test rows
    from fedring.train import train_plain

    solo = load_dataset(bundled_path("boston"), "boston", ["solo"], split_seed=0)
    model, _ = train_plain(solo, TrainConfig(seed=1, epochs=2))
    X = solo.test_X[rng.choice(len(solo.test_X), size=100, replace=False)]
    pool = provision_triples(fed, "dealer", parties, model.dims, len(X), model.task)
    shared = mpc_forward(model, X, fed, parties, pool, rng)
    fixed = fixed_forward(model, X)
    fwd_err = float(np.max(np.abs(shared - fixed)))

    # 1000-case randomized property suites
    share_ok = True
    for _ in range(1000):
        shape = tuple(int(v) for v in rng.integers(1, 5, size=rng.integers(1, 3)))
        x = Tensor(rng.integers(0, Q, size=shape, dtype=np.uint64), Dtype.RING64)
        sv = spdz.share(x, parties, fed, rng)
        share_ok &= spdz.reconstruct(sv, fed, delete=True) == x

    mask = np.uint64(Q - 1)
    mul_ok = True
    triples = spdz.dealer_generate(fed, "dealer", "elementwise", (8,), parties, 100)
    for triple in triples:
        a = rng.integers(0, Q, size=8, dtype=np.uint64)
        b = rng.integers(0, Q, size=8, dtype=np.uint64)
        zs = spdz.beaver_mul(spdz.share(Tensor(a, Dtype.RING64), parties, fed, rng),
                             spdz.share(Tensor(b, Dtype.RING64), parties, fed, rng),
                             triple, fed)
        mul_ok &= np.array_equal(spdz.reconstruct(zs, fed, delete=True).data, (a * b) & mask)

    mm_ok = True
    triples = spdz.dealer_generate(fed, "dealer", "matmul", (3, 4, 2), parties, 100)
    for triple in triples:
        a = rng.integers(0, Q, size=(3, 4), dtype=np.uint64)
        b = rng.integers(0, Q, size=(4, 2), dtype=np.uint64)
        zs = spdz.matmul_shared(spdz.share(Tensor(a, Dtype.RING64), parties, fed, rng),
                                spdz.share(Tensor(b, Dtype.RING64), parties, fed, rng),
                                triple, fed)
        mm_ok &= np.array_equal(spdz.reconstruct(zs, fed, delete=True).data, (a @ b) & mask)

    vals = rng.uniform(-1000, 1000, size=1000)
    sv = spdz.trunc_shared(spdz.share(encode(Tensor(vals, Dtype.FLOAT64)), parties, fed, rng), fed)
    got = to_signed(spdz.reconstruct(sv, fed, delete=True))
    want = to_signed(encode(Tensor(vals, Dtype.FLOAT64))) >> DEFAULT_CONFIG.frac_bits
    trunc_ok = bool(np.max(np.abs(got - want)) <= 1)

    # linear ops cross zero transport messages
    tap = TransportTap()
    fed2, _ = virtual_federation(["alice", "bob"], seed=10, tap=tap)
    xs = spdz.share(Tensor(rng.integers(0, Q, size=16, dtype=np.uint64), Dtype.RING64),
                    parties, fed2, rng)
    ys = spdz.share(Tensor(rng.integers(0, Q, size=16, dtype=np.uint64), Dtype.RING64),
                    parties, fed2, rng)
    before = tap.messages
    spdz.public_op("add", spdz.public_op("mul", spdz.add_shared(xs, ys), 7), 3)
    linear_free = tap.messages == before

    ok = (fwd_err < 2.0**-10 and share_ok and mul_ok and mm_ok and trunc_ok
          and linear_free)
    report(capsys, 5, ok,
           f"MPC forward max err {fwd_err:.2e} < 2^-10; share/reconstruct x1000 "
           f"{share_ok}; beaver_mul x100 {mul_ok}; matmul x100 {mm_ok}; "
           f"trunc x1000 {trunc_ok}; linear ops message-free {linear_free}")


def test_criterion_6_accountant(capsys):
    orders = list(range(1, 33))
    worst = 0.0
    for q in (1e-3, 1e-2, 1e-1):
        for sigma in (1.0, 2.0, 4.0, 8.0):
            got = log_moments(q, sigma, orders)
            want = np.array([oracle_log_moment(q, sigma, lam, 20) for lam in orders])
            rel = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300))
            worst = max(worst, float(rel))
    oracle_ok = worst < 1e-5

    eps_t = [epsilon_for(0.01, 2.0, t, DELTA) for t in (100, 500, 2000, 10_000)]
    eps_s = [epsilon_for(0.01, s, 1000, DELTA) for s in (1.0, 2.0, 4.0, 8.0)]
    eps_q = [epsilon_for(qq, 2.0, 1000, DELTA) for qq in (1e-3, 1e-2, 1e-1)]
    mono = (all(a < b for a, b in zip(eps_t, eps_t[1:]))
            and all(a > b for a, b in zip(eps_s, eps_s[1:]))
            and all(a < b for a, b in zip(eps_q, eps_q[1:])))

    tight = True
    for eps in (0.5, 1.0, 2.0, 4.0):
        sigma = calibrate_sigma(eps, DELTA, 0.01, 1000)
        tight &= epsilon_for(0.01, sigma, 1000, DELTA) <= eps
        if sigma > 0.5:
            tight &= epsilon_for(0.01, sigma - 2e-3, 1000, DELTA) > eps

    ok = oracle_ok and mono and tight
    report(capsys, 6, ok,
           f"log_moments vs mpmath quadrature oracle worst rel err {worst:.2e} < 1e-5; "
           f"epsilon monotone in (T, sigma, q): {mono}; "
           f"calibrate_sigma tight for eps in (0.5, 1, 2, 4): {tight}")


def test_criterion_7_transport_transparency(capsys):
    import threading

    ds = boston()
    cfg = TrainConfig(seed=1, epochs=3)
    fed_v, _ = virtual_federation(WORKERS, seed=1)
    mv, _ = train_federated(fed_v, ds, cfg)

    servers, endpoints = [], {}
    from fedring.workers import WorkerCore

    for name in WORKERS:
        srv = make_server("127.0.0.1", 0, WorkerCore(name, 1))
        endpoints[name] = srv.server_address
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        servers.append(srv)
    fed_s = socket_federation(endpoints)
    try:
        ms, _ = train_federated(fed_s, ds, cfg)
    finally:
        fed_s.close()
        for srv in servers:
            srv.shutdown()
            srv.server_close()
    identical = bool(np.array_equal(mv.params, ms.params))

    rng = np.random.default_rng(2)
    codec_ok = True
    for _ in range(200):
        msg = protocol.Message(
            int(rng.integers(1, 7)), int(rng.integers(0, 1 << 63)),
            bytes(rng.integers(0, 256, size=rng.integers(0, 48), dtype=np.uint8)))
        back, _ = protocol.decode_frame(protocol.encode_frame(msg))
        codec_ok &= back == msg
        shape = tuple(int(v) for v in rng.integers(1, 5, size=rng.integers(0, 4)))
        if rng.random() < 0.5:
            t = Tensor(rng.normal(size=shape), Dtype.FLOAT64)
        else:
            t = Tensor(rng.integers(0, Q, size=shape, dtype=np.uint64), Dtype.RING64)
        tb, _ = protocol.deserialize_tensor(protocol.serialize_tensor(t))
        codec_ok &= tb == t

    ok = identical and codec_ok
    report(capsys, 7, ok,
           f"virtual vs socket bit-identical weights: {identical}; "
           f"frame+tensor codec roundtrips x200: {codec_ok}")


def test_criterion_8_gradient_integrity(capsys):
    dims = (13, 32, 1)
    rng = np.random.default_rng(3)
    p = nn.init_params(dims, rng, weight_std=0.3)
    X = rng.normal(size=(16, 13))
    y = rng.normal(size=16)
    _, grad = nn.forward_backward(p, dims, "regression", X, y)
    d, h = dims[0], dims[1]
    spans = [(0, d * h), (d * h, d * h + h),
             (d * h + h, d * h + h + h), (d * h + 2 * h, d * h + 2 * h + 1)]
    fd_ok = True
    eps = 1e-6
    for lo, hi in spans:  # probe every layer
        for i in rng.choice(np.arange(lo, hi), size=min(5, hi - lo), replace=False):
            e = np.zeros_like(p)
            e[i] = eps
            lp, _ = nn.forward_backward(p + e, dims, "regression", X, y)
            lm, _ = nn.forward_backward(p - e, dims, "regression", X, y)
            num = (lp - lm) / (2 * eps)
            fd_ok &= abs(grad[i] - num) <= 1e-4 * max(abs(num), 1e-6)

    _, G = nn.forward_backward(p, dims, "regression", X, y, per_example=True)
    mean_ok = bool(np.max(np.abs(G.mean(axis=0) - grad)) < 1e-12)

    # DP transcript: nothing shaped like a per-example gradient matrix crosses
    ds = boston()
    tap = TransportTap()
    fed, _ = virtual_federation(WORKERS, seed=1, tap=tap)
    spec = PrivacySpec(q=LOT / ds.n_train, sigma=2.5, clip_norm=1.0,
                       delta=DELTA, steps=50)
    model, _, _ = train_federated_dp(fed, ds, TrainConfig(seed=1, privacy=spec))
    n_params = model.n_params
    leaked = [s for s in tap.transferred_shapes()
              if len(s) == 2 and s[1] == n_params and s[0] > 1]
    tap_ok = not leaked

    ok = fd_ok and mean_ok and tap_ok
    report(capsys, 8, ok,
           f"finite differences on all layers: {fd_ok}; per-example mean equals "
           f"batch gradient <1e-12: {mean_ok}; no per-example gradient matrices "
           f"in DP transcript: {tap_ok}")
