import collections
import contextlib
import math
import threading

import numpy as np
import pytest

from fedring import commands, fixedpoint, nn, protocol, spdz, train
from fedring.data import bundled_path, load_dataset
from fedring.dp import PrivacySpec, epsilon_for
from fedring.errors import ConfigError, InsufficientTriples, LotTooLarge, ShapeMismatch
from fedring.protocol import Command
from fedring.tensor import Dtype, Tensor
from fedring.train import (
    TrainConfig,
    evaluate,
    fixed_forward,
    mpc_forward,
    provision_triples,
    train_federated,
    train_federated_dp,
    train_plain,
)
from fedring.workers import (
    TapEvent,
    TransportTap,
    WorkerCore,
    _LazySocketPeer,
    make_server,
    socket_federation,
    virtual_federation,
)


def boston(workers):
    return load_dataset(bundled_path("boston"), "boston", workers, split_seed=0)


def pima(workers):
    return load_dataset(bundled_path("pima"), "pima", workers, split_seed=0)


@contextlib.contextmanager
def socket_workers(names, seed):
    """In-process socket workers, each wired to the others as peers;
    yields their endpoints and cores."""
    servers = [make_server("127.0.0.1", 0, WorkerCore(n, seed)) for n in names]
    for s in servers:
        threading.Thread(target=s.serve_forever, daemon=True).start()
    endpoints = {n: s.server_address for n, s in zip(names, servers)}
    cores = [s.worker_core for s in servers]
    for core in cores:
        core.peers = {n: _LazySocketPeer(*ep) for n, ep in endpoints.items() if n != core.name}
    try:
        yield endpoints, cores
    finally:
        for core in cores:
            for peer in core.peers.values():
                peer.close()
        for s in servers:
            s.shutdown()
            s.server_close()


class TestPlain:
    def test_boston_learns(self):
        ds = boston(["solo"])
        cfg = TrainConfig(dataset="boston", seed=1)
        model, trace = train_plain(ds, cfg)
        mse = evaluate(model, ds)
        assert mse < 30.0  # raw-unit MSE; variance of the targets is ~80
        assert trace[0]["loss"] > trace[-1]["loss"]

    def test_pima_learns(self):
        ds = pima(["solo"])
        model, _ = train_plain(ds, TrainConfig(dataset="pima", seed=1))
        assert evaluate(model, ds) > 0.6

    def test_seed_determinism(self):
        ds = boston(["solo"])
        m1, _ = train_plain(ds, TrainConfig(seed=5, epochs=2))
        m2, _ = train_plain(ds, TrainConfig(seed=5, epochs=2))
        m3, _ = train_plain(ds, TrainConfig(seed=6, epochs=2))
        assert np.array_equal(m1.params, m2.params)
        assert not np.array_equal(m1.params, m3.params)


class TestFederated:
    def test_degenerate_bit_identity(self):
        """A single-worker federation reproduces plain SGD bit for bit."""
        ds = boston(["solo"])
        cfg = TrainConfig(seed=1, epochs=3)
        plain, _ = train_plain(ds, cfg)
        fed, _ = virtual_federation(["solo"], seed=cfg.seed)
        feder, _ = train_federated(fed, ds, cfg)
        assert np.array_equal(plain.params, feder.params)

    def test_two_workers_learn(self):
        ds = boston(["alice", "bob"])
        fed, _ = virtual_federation(["alice", "bob"], seed=1)
        model, trace = train_federated(fed, ds, TrainConfig(seed=1))
        assert evaluate(model, ds) < 30.0
        assert len(trace) > 0

    def test_losses_only_from_own_partition(self):
        """Worker rotation follows the round-robin schedule; the trace length
        is the total number of full batches."""
        ds = boston(["alice", "bob", "carol"])
        fed, _ = virtual_federation(["alice", "bob", "carol"], seed=2)
        cfg = TrainConfig(seed=2, epochs=1)
        _, trace = train_federated(fed, ds, cfg)
        expected = sum(len(y) // cfg.batch_size for _, y in ds.partitions.values())
        assert len(trace) == expected


def assert_one_message_per_step(tap, registry, ds, steps, reply_extra):
    """After the partition stores, each step is one by-value execute that
    carries the parameters inline and brings back the gradient, after
    `reply_extra` leading values; the workers end with their partitions
    only."""
    stores = 2 * len(ds.partitions)
    assert [e.op for e in tap.events[:stores]] == ["store"] * stores
    assert [e.op for e in tap.events[stores:]] == ["execute"] * steps
    n_params = nn.param_count((ds.n_features, TrainConfig().hidden, 1))
    shapes = ((n_params,), (n_params + reply_extra,))
    assert all(e.shapes == shapes for e in tap.events[stores:])
    assert sum(w.object_count() for w in registry.workers.values()) == stores


class TestMessagesPerStep:
    def test_federated(self):
        ds = boston(["alice", "bob"])
        tap = TransportTap()
        fed, registry = virtual_federation(["alice", "bob"], seed=1, tap=tap)
        _, trace = train_federated(fed, ds, TrainConfig(seed=1, epochs=2))
        assert_one_message_per_step(tap, registry, ds, len(trace), reply_extra=1)  # the loss

    def test_federated_dp(self):
        ds = pima(["alice", "bob"])
        tap = TransportTap()
        fed, registry = virtual_federation(["alice", "bob"], seed=1, tap=tap)
        spec = PrivacySpec(q=32 / ds.n_train, sigma=2.0, clip_norm=1.0, delta=1e-5, steps=20)
        _, trace, _ = train_federated_dp(fed, ds, TrainConfig(seed=1, privacy=spec))
        # the sanitized sum alone: no pre-noise statistic leaves the worker
        assert_one_message_per_step(tap, registry, ds, len(trace), reply_extra=0)


class TestFederatedDP:
    def test_lot_too_large(self):
        ds = boston(["alice", "bob"])
        fed, _ = virtual_federation(["alice", "bob"], seed=1)
        spec = PrivacySpec(q=0.5, sigma=4.0, clip_norm=1.0, delta=1e-5, steps=10)
        cfg = TrainConfig(seed=1, privacy=spec, lot_size=10_000)
        with pytest.raises(LotTooLarge):
            train_federated_dp(fed, ds, cfg)

    def test_spec_q_must_be_the_sampling_rate(self):
        """The ledger records the spec's q, so a q other than the rate that
        runs, L/N = 32/405 on Boston, is refused: at q=0.5 the ledger would
        report eps 2.18 for a run whose eps is 0.44."""
        ds = boston(["alice", "bob"])
        fed, _ = virtual_federation(["alice", "bob"], seed=1)
        spec = PrivacySpec(q=0.5, sigma=4.0, clip_norm=1.0, delta=1e-5, steps=10)
        with pytest.raises(ConfigError):
            train_federated_dp(fed, ds, TrainConfig(seed=1, privacy=spec))
        spec = PrivacySpec(q=32 / ds.n_train, sigma=4.0, clip_norm=1.0, delta=1e-5, steps=10)
        _, _, eps = train_federated_dp(fed, ds, TrainConfig(seed=1, privacy=spec))
        assert eps == epsilon_for(32 / ds.n_train, 4.0, 10, 1e-5)

    def test_needs_privacy_spec(self):
        ds = boston(["alice"])
        fed, _ = virtual_federation(["alice"], seed=1)
        with pytest.raises(ConfigError):
            train_federated_dp(fed, ds, TrainConfig(seed=1))

    def test_trace_shape(self):
        """The model descends despite the noise: held-out MSE after 500
        phases is below that after 50 at the same seed. The trace has one
        row per phase and no loss, which no worker sends."""
        ds = boston(["alice", "bob"])
        mse = {}
        for steps in (50, 500):
            fed, _ = virtual_federation(["alice", "bob"], seed=1)
            spec = PrivacySpec(q=32 / ds.n_train, sigma=2.5, clip_norm=1.0,
                               delta=1e-5, steps=steps)
            model, trace, eps = train_federated_dp(fed, ds, TrainConfig(seed=1, privacy=spec))
            assert len(trace) == steps
            assert all(row.keys() == {"step", "wall_ms"} for row in trace)
            mse[steps] = evaluate(model, ds)
        assert mse[500] < mse[50]
        assert 0.0 < eps < 20.0
        assert mse[500] < 90.0  # better than predicting the mean

    def test_sigma_zero_update_bound(self):
        """Without noise each parameter update before projection is bounded
        by lr * C: the sanitized sum of a lot of L has norm at most L * C
        and is divided by L. C is small enough that every row is clipped."""
        ds = pima(["alice", "bob"])
        fed, _ = virtual_federation(["alice", "bob"], seed=3)
        spec = PrivacySpec(q=32 / ds.n_train, sigma=0.0, clip_norm=0.01, delta=1e-5, steps=40)
        cfg = TrainConfig(seed=3, privacy=spec)
        sums = []

        def spy(execute):
            def counted(cmd, dest=0):
                out = execute(cmd, dest)
                sums.append(out.data)
                return out
            return counted

        for h in fed.handles.values():
            h.execute = spy(h.execute)
        _, _, eps = train_federated_dp(fed, ds, cfg)
        assert eps == float("inf")
        assert len(sums) == spec.steps
        for sanitized in sums:
            assert np.linalg.norm(sanitized / cfg.lot_size) <= spec.clip_norm + 1e-9

    def test_dp_phase_clips_each_row(self):
        """The DP phase clips each per-example gradient to C: with a 1-row
        partition, a lot of 1 and no noise, the reply's gradient is that
        row's gradient clipped, and the raw gradient is far above C."""
        ds = pima(["solo"])
        X, y = (a[:1] for a in ds.partitions["solo"])
        dims = TrainConfig().dims(ds.n_features)
        params = nn.init_params(dims, np.random.default_rng(0))
        C = 0.01
        w = WorkerCore("alice", 0)
        w.push(1, Tensor(X, Dtype.FLOAT64))
        w.push(2, Tensor(y, Dtype.FLOAT64))
        reply = w.execute(Command(
            "dp_phase", (("tensor", Tensor(params, Dtype.FLOAT64)), Command.obj(1),
                         Command.obj(2)),
            {"dims": list(dims), "task": ds.task, "lot_size": 1, "clip_norm": C,
             "sigma": 0.0}))
        _, G = nn.forward_backward(params, dims, ds.task, X, y, per_example=True)
        assert np.linalg.norm(G[0]) > 10 * C
        assert np.array_equal(reply.data, nn.clip_rows(G, C)[0])

    def test_sigma_zero_matches_local_lot_sgd(self):
        """sigma=0 with a huge clip norm is exactly lot SGD under the DP
        recipe (lr decay, hidden max-norm projection, tail averaging),
        computed locally from the same streams."""
        ds = pima(["alice", "bob"])
        cfg = TrainConfig(
            seed=7,
            privacy=PrivacySpec(q=32 / ds.n_train, sigma=0.0, clip_norm=1e9, delta=1e-5,
                                steps=25),
        )
        fed, _ = virtual_federation(["alice", "bob"], seed=7)
        model, _, _ = train_federated_dp(fed, ds, cfg)

        # local replay: same init, same worker picks, same worker-side lots
        from fedring.workers import worker_rng

        names = list(ds.partitions)
        dims = cfg.dims(ds.n_features)
        params = nn.init_params(dims, np.random.default_rng([cfg.seed, 2]))
        pick = np.random.default_rng([cfg.seed, 4])
        wrngs = {n: worker_rng(7, n) for n in names}
        T = cfg.privacy.steps
        avg_from = T - int(round(T * train.DP_AVG_FRAC))
        tail = []
        for t in range(T):
            name = names[int(pick.integers(len(names)))]
            X, y = ds.partitions[name]
            lot = wrngs[name].choice(len(y), size=cfg.lot_size, replace=False)
            _, G = nn.forward_backward(params, dims, ds.task, X[lot], y[lot],
                                       per_example=True)
            lr = train.DP_LR0 / (1.0 + t / train.DP_LR_TAU)
            params = params - lr * G.mean(axis=0)
            params = nn.project_hidden_max_norm(params, dims, train.DP_MAX_NORM)
            if t >= avg_from:
                tail.append(params)
        assert np.allclose(model.params, np.mean(tail, axis=0), atol=1e-12)


class TestMPCForward:
    def test_fixed_forward_close_to_float(self):
        ds = boston(["solo"])
        model, _ = train_plain(ds, TrainConfig(seed=1, epochs=2))
        X = ds.test_X[:20]
        fixed = fixed_forward(model, X)
        exact = nn.forward(model.params, model.dims, model.task, X)
        assert np.max(np.abs(fixed - exact)) < 0.05

    def test_mpc_matches_fixed_oracle(self):
        ds = boston(["solo"])
        model, _ = train_plain(ds, TrainConfig(seed=1, epochs=2))
        X = ds.test_X[:8]
        fed, _ = virtual_federation(["alice", "bob", "dealer"], seed=9)
        parties = ("alice", "bob")
        pool = provision_triples(fed, "dealer", parties, model.dims, len(X), model.task)
        rng = np.random.default_rng(10)
        shared = mpc_forward(model, X, fed, parties, pool, rng)
        fixed = fixed_forward(model, X)
        assert np.max(np.abs(shared - fixed)) < 2.0**-10

    def test_mpc_decision_agreement_pima(self):
        """Shared and plaintext classifiers agree on >= 99% of decisions."""
        ds = pima(["solo"])
        model, _ = train_plain(ds, TrainConfig(dataset="pima", seed=1))
        X = ds.test_X[:100]
        fed, _ = virtual_federation(["alice", "bob", "dealer"], seed=11)
        parties = ("alice", "bob")
        pool = provision_triples(fed, "dealer", parties, model.dims, len(X), model.task)
        shared = mpc_forward(model, X, fed, parties, pool, np.random.default_rng(12))
        plain = nn.forward(model.params, model.dims, model.task, X)
        agree = np.mean((shared > 0.5) == (plain > 0.5))
        assert agree >= 0.99

    @pytest.mark.parametrize("dataset,epochs,n_trunc", [("boston", 2, 6), ("pima", 10, 10)])
    def test_truncation_margin(self, monkeypatch, dataset, epochs, n_trunc):
        """Local share truncation of an l-bit raw product misses by more
        than one ulp with probability ~2^(l+1-62); fixedpoint's measurement
        saw no miss at l = 41. The plaintext oracle truncates where the
        shared pass does, so its raw products pin l for the models the MPC
        tests run (criterion 5's Boston model and the Pima model above),
        over the whole test set: at most 41 at every truncation (today
        Boston reads 34 to 38 and Pima 25 to 34)."""
        ds = load_dataset(bundled_path(dataset), dataset, ["solo"], split_seed=0)
        model, _ = train_plain(ds, TrainConfig(dataset=dataset, seed=1, epochs=epochs))
        lengths = []
        truncate = fixedpoint.truncate

        def spy(raw):
            lengths.append(int(np.abs(fixedpoint.to_signed(raw)).max()).bit_length())
            return truncate(raw)

        monkeypatch.setattr(fixedpoint, "truncate", spy)
        fixed_forward(model, ds.test_X)
        assert len(lengths) == n_trunc
        assert max(lengths) <= 41, lengths


    def test_pass_budget_boston(self):
        """One pass over the Boston test set (B=101): at most 22 messages,
        exactly 8 openings, and each party ends with the objects it started
        with minus the 4 triple objects the pass consumed."""
        ds = boston(["solo"])
        model, _ = train_plain(ds, TrainConfig(seed=1, epochs=2))
        tap = TransportTap()
        fed, registry = virtual_federation(["alice", "bob", "dealer"], seed=9, tap=tap)
        parties = ("alice", "bob")
        pool = provision_triples(fed, "dealer", parties, model.dims, len(ds.test_X),
                                 model.task, passes=2)
        rng = np.random.default_rng(10)
        for _ in range(2):
            counts = {n: w.object_count() for n, w in registry.workers.items()}
            messages, openings = tap.messages, tap.openings
            mpc_forward(model, ds.test_X, fed, parties, pool, rng)
            assert tap.messages - messages <= 22
            assert tap.openings - openings == 8
            assert {n: w.object_count() - counts[n] for n, w in registry.workers.items()} == {
                "alice": -4, "bob": -4, "dealer": 0}

    def test_provisioned_triples_memory(self):
        """Provisioning 100 Boston passes leaves one object per triple on
        each party, 400 in all, and only the last party holds c explicitly:
        9,797 ring elements per pass beside the seeds."""
        ds = boston(["solo"])
        model, _ = train_plain(ds, TrainConfig(seed=1, epochs=1))
        fed, registry = virtual_federation(["alice", "bob", "dealer"], seed=9)
        B = len(ds.test_X)
        provision_triples(fed, "dealer", ("alice", "bob"), model.dims, B, model.task,
                          passes=100)
        c_per_pass = sum(count * math.prod(commands.triple_shapes(kind, shape)[2])
                         for kind, shape, count in
                         train.mpc_triple_requirements(model.dims, B, model.task))
        assert c_per_pass == 9797
        held = {}
        for name in ("alice", "bob"):
            core = registry.get(name)
            assert core.object_count() == 400
            held[name] = sum(t.size for t in core._objects.values())
        assert held == {"alice": 400 * commands.SEED_WORDS,
                        "bob": 400 * commands.SEED_WORDS + 100 * c_per_pass}
        assert registry.get("dealer").object_count() == 0

    def test_each_triple_expanded_once_per_use(self, monkeypatch):
        """One Boston pass expands each of its 4 triples once on each party
        (8 expansions), and the dealer expands nothing after provisioning."""
        ds = boston(["solo"])
        model, _ = train_plain(ds, TrainConfig(seed=1, epochs=1))
        fed, registry = virtual_federation(["alice", "bob", "dealer"], seed=9)
        parties = ("alice", "bob")
        pool = provision_triples(fed, "dealer", parties, model.dims, len(ds.test_X),
                                 model.task)
        owner = {id(core.triple_prg): name for name, core in registry.workers.items()}
        calls = collections.Counter()
        expand = commands.TriplePRG.expand

        def counted(prg, seed, count):
            calls[owner[id(prg)]] += 1
            return expand(prg, seed, count)

        monkeypatch.setattr(commands.TriplePRG, "expand", counted)
        mpc_forward(model, ds.test_X, fed, parties, pool, np.random.default_rng(10))
        assert calls == {"alice": 4, "bob": 4}

    def test_tap_reads_headers_only(self, monkeypatch):
        """Over one Boston pass the tap records the shape and the encoded
        length of every tensor a message carries, by-value results
        included (22 events, 656,844 B), and record makes no codec
        call."""
        ds = boston(["solo"])
        model, _ = train_plain(ds, TrainConfig(seed=1, epochs=2))
        tap = TransportTap()
        fed, _ = virtual_federation(["alice", "bob", "dealer"], seed=9, tap=tap)
        parties = ("alice", "bob")
        pool = provision_triples(fed, "dealer", parties, model.dims, len(ds.test_X),
                                 model.task)
        inside = [False]
        codec_calls = collections.Counter()
        for name in ("serialize_tensor", "deserialize_tensor", "serialize_chain",
                     "deserialize_chain", "serialize_command", "deserialize_command"):
            def counted(*args, _fn=getattr(protocol, name), _name=name, **kwargs):
                codec_calls[_name] += inside[0]
                return _fn(*args, **kwargs)
            monkeypatch.setattr(protocol, name, counted)
        record = TransportTap.record
        reference = []

        def spied(self, op, worker, oid=0, tensors=()):
            inside[0] = True
            try:
                record(self, op, worker, oid, tensors)
            finally:
                inside[0] = False
            nbytes = sum(len(protocol.serialize_tensor(t)) for t in tensors)
            reference.append(TapEvent(op, worker, oid, nbytes, tuple(t.shape for t in tensors)))

        monkeypatch.setattr(TransportTap, "record", spied)
        start = len(tap.events)
        mpc_forward(model, ds.test_X, fed, parties, pool, np.random.default_rng(10))
        events = tap.events[start:]
        assert events == reference
        assert len(events) == 22
        assert sum(e.nbytes for e in events) == 656_844
        assert sum(codec_calls.values()) == 0

    CODEC = ("serialize_tensor", "deserialize_tensor", "serialize_chain", "deserialize_chain",
             "serialize_command", "deserialize_command", "encode_frame", "decode_frame")

    def _one_pass_calls(self, monkeypatch, fed):
        """One Boston pass over fed, with triples provisioned first. Returns
        the handle calls (by-value executes as "execute_value") and the
        codec calls made on the leader's thread."""
        ds = boston(["solo"])
        model, _ = train_plain(ds, TrainConfig(seed=1, epochs=2))
        parties = ("alice", "bob")
        pool = provision_triples(fed, "dealer", parties, model.dims, len(ds.test_X),
                                 model.task)
        calls, codec = collections.Counter(), collections.Counter()
        leader = threading.current_thread()

        def spy(key, fn, tally):
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                if threading.current_thread() is leader:
                    tally[key + "_value" * (key == "execute" and out is not None)] += 1
                return out
            return counted

        for name in self.CODEC:
            monkeypatch.setattr(protocol, name, spy(name, getattr(protocol, name), codec))
        for module in (train, commands):
            monkeypatch.setattr(module, "serialize_chain", protocol.serialize_chain)
        for h in fed.handles.values():
            for op in ("store", "fetch", "execute"):
                monkeypatch.setattr(h, op, spy(op, getattr(h, op), calls))
        mpc_forward(model, ds.test_X, fed, parties, pool, np.random.default_rng(10))
        return calls, codec

    def test_codec_only_at_transport_boundary(self, monkeypatch):
        """Workers and handles pass tensors: over one Boston pass on
        virtual workers, nothing is encoded or decoded, by no store,
        execute, fetch or worker-to-worker push."""
        fed, _ = virtual_federation(["alice", "bob", "dealer"], seed=9)
        calls, codec = self._one_pass_calls(monkeypatch, fed)
        # 2 store_parts, 8 beaver_open and 2 reconstruct executes
        assert calls["execute_value"] == 12
        assert calls["store"] == calls["fetch"] == 0
        assert calls["execute"] > 0
        assert codec == {}

    def test_socket_decodes_each_result_once(self, monkeypatch):
        """Over one Boston pass on socket workers, the leader decodes
        exactly one object per by-value execute and no other payload."""
        with socket_workers(("alice", "bob", "dealer"), 9) as (endpoints, _):
            fed = socket_federation(endpoints)
            try:
                calls, codec = self._one_pass_calls(monkeypatch, fed)
            finally:
                fed.close()
        assert calls["store"] == 0
        assert calls["execute_value"] == 12
        decodes = {name: n for name, n in codec.items() if name.startswith("de")}
        assert decodes == {"deserialize_chain": 12, "deserialize_tensor": 12}

    @pytest.mark.parametrize("fault", ["pool_lacks_a_triple", "x_too_narrow"])
    def test_refused_pass_sends_nothing(self, fault):
        """A pass that cannot complete is refused before its first message,
        with the error that names the fault, and every worker keeps the
        objects it had. Before, a pool without the (101, 32, 1) matmul
        triple raised InsufficientTriples with 5 input shares left on each
        party, and X of 5 columns stored all 10 input shares, then raised
        InsufficientTriples."""
        ds = boston(["solo"])
        model, _ = train_plain(ds, TrainConfig(seed=1, epochs=1))
        X = ds.test_X
        tap = TransportTap()
        fed, registry = virtual_federation(["alice", "bob", "dealer"], seed=9, tap=tap)
        parties = ("alice", "bob")
        pool = provision_triples(fed, "dealer", parties, model.dims, len(X), model.task)
        if fault == "pool_lacks_a_triple":
            pool.take("matmul", (len(X), model.dims[1], 1))
            error = InsufficientTriples
        else:
            X = X[:, :5]
            error = ShapeMismatch
        counts = {n: w.object_count() for n, w in registry.workers.items()}
        messages = tap.messages
        with pytest.raises(error):
            mpc_forward(model, X, fed, parties, pool, np.random.default_rng(10))
        assert tap.messages == messages
        assert {n: w.object_count() for n, w in registry.workers.items()} == counts

    def test_three_parties_rejected(self):
        ds = boston(["solo"])
        model, _ = train_plain(ds, TrainConfig(seed=1, epochs=1))
        X = ds.test_X[:4]
        fed, _ = virtual_federation(["alice", "bob", "carol", "dealer"], seed=9)
        with pytest.raises(ConfigError):
            provision_triples(fed, "dealer", ("alice", "bob", "carol"), model.dims, len(X),
                              model.task)
        pool = provision_triples(fed, "dealer", ("alice", "bob"), model.dims, len(X), model.task)
        with pytest.raises(ConfigError):
            mpc_forward(model, X, fed, ("alice", "bob", "carol"), pool, np.random.default_rng(1))

    @pytest.mark.parametrize("dataset", ["boston", "pima"])
    def test_socket_matches_virtual(self, dataset):
        """Socket workers wired as peers give bit-identical outputs and the
        same message pattern as virtual ones; the inline-tensor and take
        arguments and the multi-id delete cross real TCP frames."""
        ds = load_dataset(bundled_path(dataset), dataset, ["solo"], split_seed=0)
        model, _ = train_plain(ds, TrainConfig(dataset=dataset, seed=1, epochs=1))
        X = ds.test_X[:16]
        names = ("alice", "bob", "dealer")
        outs, patterns, counts = [], [], []
        with socket_workers(names, 5) as (endpoints, sock_cores):
            sock_tap, virt_tap = TransportTap(), TransportTap()
            sock_fed = socket_federation(endpoints, sock_tap)
            virt_fed, registry = virtual_federation(names, seed=5, tap=virt_tap)
            try:
                for fed, tap, cores in ((sock_fed, sock_tap, sock_cores),
                                        (virt_fed, virt_tap, list(registry.workers.values()))):
                    pool = provision_triples(fed, "dealer", names[:2], model.dims, len(X),
                                             model.task)
                    start = len(tap.events)
                    outs.append(mpc_forward(model, X, fed, names[:2], pool,
                                            np.random.default_rng(6)))
                    patterns.append([(e.op, e.worker, e.nbytes, e.shapes)
                                     for e in tap.events[start:]])
                    counts.append([c.object_count() for c in cores])
            finally:
                sock_fed.close()
        assert outs[0].tobytes() == outs[1].tobytes()
        assert patterns[0] == patterns[1]
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("transport", ["virtual", "socket"])
    def test_any_worker_names(self, transport):
        """Parties "yjc" and "bob" with dealer "dealer" run three Boston
        passes, each within 2^-10 of the fixed-point oracle. "yjc" and
        "dealer" share the low 16 bits of their crc32, from which workers
        once numbered their own objects, so their ids collided; the leader
        now names every object."""
        ds = boston(["solo"])
        model, _ = train_plain(ds, TrainConfig(seed=1, epochs=2))
        X = ds.test_X
        names = ("yjc", "bob", "dealer")

        def three_passes(fed):
            pool = provision_triples(fed, "dealer", names[:2], model.dims, len(X), model.task,
                                     passes=3)
            return [mpc_forward(model, X, fed, names[:2], pool, np.random.default_rng(s))
                    for s in (10, 11, 12)]

        if transport == "virtual":
            outs = three_passes(virtual_federation(names, seed=9)[0])
        else:
            with socket_workers(names, 9) as (endpoints, _):
                fed = socket_federation(endpoints)
                try:
                    outs = three_passes(fed)
                finally:
                    fed.close()
        oracle = fixed_forward(model, X)
        assert all(np.max(np.abs(out - oracle)) < 2.0**-10 for out in outs)


class TestEvaluate:
    def test_regression_units(self):
        ds = boston(["solo"])
        from fedring.nn import Model, param_count

        dims = (ds.n_features, 4, 1)
        model = Model(dims, "regression", np.zeros(param_count(dims)),
                      target_scale=(float(ds.test_y.mean()), 1.0))
        # zero params predict the constant mean: MSE equals target variance
        assert evaluate(model, ds) == pytest.approx(float(np.var(ds.test_y)))

    def test_binary_accuracy(self):
        ds = pima(["solo"])
        from fedring.nn import Model, param_count

        dims = (ds.n_features, 4, 1)
        model = Model(dims, "binary", np.zeros(param_count(dims)))
        # zero params output exactly 0.5, thresholded to the negative class
        assert evaluate(model, ds) == pytest.approx(float(np.mean(ds.test_y == 0.0)))
