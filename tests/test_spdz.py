import sys
import threading

import numpy as np
import pytest

from fedring import commands
from fedring.commands import SEED_WORDS, TriplePRG, triple_shapes
from fedring.errors import (
    ConfigError,
    InsufficientTriples,
    ObjectNotFound,
    PartyMismatch,
    ShapeMismatch,
    TripleReused,
    TripleShapeMismatch,
    UnknownCommand,
    WorkerUnknown,
)
from fedring.fixedpoint import FRAC_BITS, Q, decode, encode, to_signed, truncate_share
from fedring.protocol import Command
from fedring.spdz import (
    BeaverTriple,
    TriplePool,
    beaver_mul,
    dealer_generate,
    linear,
    matmul_shared,
    materialize,
    reconstruct,
    share,
    share_remote,
    trunc_shared,
)
from fedring.tensor import Dtype, Tensor
from fedring.workers import TransportTap, virtual_federation

from test_workers import bits

PARTIES = ("alice", "bob")


def r64(values):
    return Tensor(np.asarray(values, dtype=np.uint64), Dtype.RING64)


def enc(values):
    return encode(Tensor(np.asarray(values, dtype=np.float64), Dtype.FLOAT64))


@pytest.fixture
def fed():
    fed, _ = virtual_federation(["alice", "bob", "dealer"], seed=7)
    return fed


@pytest.fixture
def tapped():
    tap = TransportTap()
    fed, _ = virtual_federation(["alice", "bob", "dealer"], seed=7, tap=tap)
    return fed, tap


class TestShareReconstruct:
    def test_roundtrip_property(self, fed):
        rng = np.random.default_rng(0)
        for _ in range(100):
            shape = tuple(int(s) for s in rng.integers(1, 6, size=rng.integers(1, 3)))
            x = r64(rng.integers(0, Q, size=shape, dtype=np.uint64))
            sv = share(x, PARTIES, fed, rng)
            assert reconstruct(sv, fed, delete=True) == x

    def test_three_parties(self, fed):
        rng = np.random.default_rng(1)
        x = r64([1, Q - 1, 12345])
        sv = share(x, ("alice", "bob", "dealer"), fed, rng)
        assert sv.n_parties == 3
        assert reconstruct(sv, fed) == x

    def test_seeded_split_oracle(self, fed):
        """Party shares other than the last are raw draws from the rng; the
        last share is the residue that completes the sum."""
        rng = np.random.default_rng(2)
        x = r64([10, 20])
        sv = share(x, PARTIES, fed, rng)
        oracle = np.random.default_rng(2)
        s0 = oracle.integers(0, Q, size=2, dtype=np.uint64)
        got0 = fed.worker("alice").fetch(sv.exprs[0][1]).data
        got1 = fed.worker("bob").fetch(sv.exprs[1][1]).data
        assert np.array_equal(got0, s0)
        assert np.array_equal((got0 + got1) & np.uint64(Q - 1), x.data)

    @pytest.mark.parametrize("seed", range(5))
    def test_one_call_matches_sequential_shares(self, seed):
        """Five secrets shared in one call, as mpc_forward shares its
        inputs, give each party the same share values, under the same ids,
        as five share calls from the same rng state; the one call is one
        store_parts execute per party."""
        shapes = [(101, 13), (13, 32), (101, 32), (32, 1), (101, 1)]
        data = np.random.default_rng(100 + seed)
        secrets = [r64(data.integers(0, Q, size=s, dtype=np.uint64)) for s in shapes]
        tap = TransportTap()
        one_fed, one_reg = virtual_federation(["alice", "bob"], seed=7, tap=tap)
        seq_fed, seq_reg = virtual_federation(["alice", "bob"], seed=7)
        flat = r64(np.concatenate([s.data.ravel() for s in secrets]))
        together = share(flat, PARTIES, one_fed, np.random.default_rng(seed), shapes=shapes)
        rng = np.random.default_rng(seed)
        apart = [share(s, PARTIES, seq_fed, rng) for s in secrets]
        assert [(e.op, e.shapes) for e in tap.events] == [("execute", ((flat.size,), (0,)))] * 2
        assert together == apart
        for party in PARTIES:
            one, seq = one_reg.get(party)._objects, seq_reg.get(party)._objects
            assert sorted(one) == sorted(seq)
            assert all(bits(one[oid]) == bits(seq[oid]) for oid in one)
        for sv, secret in zip(together, secrets):
            assert reconstruct(sv, one_fed) == secret

    def test_too_few_parties(self, fed):
        with pytest.raises(ConfigError):
            share(r64([1]), ("alice",), fed, np.random.default_rng(0))

    def test_missing_share(self, fed):
        rng = np.random.default_rng(3)
        sv = share(r64([5]), PARTIES, fed, rng)
        fed.worker("bob").delete(sv.exprs[1][1])
        with pytest.raises(ObjectNotFound):
            reconstruct(sv, fed)

    def test_remote_share_to_one_party_is_refused_by_the_owner(self, fed):
        """The owner refuses one party before anything is pushed or taken."""
        fed.worker("bob").store(1, r64([5, 6]))
        with pytest.raises(ConfigError, match="^need at least 2 parties$"):
            share_remote("bob", ("ref", 1), ("bob",), fed)
        assert [fed.worker(p).core.object_count() for p in ("alice", "bob")] == [0, 1]

    def test_remote_share_to_unknown_party_strands_nothing(self, fed):
        """make_shares resolves every party before its first push: sharing
        to a party the owner does not know raises WorkerUnknown, no share is
        stored anywhere, and the secret is not taken."""
        secret = r64([5, 6])
        fed.worker("bob").store(1, secret)
        with pytest.raises(WorkerUnknown):
            share_remote("bob", ("ref", 1), ("alice", "zed"), fed)
        assert fed.worker("alice").core.object_count() == 0
        assert fed.worker("bob").core.object_count() == 1
        assert bits(fed.worker("bob").fetch(1)) == bits(secret)

    def test_share_wrap(self, fed):
        rng = np.random.default_rng(4)
        sv = share(r64([Q - 1]), PARTIES, fed, rng)
        assert reconstruct(sv, fed).data[0] == Q - 1


class TestLinearLayer:
    def test_add_oracle_and_zero_messages(self, tapped):
        fed, tap = tapped
        rng = np.random.default_rng(5)
        x = r64(rng.integers(0, Q, size=(3, 2), dtype=np.uint64))
        y = r64(rng.integers(0, Q, size=(3, 2), dtype=np.uint64))
        xs = share(x, PARTIES, fed, rng)
        ys = share(y, PARTIES, fed, rng)
        before = tap.messages
        zs = linear("add", xs, ys)
        ws = linear("sub", xs, ys)
        ns = linear("neg", xs)
        ss = linear("scale", xs, 3)
        os_ = linear("offset", xs, 100)
        ms = linear("offset", xs, -100)  # a negative constant is its residue mod Q
        assert tap.messages == before  # all six ops were free
        mask = np.uint64(Q - 1)
        assert np.array_equal(reconstruct(zs, fed).data, (x.data + y.data) & mask)
        assert np.array_equal(reconstruct(ws, fed).data, (x.data - y.data) & mask)
        assert np.array_equal(reconstruct(ns, fed).data, (np.uint64(0) - x.data) & mask)
        assert np.array_equal(reconstruct(ss, fed).data, (x.data * np.uint64(3)) & mask)
        assert np.array_equal(reconstruct(os_, fed).data, (x.data + np.uint64(100)) & mask)
        assert np.array_equal(reconstruct(ms, fed).data, (x.data - np.uint64(100)) & mask)

    def test_public_identities(self, fed):
        rng = np.random.default_rng(6)
        x = r64(rng.integers(0, Q, size=4, dtype=np.uint64))
        xs = share(x, PARTIES, fed, rng)
        assert reconstruct(linear("scale", xs, 1), fed) == x
        assert reconstruct(linear("offset", xs, 0), fed) == x

    @pytest.mark.parametrize("name", ["mul", "matmul", "sigmoid_poly", "trunc", "ref"])
    def test_nonlinear_op_is_unknown(self, fed, name):
        xs = share(r64([1]), PARTIES, fed, np.random.default_rng(6))
        with pytest.raises(UnknownCommand):
            linear(name, xs, xs)

    @pytest.mark.parametrize("name,n_extra", [("add", 0), ("neg", 1), ("scale", 0),
                                              ("offset", 2)])
    def test_operand_count_from_op_table(self, fed, name, n_extra):
        xs = share(r64([1]), PARTIES, fed, np.random.default_rng(6))
        with pytest.raises(ConfigError):
            linear(name, xs, *([3] * n_extra))

    def test_party_mismatch(self, fed):
        rng = np.random.default_rng(7)
        xs = share(r64([1]), PARTIES, fed, rng)
        ys = share(r64([1]), ("bob", "dealer"), fed, rng)
        with pytest.raises(PartyMismatch):
            linear("add", xs, ys)

    def test_shape_mismatch(self, fed):
        rng = np.random.default_rng(8)
        xs = share(r64([1, 2]), PARTIES, fed, rng)
        ys = share(r64([1]), PARTIES, fed, rng)
        with pytest.raises(ShapeMismatch):
            linear("sub", xs, ys)


def one_triple(fed, kind, shape):
    return dealer_generate(fed, "dealer", kind, shape, PARTIES, 1)[0]


class TestBeaver:
    def test_elementwise_ints(self, fed):
        rng = np.random.default_rng(9)
        xs = share(r64([2, 3, 10]), PARTIES, fed, rng)
        ys = share(r64([5, 7, 11]), PARTIES, fed, rng)
        zs = beaver_mul(xs, ys, one_triple(fed, "elementwise", (3,)), fed)
        assert np.array_equal(reconstruct(zs, fed).data, [10, 21, 110])

    def test_fixed_point_example(self, fed):
        rng = np.random.default_rng(10)
        xs = share(enc([1.5]), PARTIES, fed, rng)
        ys = share(enc([2.0]), PARTIES, fed, rng)
        zs = beaver_mul(xs, ys, one_triple(fed, "elementwise", (1,)), fed)
        zs = trunc_shared(zs)
        got = decode(reconstruct(zs, fed)).data[0]
        assert abs(got - 3.0) <= 2.0**-15

    def test_exactly_two_openings(self, tapped):
        fed, tap = tapped
        rng = np.random.default_rng(11)
        xs = share(enc(rng.normal(size=(8, 8))), PARTIES, fed, rng)
        ys = share(enc(rng.normal(size=(8, 8))), PARTIES, fed, rng)
        before = tap.openings
        beaver_mul(xs, ys, one_triple(fed, "elementwise", (8, 8)), fed)
        assert tap.openings - before == 2

    def test_matmul_identity(self, fed):
        rng = np.random.default_rng(12)
        x = rng.integers(0, 1000, size=(3, 3)).astype(np.uint64)
        xs = share(r64(x), PARTIES, fed, rng)
        es = share(r64(np.eye(3, dtype=np.uint64)), PARTIES, fed, rng)
        zs = matmul_shared(xs, es, one_triple(fed, "matmul", (3, 3, 3)), fed)
        assert np.array_equal(reconstruct(zs, fed).data, x)

    def test_matmul_random_fixed_point(self, fed):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(2, 4))
        b = rng.normal(size=(4, 3))
        xs = share(enc(a), PARTIES, fed, rng)
        ys = share(enc(b), PARTIES, fed, rng)
        zs = matmul_shared(xs, ys, one_triple(fed, "matmul", (2, 4, 3)), fed)
        got = decode(reconstruct(trunc_shared(zs), fed)).data
        assert np.max(np.abs(got - a @ b)) < 1e-3

    def test_triple_reuse_rejected(self, fed):
        rng = np.random.default_rng(14)
        xs = share(r64([1]), PARTIES, fed, rng)
        ys = share(r64([2]), PARTIES, fed, rng)
        triple = one_triple(fed, "elementwise", (1,))
        beaver_mul(xs, ys, triple, fed)
        xs2 = share(r64([3]), PARTIES, fed, rng)
        with pytest.raises(TripleReused):
            beaver_mul(xs2, ys, triple, fed)

    def test_triple_shape_kind_checks(self, fed):
        rng = np.random.default_rng(15)
        xs = share(r64([1, 2]), PARTIES, fed, rng)
        ys = share(r64([3, 4]), PARTIES, fed, rng)
        with pytest.raises(TripleShapeMismatch):
            beaver_mul(xs, ys, one_triple(fed, "elementwise", (3,)), fed)
        m = share(r64([[1, 2]]), PARTIES, fed, rng)
        n = share(r64([[1], [2]]), PARTIES, fed, rng)
        with pytest.raises(TripleShapeMismatch):
            matmul_shared(m, n, one_triple(fed, "elementwise", (2,)), fed)

    def test_one_round_consumes_triple(self):
        """One multiplication: a by-value open command per party, then a
        combine per party with eps/delta inline; the triple objects are gone."""
        tap = TransportTap()
        fed, registry = virtual_federation(["alice", "bob", "dealer"], seed=7, tap=tap)
        rng = np.random.default_rng(22)
        xs = share(r64([2, 3, 10]), PARTIES, fed, rng)
        ys = share(r64([5, 7, 11]), PARTIES, fed, rng)
        triple = one_triple(fed, "elementwise", (3,))
        counts = {p: registry.get(p).object_count() for p in PARTIES}
        before = len(tap.events)
        zs = beaver_mul(linear("add", xs, xs), ys, triple, fed)
        ops = [e.op for e in tap.events[before:]]
        assert ops == ["execute"] * 4
        # each open's reply is x - a || y - b; each combine sends eps, delta inline
        assert [e.shapes for e in tap.events[before:]] == [((6,),)] * 2 + [((3,), (3,))] * 2
        for p in PARTIES:  # +1 product, -1 triple object
            assert registry.get(p).object_count() == counts[p]
        assert np.array_equal(reconstruct(zs, fed).data, [20, 42, 220])


class TestTriplePool:
    def test_take_once(self, fed):
        pool = TriplePool()
        for t in dealer_generate(fed, "dealer", "elementwise", (2,), PARTIES, 3):
            pool.put(t)
        assert pool.count("elementwise", (2,)) == 3
        pool.take("elementwise", (2,))
        pool.take("elementwise", (2,))
        pool.take("elementwise", (2,))
        with pytest.raises(InsufficientTriples):
            pool.take("elementwise", (2,))

    def test_missing_shape(self):
        with pytest.raises(InsufficientTriples):
            TriplePool().take("matmul", (1, 1, 1))


def expand_stored(fed, t):
    """a, b and c of a dealer triple, summed over each party's stored object
    expanded with the workers' own TriplePRG.expand: every party but the
    last expands a, b and c from its seed, the last only a and b, and holds
    c explicitly."""
    shapes = triple_shapes(t.kind, t.shape)
    na, nb, nc = (int(np.prod(s)) for s in shapes)
    mask = np.uint64(Q - 1)
    a, b, c = (np.zeros(k, dtype=np.uint64) for k in (na, nb, nc))
    prg = TriplePRG()
    for i, (party, oid) in enumerate(zip(t.parties, t.refs)):
        obj = fed.worker(party).fetch(oid).data
        last = i == len(t.parties) - 1
        assert obj.shape == (SEED_WORDS + (nc if last else 0),)
        abc = prg.expand(obj[:SEED_WORDS], na + nb + (0 if last else nc))
        a = (a + abc[:na]) & mask
        b = (b + abc[na:na + nb]) & mask
        c = (c + (obj[SEED_WORDS:] if last else abc[na + nb:])) & mask
    return tuple(v.reshape(s) for v, s in zip((a, b, c), shapes))


class TestDealer:
    def test_triples_verify(self, fed):
        mask = np.uint64(Q - 1)
        for t in dealer_generate(fed, "dealer", "elementwise", (4,), PARTIES, 5):
            a, b, c = expand_stored(fed, t)
            assert np.array_equal(c, (a * b) & mask)
        for t in dealer_generate(fed, "dealer", "matmul", (2, 3, 2), PARTIES, 5):
            a, b, c = expand_stored(fed, t)
            assert a.shape == (2, 3) and b.shape == (3, 2)
            assert np.array_equal(c, (a @ b) & mask)

    def test_three_party_bulk(self, fed):
        parties = ("alice", "bob", "dealer")
        mask = np.uint64(Q - 1)
        triples = dealer_generate(fed, "dealer", "matmul", (4, 4, 4), parties, 100)
        assert len(triples) == 100
        rng = np.random.default_rng(16)
        for idx in rng.choice(100, size=10, replace=False):
            a, b, c = expand_stored(fed, triples[idx])
            assert np.array_equal(c, (a @ b) & mask)

    def test_reproducible_given_seed(self):
        """The same dealer seed stores the same objects on every party, so
        the expanded triples agree; another seed gives other seeds."""
        stored, expanded = [], []
        for seed in (42, 42, 43):
            fed, _ = virtual_federation(["alice", "bob", "dealer"], seed=seed)
            t = dealer_generate(fed, "dealer", "elementwise", (3,), PARTIES, 1)[0]
            stored.append([fed.worker(p).fetch(oid).data.tolist()
                           for p, oid in zip(t.parties, t.refs)])
            expanded.append([v.tolist() for v in expand_stored(fed, t)])
        assert stored[0] == stored[1] and expanded[0] == expanded[1]
        assert all(x != y for x, y in zip(stored[0], stored[2]))

    def test_seeds_distinct_reply_only_ids(self, fed):
        """Only object ids cross for gen_triples, and the leader sends them:
        triple t's object for party i is stored under ids[2t + i] and the
        reply is empty. Seeds differ across parties and across triples."""
        ids = list(range(500, 512))
        cmd = Command("gen_triples", (), {"kind": "elementwise", "shape": [3],
                                          "parties": "alice,bob", "count": 6, "ids": ids})
        assert fed.worker("dealer").execute(cmd).shape == (0,)
        seeds = set()
        for t in range(6):
            for i, party in enumerate(PARTIES):
                obj = fed.worker(party).fetch(ids[2 * t + i])
                seeds.add(tuple(obj.data[:SEED_WORDS].tolist()))
        assert len(seeds) == 12

    def test_request_checked_before_any_push(self):
        """A bad party, id count or count is refused before the first
        push: no party gains an object."""
        fed, registry = virtual_federation(["alice", "bob", "dealer"], seed=7)
        base = {"kind": "elementwise", "shape": [3], "parties": "alice,bob", "count": 2,
                "ids": [1, 2, 3, 4]}
        for bad, exc in (({"parties": "alice,zed"}, WorkerUnknown),
                         ({"ids": [1, 2, 3]}, ConfigError),
                         ({"count": 0, "ids": []}, ConfigError),
                         ({"shape": [2, 2], "kind": "matmul"}, ConfigError)):
            with pytest.raises(exc):
                fed.worker("dealer").execute(Command("gen_triples", (), {**base, **bad}))
            assert [w.object_count() for w in registry.workers.values()] == [0, 0, 0]

    def test_bad_count(self, fed):
        with pytest.raises(ConfigError):
            dealer_generate(fed, "dealer", "elementwise", (1,), PARTIES, 0)


class TestTriplePRG:
    def test_threads_do_not_interleave(self):
        """Connection threads share a worker's TriplePRG: with more threads
        than cores and a short switch interval, every expansion still equals
        the single-threaded one, which an interleaved set and draw breaks."""
        prg = TriplePRG()
        rng = np.random.default_rng(24)
        seeds = [rng.integers(0, Q, size=SEED_WORDS, dtype=np.uint64) for _ in range(8)]
        want = [prg.expand(seed, 64) for seed in seeds]
        bad = []

        def work(k):
            for j in range(300):
                i = (k + j) % len(seeds)
                if not np.array_equal(prg.expand(seeds[i], 64), want[i]):
                    bad.append(i)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []


class TestCombine:
    @pytest.mark.parametrize("kind,shape,shapes", [
        ("elementwise", [4, 3], ((4, 3), (4, 3), (4, 3))),
        ("matmul", [4, 5, 3], ((4, 5), (5, 3), (4, 3))),
    ])
    def test_fused_lead_matches_three_products(self, kind, shape, shapes):
        """The lead party's c + eps*(b + delta) + a*delta equals
        c + eps*b + a*delta + eps*delta bit for bit; the others add no
        eps*delta."""
        combine = commands.REGISTRY["beaver_combine"][0]
        product = np.matmul if kind == "matmul" else np.multiply
        mask = np.uint64(Q - 1)
        rng = np.random.default_rng(23)
        for _ in range(20):
            a, b, c, eps, delta = (rng.integers(0, Q, size=s, dtype=np.uint64)
                                   for s in shapes + shapes[:2])
            abc = r64(np.concatenate([a.ravel(), b.ravel(), c.ravel()]))
            for lead in (0, 1):
                want = c + product(eps, b) + product(a, delta)
                if lead:
                    want = want + product(eps, delta)
                got = combine(None, (abc, r64(eps), r64(delta)),
                              {"kind": kind, "shape": shape, "lead": lead})
                assert got.shape == shapes[2]
                assert np.array_equal(got.data, want & mask)


class TestTruncation:
    def test_property_1000(self, fed):
        """Shared truncation of an encoded secret lands within 1 ulp of the
        plain arithmetic shift."""
        rng = np.random.default_rng(17)
        xs = rng.uniform(-1000, 1000, size=1000)
        prod = enc(xs)  # stands in for a post-multiplication value
        sv = trunc_shared(share(prod, PARTIES, fed, rng))
        got = to_signed(reconstruct(sv, fed))
        want = to_signed(prod) >> FRAC_BITS
        assert np.max(np.abs(got - want)) <= 1

    def test_zero_secret(self, fed):
        rng = np.random.default_rng(18)
        sv = trunc_shared(share(r64(np.zeros(5, dtype=np.uint64)), PARTIES, fed, rng))
        assert np.max(np.abs(to_signed(reconstruct(sv, fed)))) <= 1

    def test_monte_carlo_failure_rate(self, fed):
        """For secrets with ~30 significant bits the +-1 ulp guarantee holds
        essentially always (failure probability ~2^-31 per element)."""
        rng = np.random.default_rng(19)
        vals = rng.integers(-(1 << 30), 1 << 30, size=100_000)
        secret = r64(vals & (Q - 1))
        sv = trunc_shared(share(secret, PARTIES, fed, rng))
        got = to_signed(reconstruct(sv, fed))
        want = vals >> FRAC_BITS
        assert np.all(np.abs(got - want) <= 1)

    def test_three_parties_rejected(self, fed):
        """Local truncation with three parties reconstructs garbage (589 of
        1,000 encoded values in [-100, 100] off by more than 1 ulp, by up
        to 2^46), so it is refused instead of computed."""
        rng = np.random.default_rng(23)
        sv = share(enc(rng.uniform(-100, 100, size=1000)), ("alice", "bob", "dealer"), fed, rng)
        with pytest.raises(ConfigError):
            trunc_shared(sv)


class TestLazyExpressions:
    def test_tree_is_one_command_per_party(self, tapped):
        fed, tap = tapped
        rng = np.random.default_rng(24)
        x = r64(rng.integers(0, Q, size=(4, 3), dtype=np.uint64))
        y = r64(rng.integers(0, Q, size=(4, 3), dtype=np.uint64))
        xs, ys = share(x, PARTIES, fed, rng), share(y, PARTIES, fed, rng)
        expr = linear("offset", linear("sub", linear("scale", xs, 3), linear("neg", ys)), 5)
        expr = linear("add", expr, xs)
        before = len(tap.events)
        done = materialize(expr, fed)
        assert [e.op for e in tap.events[before:]] == ["execute", "execute"]
        assert materialize(done, fed) == done  # already single objects: no message
        assert len(tap.events) == before + 2
        mask = np.uint64(Q - 1)
        want = (x.data * np.uint64(4) + y.data + np.uint64(5)) & mask
        assert np.array_equal(reconstruct(done, fed).data, want)

    def test_truncation_folds_into_next_command(self, tapped):
        fed, tap = tapped
        rng = np.random.default_rng(25)
        vals = rng.uniform(-50, 50, size=20)
        xs = share(enc(vals), PARTIES, fed, rng)
        before = tap.messages
        t = trunc_shared(linear("scale", xs, int(enc([4.0]).data[0])))
        assert tap.messages == before
        got = decode(reconstruct(t, fed)).data
        assert tap.messages == before + 2  # one by-value eval_expr per party
        assert np.max(np.abs(got - 4 * vals)) <= 2.0**-14

    def test_leaves_resolved_once(self):
        cmd = commands.compile_expr([("sub", ("ref", 7), ("ref", 9)),
                                     ("sub", ("ref", 7), ("trunc", ("ref", 9), 16, 1))])
        assert cmd.name == "eval_expr"
        assert cmd.args == (("obj", 7), ("obj", 9))
        assert cmd.kwargs["prog"] == [0, 0, 0, 1, 2, 0, 0, 0, 1, 6, 16, 1, 2]

    @pytest.mark.parametrize("prog", [[], [9], [1], [0, 5], [0, 0, 6, 16], [14],
                                      [13, 0], [12, 0], [0, 0, 6, 64, 0], [0, 0, 6, 70, 1],
                                      [0, 0, 6, -1, 0], [0, -1], [0, 0, 6, 16, 2],
                                      [0, 0, 10, 2**64], [0, 0.5], [0, 0, 4, "x"]])
    def test_malformed_program(self, prog):
        from fedring.errors import MalformedPayload
        from fedring.protocol import Command
        from fedring.workers import WorkerCore

        w = WorkerCore("a", 0)
        w.push(1, r64([1, 2]))
        with pytest.raises(MalformedPayload):
            w.execute(Command("eval_expr", (Command.obj(1),), {"prog": prog}))
        assert w.object_count() == 1

    def test_reduced_once_matches_per_op(self):
        """Ring64 programs whose intermediates leave [0, Q) (sums near Q, a
        scale by Q - 1, neg, mul, matmul, and a trunc after them) give the
        bits of the same kernels reducing after every op, and each returned
        value is reduced and frozen."""
        from fedring.workers import WorkerCore

        rng = np.random.default_rng(26)
        leaves = {1: r64(Q - 1 - rng.integers(0, 4, size=(3, 3), dtype=np.uint64)),
                  2: r64(rng.integers(0, Q, size=(3, 3), dtype=np.uint64))}
        w = WorkerCore("a", 0)
        for oid, t in leaves.items():
            w.push(oid, t)
        a, b = ("ref", 1), ("ref", 2)
        trees = [
            ("add", ("add", a, a), ("add", a, b)),
            ("scale", ("add", a, b), Q - 1),
            ("neg", ("sub", ("neg", a), b)),
            ("offset", ("mul", ("neg", a), ("add", b, b)), Q - 3),
            ("matmul", ("add", a, a), ("scale", b, Q - 1)),
            ("trunc", ("add", ("scale", a, Q - 1), b), FRAC_BITS, 1),
        ]

        def per_op(tree):
            if tree[0] == "ref":
                return leaves[tree[1]]
            kernel, n_in = commands.OPS[tree[0]][3], commands.OPS[tree[0]][1]
            return kernel(*(per_op(t) for t in tree[1:1 + n_in]), *tree[1 + n_in:])

        for tree in trees:
            got = w.execute(commands.compile_expr([tree]))
            assert got.data.tobytes() == per_op(tree).data.tobytes(), tree[0]
            assert not got.data.flags.writeable and int(got.data.max()) < Q
        want = [(int(x) + int(y)) * (Q - 1) % Q
                for x, y in zip(leaves[1].data.ravel(), leaves[2].data.ravel())]
        assert w.execute(commands.compile_expr([trees[1]])).data.ravel().tolist() == want

    def test_fused_truncation_rejects_third_party(self):
        from fedring.errors import MalformedPayload
        from fedring.protocol import Command
        from fedring.workers import WorkerCore

        w = WorkerCore("a", 0)
        w.push(1, r64([1, 2]))
        with pytest.raises(MalformedPayload):
            w.execute(Command("eval_expr", (Command.obj(1),), {"prog": [0, 0, 6, 16, 2]}))


class TestTruncShareCommand:
    def test_matches_big_int_formula(self):
        """The uint64 shift of the truncation kernel equals the exact big-int
        formula bit for bit, for both roles, at 0, Q-1 and random shares; a
        third role, i.e. a third party, is rejected."""
        rng = np.random.default_rng(21)
        vals = np.concatenate([
            np.array([0, 1, (1 << 16) - 1, 1 << 16, Q - (1 << 16), Q - 2, Q - 1], dtype=np.uint64),
            rng.integers(0, Q, size=4998, dtype=np.uint64),
        ]).reshape(-1, 7)
        for p in (1, 16, 40):
            for role in (0, 1, 2):
                if role == 2:
                    with pytest.raises(ConfigError):
                        truncate_share(r64(vals), p, role)
                    continue
                got = truncate_share(r64(vals), p, role).data
                if role == 0:
                    want = [int(v) >> p for v in vals.ravel()]
                else:
                    want = [(Q - ((Q - int(v)) >> p)) % Q for v in vals.ravel()]
                assert got.shape == vals.shape
                assert got.ravel().tolist() == want


class TestShareDistribution:
    def test_single_share_looks_uniform(self, fed):
        """Chi-square on one party's share of a constant secret: 16 equal
        bins over the ring should be statistically flat."""
        rng = np.random.default_rng(20)
        secret = r64(np.full(10_000, 12345, dtype=np.uint64))
        sv = materialize(share(secret, PARTIES, fed, rng), fed)
        s0 = fed.worker("alice").fetch(sv.exprs[0][1]).data
        bins = (s0 >> np.uint64(58)).astype(np.int64)  # top 4 bits -> 16 bins
        counts = np.bincount(bins, minlength=16)
        expected = 10_000 / 16
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # 99.9th percentile of chi-square with 15 dof is ~37.7
        assert chi2 < 37.7
