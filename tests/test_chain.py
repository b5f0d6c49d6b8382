import contextlib
import io
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from fedring import fixedpoint, spdz
from fedring import tensor as tc
from fedring.chain import TensorChain, dispatch, validate_chain
from fedring.commands import OPS, compile_expr
from fedring.errors import (
    ConfigError,
    KindMismatch,
    ObjectNotFound,
    OverflowRangeError,
    ShapeMismatch,
    UnknownCommand,
)
from fedring.spdz import ShareVector
from fedring.tensor import Dtype, Tensor
from fedring.workers import (
    TransportTap,
    WorkerCore,
    make_server,
    socket_federation,
    virtual_federation,
)

PARTIES = ["alice", "bob"]


@pytest.fixture
def fed():
    fed, _ = virtual_federation(["alice", "bob"], seed=0)
    return fed


@pytest.fixture
def tapped():
    tap = TransportTap()
    fed, _ = virtual_federation(["alice", "bob", "dealer"], seed=0, tap=tap)
    return fed, tap


def object_counts(fed):
    return {name: fed.worker(name).core.object_count() for name in fed.names}


def sv(*pointers):
    """A materialized share vector over (party, oid) pairs."""
    return ShareVector(tuple(p for p, _ in pointers),
                       tuple(("ref", oid) for _, oid in pointers), (1,))


class TestValidator:
    def test_valid_chains(self):
        t = Tensor(np.array([1.0]), Dtype.FLOAT64)
        assert validate_chain([("local", t)])
        assert validate_chain([("pointer", "alice", ("ref", 1))])
        assert validate_chain([("fixed_precision",), ("local", t)])
        assert validate_chain([("fixed_precision",), ("pointer", "alice", ("ref", 1))])
        assert validate_chain([("shared", sv(("alice", 1), ("bob", 2)))])

    def test_pointer_has_no_child(self):
        t = Tensor(np.array([1.0]), Dtype.FLOAT64)
        with pytest.raises(KindMismatch):
            validate_chain([("pointer", "alice", ("ref", 1)), ("local", t)])

    def test_fixed_precision_needs_child(self):
        with pytest.raises(KindMismatch):
            validate_chain([("fixed_precision",)])

    def test_nested_fixed_precision_refused(self, fed):
        """A fixed_precision node stands directly above a leaf. A nested one
        once passed validation, then mul raised a bare AttributeError and
        float_precision() decoded once and dropped both prefix nodes."""
        x = TensorChain.local([1.5], fed=fed).fix_precision()
        with pytest.raises(KindMismatch):
            TensorChain([("fixed_precision",)] + x.nodes, fed)
        with pytest.raises(KindMismatch):
            validate_chain([("fixed_precision",), ("fixed_precision",), ("local", x.leaf[1])])
        with pytest.raises(KindMismatch):
            validate_chain([("local", x.leaf[1]), ("fixed_precision",), ("local", x.leaf[1])])

    def test_shared_needs_distinct_workers(self):
        with pytest.raises(KindMismatch):
            validate_chain([("shared", sv(("alice", 1), ("alice", 2)))])
        with pytest.raises(KindMismatch):
            validate_chain([("shared", sv(("alice", 1)))])


class TestDispatchLocal:
    def test_add(self):
        a = TensorChain.local([1.0, 2.0])
        b = TensorChain.local([3.0, 4.0])
        out = dispatch("add", a, b)
        assert out.kind == "local"
        assert np.array_equal(out.tensor().data, [4.0, 6.0])

    def test_unknown_command(self):
        with pytest.raises(UnknownCommand):
            dispatch("frobnicate", TensorChain.local([1.0]))

    @pytest.mark.parametrize("name", ["ref", "trunc", "fscale", "save", "load"])
    def test_compiler_ops_not_dispatched(self, name):
        """Only chain ops dispatch: the compilers' own opcodes do not."""
        with pytest.raises(UnknownCommand):
            dispatch(name, TensorChain.local([1.0]), c=2)

    @pytest.mark.parametrize("name,n", [("add", 1), ("sub", 3), ("neg", 2), ("scale", 2)])
    def test_wrong_arity(self, name, n):
        operands = [TensorChain.local([1.0])] * n
        with pytest.raises(KindMismatch):
            dispatch(name, *operands, c=2)

    def test_kind_mismatch(self, fed):
        a = TensorChain.local([1.0], fed=fed)
        b = TensorChain.local([1.0], fed=fed).send("alice")
        with pytest.raises(KindMismatch):
            dispatch("add", a, b)


class TestSendGet:
    def test_send_stores_and_rewrites(self, fed):
        x = TensorChain.local([1.0, 2.0, 3.0], fed=fed)
        p = x.send("alice")
        assert p.kind == "pointer"
        assert len(p.nodes) == 1  # head + Pointer, nothing below
        assert fed.worker("alice").core.object_count() == 1

    def test_roundtrip_bit_identical(self, fed):
        data = np.random.default_rng(0).normal(size=(3, 4))
        x = TensorChain.local(data, fed=fed)
        back = x.send("bob").get()
        assert back.kind == "local"
        assert len(back.nodes) == 1
        assert np.array_equal(back.tensor().data, data)

    def test_get_twice_not_found(self, fed):
        p = TensorChain.local([1.0], fed=fed).send("alice")
        p.get()
        with pytest.raises(ObjectNotFound):
            p.get()

    def test_send_pointer_rejected(self, fed):
        p = TensorChain.local([1.0], fed=fed).send("alice")
        with pytest.raises(KindMismatch):
            p.send("bob")


class TestPointerDispatch:
    def test_remote_add(self, fed):
        a = TensorChain.local([1.0, 2.0], fed=fed).send("alice")
        b = TensorChain.local([3.0, 4.0], fed=fed).send("alice")
        c = dispatch("add", a, b)
        assert c.kind == "pointer"
        assert np.array_equal(c.get().tensor().data, [4.0, 6.0])

    def test_cross_worker_rejected(self, fed):
        a = TensorChain.local([1.0], fed=fed).send("alice")
        b = TensorChain.local([1.0], fed=fed).send("bob")
        with pytest.raises(KindMismatch):
            dispatch("add", a, b)

    def test_transport_transparency_property(self, fed):
        """dispatch(cmd, send(x), send(y)).get() == dispatch(cmd, x, y) bit
        for bit, and a lazy chain over a socket worker gives the same bytes
        as over a virtual one."""
        rng = np.random.default_rng(1)

        def same_bits(a, b):
            return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

        for cmd in ("add", "sub", "mul", "matmul"):
            x = rng.normal(size=(2, 3))
            y = rng.normal(size=(3, 2) if cmd == "matmul" else (2, 3))
            local = dispatch(cmd, TensorChain.local(x), TensorChain.local(y))
            remote = dispatch(
                cmd,
                TensorChain.local(x, fed=fed).send("alice"),
                TensorChain.local(y, fed=fed).send("alice"),
            ).get()
            assert same_bits(local.tensor().data, remote.tensor().data)
        for cmd, kwargs in (("neg", {}), ("sigmoid_poly", {}),
                            ("scale", {"c": 0.1}), ("scale", {"c": -1 / 48}), ("scale", {"c": 3}),
                            ("offset", {"c": 0.1}), ("offset", {"c": -1 / 48}),
                            ("offset", {"c": np.float32(-1 / 48)})):
            x = rng.normal(size=5)
            local = dispatch(cmd, TensorChain.local(x), **kwargs)
            remote = dispatch(cmd, TensorChain.local(x, fed=fed).send("bob"), **kwargs).get()
            assert same_bits(local.tensor().data, remote.tensor().data)

        x, y = rng.normal(size=(2, 3)), rng.normal(size=(3, 2))

        def lazy_chain(f):
            xy = dispatch("matmul", TensorChain.local(x, fed=f).send("alice"),
                          TensorChain.local(y, fed=f).send("alice"))
            out = dispatch("offset", dispatch("scale", xy, c=0.1), c=-1 / 48)
            return dispatch("sigmoid_poly", out).get().tensor().data

        server = make_server("127.0.0.1", 0, WorkerCore("alice", 0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            sock_fed = socket_federation({"alice": server.server_address})
            try:
                over_socket = lazy_chain(sock_fed)
            finally:
                sock_fed.close()
        finally:
            server.shutdown()
            server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert same_bits(over_socket, lazy_chain(fed))

    def test_ring_local_matches_worker(self, fed):
        """A Ring64 local op calls its OPS kernel directly; a pointer op runs
        the same kernel in the worker's interpreter. Both give the same
        bits, wrapped mod Q, for every ring op a chain dispatches."""
        rng = np.random.default_rng(2)

        def ring(shape):
            return TensorChain.local(tc.random_ring(rng, shape), Dtype.RING64)

        def sent(chain):
            return TensorChain([chain.leaf], fed).send("alice")

        cases = [("add", (2, 3), (2, 3), {}), ("sub", (2, 3), (2, 3), {}),
                 ("mul", (2, 3), (2, 3), {}), ("matmul", (2, 3), (3, 2), {}),
                 ("neg", (5,), None, {}), ("scale", (5,), None, {"c": 3}),
                 ("scale", (5,), None, {"c": -(1 << 61) - 7}),
                 ("offset", (5,), None, {"c": (1 << 62) - 1}), ("offset", (5,), None, {"c": -9})]
        for name, xs, ys, kwargs in cases:
            ops = [ring(xs)] + ([ring(ys)] if ys else [])
            local = dispatch(name, *ops, **kwargs).tensor()
            remote = dispatch(name, *map(sent, ops), **kwargs).get().tensor()
            assert local.dtype is remote.dtype is Dtype.RING64
            assert local.data.shape == remote.data.shape
            assert local.data.tobytes() == remote.data.tobytes(), name
            assert int(local.data.max()) < tc.RING_MODULUS

    def test_chain_is_one_execute(self, tapped):
        """send, add, scale, neg, get: the three ops cost nothing until get(),
        which sends one by-value eval_expr and leaves no object. A chain of
        3000 ops costs the same one message."""
        fed, tap = tapped
        x = TensorChain.local([1.0, -2.0], fed=fed).send("alice")
        y = TensorChain.local([0.5, 4.0], fed=fed).send("alice")
        start, before = len(tap.events), object_counts(fed)
        out = dispatch("neg", dispatch("scale", dispatch("add", x, y), c=0.5)).get()
        assert [e.op for e in tap.events[start:]] == ["execute"]
        assert object_counts(fed) == before
        assert np.array_equal(out.tensor().data, [-0.75, -1.0])
        deep = x  # deeper than the interpreter's recursion limit
        for _ in range(3000):
            deep = dispatch("offset", deep, c=1.0)
        start = len(tap.events)
        assert np.array_equal(deep.get().tensor().data, [3001.0, 2998.0])
        assert [e.op for e in tap.events[start:]] == ["execute"]

    def test_fixed_precision_share_of_lazy_chain(self, tapped):
        """add then offset then share(): one by-value make_shares that runs
        the expression as its program; the worker keeps only the operands
        and its share."""
        fed, tap = tapped
        a = TensorChain.local([1.5, -2.0], fed=fed).fix_precision().send("alice")
        b = TensorChain.local([2.0, 1.0], fed=fed).fix_precision().send("alice")
        start, before = tap.messages, object_counts(fed)
        shared = dispatch("offset", dispatch("add", a, b), c=0.25).share(PARTIES)
        assert tap.messages == start + 1
        after = object_counts(fed)
        assert {n: after[n] - before[n] for n in fed.names} == {"alice": 1, "bob": 1, "dealer": 0}
        assert np.array_equal(shared.get().float_precision().tensor().data, [3.75, -0.75])

    def test_reused_subexpression_compiled_once(self, tapped):
        """Doubling a pointer 18 times reuses each value twice: the program
        grows by one op and a save/load pair per doubling, not 2^18-fold,
        and get() is still one execute with the right value."""
        fed, tap = tapped
        y = TensorChain.local([1.0, -0.5], fed=fed).send("alice")
        for _ in range(18):
            y = dispatch("add", y, y)
        prog = compile_expr([y.leaf[2]]).kwargs["prog"]
        assert len(prog) == 2 + 3 + 17 * 5
        start = len(tap.events)
        assert np.array_equal(y.get().tensor().data, [2.0**18, -(2.0**17)])
        assert [e.op for e in tap.events[start:]] == ["execute"]

    def test_lazy_result_reads_operands_when_consumed(self, fed):
        a = TensorChain.local([1.0], fed=fed).send("alice")
        b = TensorChain.local([2.0], fed=fed).send("alice")
        total = dispatch("add", a, b)
        a.get()
        with pytest.raises(ObjectNotFound):
            total.get()


class TestFixedPrecision:
    def test_roundtrip_bound(self):
        xs = np.random.default_rng(2).uniform(-100, 100, size=64)
        chain = TensorChain.local(xs).fix_precision()
        back = chain.float_precision()
        assert np.max(np.abs(back.tensor().data - xs)) <= 2.0**-17

    def test_zero(self):
        chain = TensorChain.local([0.0]).fix_precision()
        assert chain.leaf[1].data[0] == 0

    def test_fig3_kind_sequence(self, fed):
        rng = np.random.default_rng(3)
        chain = TensorChain.local([[1.0, -2.0]], fed=fed).fix_precision()
        shared = chain.share(["alice", "bob"], rng)
        assert [n[0] for n in shared.nodes] == ["fixed_precision", "shared"]

    def test_fp_mul_truncates(self):
        a = TensorChain.local([1.5]).fix_precision()
        b = TensorChain.local([2.0]).fix_precision()
        out = dispatch("mul", a, b)
        assert out.kind == "fixed_precision"
        assert abs(out.float_precision().tensor().data[0] - 3.0) <= 2.0**-15

    def test_product_out_of_range_raises(self):
        """A local product whose raw encoding wraps the ring raises instead
        of reading wrong (1e5 * 1e5 read 3.363e8). matmul bounds each output
        element by |A| @ |B|: every product here is 2**28, their sum 2**29."""
        big = TensorChain.local([1e5]).fix_precision()
        with pytest.raises(OverflowRangeError):
            dispatch("mul", big, big)
        with pytest.raises(OverflowRangeError):
            dispatch("scale", big, c=-1e5)
        a = TensorChain.local(np.full((2, 2), 2.0**14)).fix_precision()
        with pytest.raises(OverflowRangeError):
            dispatch("matmul", a, a)
        with pytest.raises(OverflowRangeError):
            dispatch("matmul", a, TensorChain.local([[2.0**14], [-2.0**14]]).fix_precision())

    def test_product_in_range_unchanged(self):
        """Just below 2**29 the product is the plain truncated ring product."""
        x = np.array([[2.0**14, -2.0**14], [3.5, 0.0]])
        y = np.array([[2.0**14 - 1.0, 2.0**14 - 1.0], [1.0, -7.25]])
        fx, fy = (TensorChain.local(v).fix_precision() for v in (x, y))
        ex, ey = (fixedpoint.encode(Tensor(v, Dtype.FLOAT64)) for v in (x, y))
        for name, kernel in (("mul", tc.mul), ("matmul", tc.matmul)):
            got = dispatch(name, fx, fy).leaf[1]
            assert np.array_equal(got.data, fixedpoint.truncate(kernel(ex, ey)).data), name
        got = dispatch("scale", fx, c=2.0**15 - 1.0).float_precision().tensor().data
        assert np.array_equal(got, x * (2.0**15 - 1.0))

    def test_numpy_float_scale_is_a_float(self):
        """A numpy float scales like a Python float, not like int(c)."""
        chain = TensorChain.local([1.5, -3.0]).fix_precision()
        want = dispatch("scale", chain, c=0.5).float_precision().tensor().data
        got = dispatch("scale", chain, c=np.float32(0.5)).float_precision().tensor().data
        assert np.array_equal(got, want)
        assert np.array_equal(got, [0.75, -1.5])

    def test_requires_local_float(self):
        with pytest.raises(KindMismatch):
            TensorChain.local(
                Tensor(np.array([1], dtype=np.uint64), Dtype.RING64)
            ).fix_precision()


class TestSharedChain:
    def test_share_get_roundtrip(self, fed):
        rng = np.random.default_rng(4)
        data = np.array([[1.5, -2.25], [0.5, 3.0]])
        chain = TensorChain.local(data, fed=fed).fix_precision()
        shared = chain.share(["alice", "bob"], rng)
        back = shared.get().float_precision()
        assert np.array_equal(back.tensor().data, data)

    def test_remote_share_leader_blind(self, tapped):
        """Sharing a pointed-to tensor happens on the owning worker: one
        by-value execute whose reply holds only the shape (the leader chose
        the share ids), never a fetch of the secret."""
        fed, tap = tapped
        chain = TensorChain.local([[7.0, 8.0]], fed=fed).fix_precision().send("alice")
        secret_oid = chain.leaf[2][1]
        start = len(tap.events)
        shared = chain.share(PARTIES)
        events = tap.events[start:]
        assert [e.op for e in events] == ["execute"]
        assert all(e.oid != secret_oid for e in events)
        assert events[0].shapes == ((2,),)  # the shape (1, 2) alone
        assert [n[0] for n in shared.nodes] == ["fixed_precision", "shared"]
        assert shared.leaf[1].shape == (1, 2)
        assert fed.worker("alice").core.object_count() == 1  # the secret is consumed
        back = shared.get().float_precision()
        assert np.array_equal(back.tensor().data, [[7.0, 8.0]])

    def test_shared_add(self, tapped):
        fed, tap = tapped
        rng = np.random.default_rng(6)
        a = TensorChain.local([1.0, 2.0], fed=fed).fix_precision().share(PARTIES, rng)
        b = TensorChain.local([3.0, 4.5], fed=fed).fix_precision().share(PARTIES, rng)
        start = tap.messages
        out = dispatch("add", a, b)
        assert tap.messages == start  # lazy: the leaf holds the expressions
        assert [e[0] for e in out.leaf[1].exprs] == ["add", "add"]
        got = out.get().float_precision().tensor().data
        assert np.array_equal(got, [4.0, 6.5])

    def test_get_takes_each_share(self, tapped):
        """Reconstructing a stored shared value is one by-value execute per
        party that takes the party's share, and nothing else."""
        fed, tap = tapped
        rng = np.random.default_rng(8)
        x = TensorChain.local([[1.5, -2.0]], fed=fed).fix_precision().share(PARTIES, rng)
        start, before = len(tap.events), object_counts(fed)
        back = x.get().float_precision()
        assert [(e.op, e.shapes) for e in tap.events[start:]] == [("execute", ((1, 2),))] * 2
        after = object_counts(fed)
        assert {p: after[p] - before[p] for p in PARTIES} == {"alice": -1, "bob": -1}
        assert np.array_equal(back.tensor().data, [[1.5, -2.0]])

    def test_nonlinear_local_op_refused(self, tapped):
        fed, tap = tapped
        x = TensorChain.local([1.0], fed=fed).fix_precision().share(PARTIES,
                                                                    np.random.default_rng(9))
        start = tap.messages
        with pytest.raises(UnknownCommand):
            dispatch("sigmoid_poly", TensorChain(x.nodes[1:], fed))
        assert tap.messages == start

    def test_mul_then_get_frees_everything(self, tapped):
        """Each party ends with only its consumed triple object gone: the
        expanded triple is taken by the combine, the get() reads the lazy
        truncation of the Beaver product, and the scope frees the product.
        The operands, shared before the scope, stay readable."""
        fed, _ = tapped
        rng = np.random.default_rng(7)
        x = TensorChain.local([[1.5, -2.0]], fed=fed).fix_precision().share(PARTIES, rng)
        y = TensorChain.local([[0.5, 4.0]], fed=fed).fix_precision().share(PARTIES, rng)
        pool = spdz.TriplePool(spdz.dealer_generate(fed, "dealer", "elementwise", (1, 2),
                                                    PARTIES, 1))
        before = object_counts(fed)
        with fed.scope():
            z = dispatch("mul", x, y, pool=pool).get().float_precision()
        after = object_counts(fed)
        assert {p: after[p] - before[p] for p in PARTIES} == {"alice": -1, "bob": -1}
        assert np.allclose(z.tensor().data, [[0.75, -8.0]], atol=2.0**-14)
        assert np.array_equal(x.get().float_precision().tensor().data, [[1.5, -2.0]])
        assert np.array_equal(y.get().float_precision().tensor().data, [[0.5, 4.0]])


class TestSharedProducts:
    def shared(self, fed, values, seed):
        return TensorChain.local(values, fed=fed).fix_precision().share(
            PARTIES, np.random.default_rng(seed))

    def test_product_needs_a_pool(self, tapped):
        fed, tap = tapped
        x = self.shared(fed, [[1.5, -2.0]], 1)
        start = tap.messages
        with pytest.raises(ConfigError):
            dispatch("mul", x, x)
        assert tap.messages == start

    def test_triple_taken_by_kind_and_shapes(self, tapped):
        """mul takes an elementwise triple of the operands' shape, matmul a
        matmul triple (m, k, n) from the operands' (m, k) and (k, n)."""
        fed, _ = tapped
        x = self.shared(fed, [[1.5, -2.0]], 2)
        w = self.shared(fed, [[0.5], [0.25]], 3)
        pool = spdz.TriplePool(
            spdz.dealer_generate(fed, "dealer", "elementwise", (1, 2), PARTIES, 1)
            + spdz.dealer_generate(fed, "dealer", "matmul", (1, 2, 1), PARTIES, 1))
        with fed.scope():
            xx = dispatch("mul", x, x, pool=pool).get().float_precision().tensor().data
            xw = dispatch("matmul", x, w, pool=pool).get().float_precision().tensor().data
        assert np.allclose(xx, [[2.25, 4.0]], atol=2.0**-14)
        assert np.allclose(xw, [[0.25]], atol=2.0**-14)
        assert pool.count("elementwise", (1, 2)) == pool.count("matmul", (1, 2, 1)) == 0

    def test_refused_product_keeps_its_triple(self, tapped):
        """A product refused before its first message puts its triple back."""
        fed, tap = tapped
        x = self.shared(fed, [[1.5, -2.0]], 4)
        y = self.shared(fed, [[1.5, -2.0, 3.0]], 5)
        pool = spdz.TriplePool(spdz.dealer_generate(fed, "dealer", "elementwise", (1, 2),
                                                    PARTIES, 1))
        start = tap.messages
        with pytest.raises(ShapeMismatch):
            dispatch("mul", x, y, pool=pool)
        assert tap.messages == start
        assert pool.count("elementwise", (1, 2)) == 1


    def test_three_party_product_refused_before_sending(self):
        """A fixed-precision product over three parties needs a truncation
        that is sound for two only: it is refused before the first message,
        its triple stays in the pool and no party gains an object (at the
        parent it sent 6 messages, took the triple and stored the product
        before trunc_shared refused it)."""
        tap = TransportTap()
        fed, _ = virtual_federation(["a", "b", "c"], seed=0, tap=tap)
        parties = ("a", "b", "c")
        rng = np.random.default_rng(6)
        x = TensorChain.local([[1.5, -2.0]], fed=fed).fix_precision().share(parties, rng)
        y = TensorChain.local([[0.5, 4.0]], fed=fed).fix_precision().share(parties, rng)
        pool = spdz.TriplePool(spdz.dealer_generate(fed, "c", "elementwise", (1, 2),
                                                    parties, 1))
        before, start = object_counts(fed), tap.messages
        with pytest.raises(ConfigError):
            x.dispatch("mul", y, pool=pool)
        assert tap.messages == start
        assert pool.count("elementwise", (1, 2)) == 1
        assert object_counts(fed) == before

    @pytest.mark.parametrize("name,xv,yv,kind,shape", [
        ("mul", [[1.5, -2.25, 3.0], [-0.5, 4.0, -1.0]],
         [[-0.75, 2.0, 1.25], [3.5, -0.25, -2.0]], "elementwise", (2, 3)),
        ("matmul", [[1.5, -2.25, 3.0], [-0.5, 4.0, -1.0]],
         [[0.5, -1.0], [-2.0, 0.25], [1.75, 3.0]], "matmul", (2, 3, 2)),
    ])
    def test_product_truncated_where_it_is_made(self, name, xv, yv, kind, shape):
        """A fixed-precision shared mul or matmul stores, on each party, the
        bits of the raw Beaver product's share truncated by truncate_share
        for the party's role: two federations with the same dealer seed and
        share draws, one through the chain, one through the raw product."""
        stored = []
        for through_chain in (True, False):
            fed, _ = virtual_federation(["alice", "bob", "dealer"], seed=3)
            rng = np.random.default_rng(8)
            x = TensorChain.local(xv, fed=fed).fix_precision().share(PARTIES, rng)
            y = TensorChain.local(yv, fed=fed).fix_precision().share(PARTIES, rng)
            (triple,) = spdz.dealer_generate(fed, "dealer", kind, shape, PARTIES, 1)
            if through_chain:
                sv = x.dispatch(name, y, pool=spdz.TriplePool([triple])).leaf[1]
            else:
                product = spdz.beaver_mul if name == "mul" else spdz.matmul_shared
                sv = product(x.leaf[1], y.leaf[1], triple, fed)
            assert all(e[0] == "ref" for e in sv.exprs)
            stored.append([fed.worker(p).fetch(e[1]) for p, e in zip(sv.parties, sv.exprs)])
        truncated, raw = stored
        for role, (got, share) in enumerate(zip(truncated, raw)):
            want = fixedpoint.truncate_share(share, fixedpoint.FRAC_BITS, role)
            assert got.data.tobytes() == want.data.tobytes()
        decoded = fixedpoint.decode(tc.add(*truncated)).data
        want = np.multiply(xv, yv) if name == "mul" else np.matmul(xv, yv)
        assert np.allclose(decoded, want, atol=2.0**-14)


class TestScope:
    def test_frees_what_the_block_stored(self, tapped):
        """Sends, leader and worker shares and Beaver products stored in the
        block are freed at its end by one delete per party; what the block
        took (a fetched send, a reconstructed share, the expanded triple)
        is not deleted twice, and what was stored before stays."""
        fed, tap = tapped
        rng = np.random.default_rng(11)
        kept = TensorChain.local([[2.0, 1.0]], fed=fed).fix_precision().share(PARTIES, rng)
        pool = spdz.TriplePool(spdz.dealer_generate(fed, "dealer", "elementwise", (1, 2),
                                                    PARTIES, 1))
        before = object_counts(fed)
        with fed.scope():
            x = TensorChain.local([[1.5, -2.0]], fed=fed).fix_precision().share(PARTIES, rng)
            y = TensorChain.local([[0.5, 4.0]], fed=fed).fix_precision().send("alice")
            y = y.share(PARTIES)  # takes the sent tensor
            z = TensorChain.local([[3.0, 3.0]], fed=fed).send("bob")
            assert np.array_equal(z.get().tensor().data, [[3.0, 3.0]])
            TensorChain.local([[1.0, 1.0]], fed=fed).fix_precision().share(
                PARTIES, rng).get()
            product = dispatch("mul", x, dispatch("add", y, kept), pool=pool)
            start = len(tap.events)
        assert [(e.op, e.worker) for e in tap.events[start:]] == [("delete", "alice"),
                                                                  ("delete", "bob")]
        after = object_counts(fed)
        assert {p: after[p] - before[p] for p in PARTIES} == {"alice": -1, "bob": -1}
        with pytest.raises(ObjectNotFound):
            product.get()
        assert np.array_equal(kept.get().float_precision().tensor().data, [[2.0, 1.0]])

    def test_error_in_block_propagates_after_freeing(self, fed):
        before = object_counts(fed)
        with pytest.raises(ValueError, match="the block's own"):
            with fed.scope():
                TensorChain.local([[1.5]], fed=fed).send("alice")
                TensorChain.local([[2.5]], fed=fed).send("bob")
                raise ValueError("the block's own error")
        assert object_counts(fed) == before

    def test_failed_delete(self, fed):
        """A delete that fails raises on a normal exit, once every party has
        been sent its own; under the block's own error it is dropped. The
        objects are deleted on the workers themselves, behind the
        federation's back."""
        before = object_counts(fed)
        with pytest.raises(ObjectNotFound):
            with fed.scope():
                a = TensorChain.local([[1.5]], fed=fed).send("alice")
                TensorChain.local([[2.5]], fed=fed).send("bob")
                fed.worker("alice").core.delete_object(a.leaf[2][1])
        assert object_counts(fed) == before
        with pytest.raises(ValueError):
            with fed.scope():
                b = TensorChain.local([[1.5]], fed=fed).send("bob")
                fed.worker("bob").core.delete_object(b.leaf[2][1])
                raise ValueError
        assert object_counts(fed) == before

    def test_handle_delete_is_forgotten(self, fed):
        """A delete through the federation's handle is forgotten by every
        open scope, as a take is: the scope exits cleanly and frees the
        rest (at the parent, the worker refused the whole cleanup with
        ObjectNotFound and alice kept the second tensor)."""
        before = object_counts(fed)
        with fed.scope():
            with fed.scope():
                first = TensorChain.local([[1.5]], fed=fed).send("alice")
                TensorChain.local([[2.5]], fed=fed).send("alice")
                fed.worker("alice").delete(first.leaf[2][1])
        assert object_counts(fed) == before
        assert before["alice"] == 0

    def test_nested(self, fed):
        """An inner scope frees its own stores on exit; a take inside it of
        the outer scope's object is forgotten by the outer scope too."""
        before = object_counts(fed)
        with fed.scope():
            outer = TensorChain.local([[1.0]], fed=fed).send("alice")
            TensorChain.local([[2.0]], fed=fed).send("alice")
            with fed.scope():
                TensorChain.local([[3.0]], fed=fed).send("alice")
                outer.get()
                assert object_counts(fed)["alice"] == before["alice"] + 2
            assert object_counts(fed)["alice"] == before["alice"] + 1
        assert object_counts(fed) == before


class TestFixedPrecisionPointer:
    def test_send_keeps_prefix(self, fed):
        p = TensorChain.local([1.5], fed=fed).fix_precision().send("alice")
        assert [n[0] for n in p.nodes] == ["fixed_precision", "pointer"]
        back = p.get()
        assert [n[0] for n in back.nodes] == ["fixed_precision", "local"]
        assert back.float_precision().tensor().data[0] == 1.5

    @pytest.mark.parametrize("name,kwargs", [("mul", {}), ("matmul", {}), ("scale", {"c": 0.5}),
                                             ("scale", {"c": np.float32(0.5)})])
    def test_products_rejected_before_sending(self, tapped, name, kwargs):
        fed, tap = tapped
        a = TensorChain.local([[1.5]], fed=fed).fix_precision().send("alice")
        b = TensorChain.local([[2.0]], fed=fed).fix_precision().send("alice")
        operands = (a,) if name == "scale" else (a, b)
        start, before = tap.messages, object_counts(fed)
        with pytest.raises(KindMismatch):
            dispatch(name, *operands, **kwargs)
        assert tap.messages == start
        assert object_counts(fed) == before

    @pytest.mark.parametrize("name,kwargs,want", [
        ("add", {}, [3.5, -1.0]),
        ("sub", {}, [-0.5, -3.0]),
        ("neg", {}, [-1.5, 2.0]),
        ("scale", {"c": 3}, [4.5, -6.0]),
        ("offset", {"c": 0.25}, [1.75, -1.75]),
    ])
    def test_linear_ops(self, fed, name, kwargs, want):
        a = TensorChain.local([1.5, -2.0], fed=fed).fix_precision().send("alice")
        b = TensorChain.local([2.0, 1.0], fed=fed).fix_precision().send("alice")
        operands = (a, b) if name in ("add", "sub") else (a,)
        out = dispatch(name, *operands, **kwargs)
        assert [n[0] for n in out.nodes] == ["fixed_precision", "pointer"]
        assert np.array_equal(out.get().float_precision().tensor().data, want)


def test_readme_library_sketch():
    """The README's two python blocks run as written, in one namespace:
    a shared add and a Beaver multiplication, each reconstructed by get()."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 2
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
    assert out.getvalue().splitlines() == ["[[2. 2.]]", "[[ 0.75 -8.  ]]"]


class TestOpTable:
    def test_rows_are_pinned(self):
        """Programs carry each op's opcode and constant words on the wire,
        so every row's name, opcode, operand count and constant count is
        fixed, in opcode order; ref, save and load are the interpreter's
        own, and every other row has a kernel."""
        rows = sorted((code, name, n_in, n_const, kernel is not None)
                      for name, (code, n_in, n_const, kernel) in OPS.items())
        assert rows == [
            (0, "ref", 0, 1, False), (1, "add", 2, 0, True), (2, "sub", 2, 0, True),
            (3, "neg", 1, 0, True), (4, "scale", 1, 1, True), (5, "offset", 1, 1, True),
            (6, "trunc", 1, 2, True), (7, "mul", 2, 0, True), (8, "matmul", 2, 0, True),
            (9, "sigmoid_poly", 1, 0, True), (10, "fscale", 1, 1, True),
            (11, "foffset", 1, 1, True), (12, "save", 0, 1, False), (13, "load", 0, 1, False),
        ]
