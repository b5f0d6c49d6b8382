"""The tensor-chain runtime: a head whose behavior comes from a downward
chain of nodes (Local / Pointer / FixedPrecision / Shared), with command
dispatch forwarded node to node and chain rewrites on send/get.

Chains are kept as top-down node lists, on the leader only; the head is
implied. A chain is one leaf, alone or under one fixed_precision node. A
worker holds plain tensors, so the whole chain above a payload, and its
prefix in particular, stays here. The leaf holds everything the leader
knows about the payload, and nothing is fetched back to learn it:
    ('local', Tensor)            the payload itself;
    ('pointer', worker, expr)    the payload on a worker: expr is
                                 ('ref', oid) for a stored object, or a lazy
                                 expression over the worker's objects;
    ('shared', ShareVector)      parties, per-party share expressions and
                                 shape; linear results stay lazy.
The ops a chain dispatches, their arity and their kernels come from one
table (commands.OPS). A local op calls its row's kernel on the leader, the
kernel the workers' interpreter calls. Pointer and share expressions share
one format and one compiler (commands.compile_expr). Operations on
pointers send nothing: get() evaluates the whole expression with one
by-value eval_expr command and share() with one make_shares command that
carries it as its program, and a shape or dtype error in it surfaces there.
A lazy result reads its operands when it is consumed, not when it is
built, so consuming an operand first (say with its own get()) makes the
later evaluation fail with ObjectNotFound.

A shared mul or matmul is a Beaver multiplication with a triple from the
`pool` dispatch is given, by kind and operand shapes; under fixed precision
its combine truncates it, so the product is plain stored shares, and
only a float scale's truncation stays lazy. A product that needs a
truncation is refused before its first message unless it has two parties.
The product stays stored until a `with fed.scope():` block around it ends,
which frees what it stored.

`send` stores the leaf tensor alone and keeps the chain's prefix above the
pointer, so a sent fixed-precision tensor stays fixed precision on the
leader's side and get() restores it. Workers truncate only shares, so
fixed-precision mul, matmul and float scale on a pointer are rejected with
KindMismatch before anything is sent; get() or share() it first. On local
chains the same products raise OverflowRangeError when their raw encoding
would wrap the ring (|x*y| >= fixedpoint.MAX_PRODUCT).
"""

from __future__ import annotations

import numpy as np

from . import fixedpoint, spdz
from .commands import OPS, compile_expr
from .errors import ConfigError, KindMismatch, OverflowRangeError, UnknownCommand
from .tensor import Dtype, Tensor
from .workers import Federation

# OPS entries a chain does not dispatch: the compilers pick trunc, fscale,
# foffset, save and load, and a ref names an operand
_NOT_DISPATCHED = ("ref", "trunc", "fscale", "foffset", "save", "load")


def validate_chain(nodes):
    """Check the structural invariants: a local, pointer or shared leaf,
    last, under at most one fixed_precision node."""
    kinds = [node[0] for node in nodes]
    if (not kinds or kinds[-1] not in ("local", "pointer", "shared")
            or kinds[:-1] not in ([], ["fixed_precision"])):
        raise KindMismatch(f"{kinds}: a chain is a local, pointer or shared leaf under at "
                           "most one fixed_precision node")
    if kinds[-1] == "shared":
        parties = nodes[-1][1].parties
        if len(parties) < 2 or len(set(parties)) != len(parties):
            raise KindMismatch("shared node needs >= 2 distinct workers")
    return True


class TensorChain:
    """Head tensor over a node chain, bound to a federation for remote ops."""

    __slots__ = ("nodes", "fed")  # no per-chain dict: a pass makes a chain per op

    def __init__(self, nodes, fed: Federation | None = None):
        validate_chain(nodes)
        self.nodes = list(nodes)
        self.fed = fed

    # -- constructors -----------------------------------------------------
    @classmethod
    def local(cls, values, dtype: Dtype = Dtype.FLOAT64, fed=None):
        t = values if isinstance(values, Tensor) else Tensor(np.asarray(values), dtype)
        return cls([("local", t)], fed)

    # -- inspection --------------------------------------------------------
    @property
    def kind(self) -> str:
        return self.nodes[0][0]

    @property
    def leaf(self):
        return self.nodes[-1]

    def tensor(self) -> Tensor:
        if self.leaf[0] != "local":
            raise KindMismatch(f"chain leaf is {self.leaf[0]}, not local")
        return self.leaf[1]

    def _require_fed(self) -> Federation:
        if self.fed is None:
            raise ConfigError("chain is not bound to a federation")
        return self.fed

    def _with_leaf(self, leaf) -> "TensorChain":
        return TensorChain(self.nodes[:-1] + [leaf], self.fed)

    # -- send / get ----------------------------------------------------------
    def send(self, target: str) -> "TensorChain":
        """Store the leaf tensor on the target worker; locally the leaf
        becomes a Pointer under the same prefix and the payload is released."""
        if self.leaf[0] != "local":
            raise KindMismatch(f"cannot send a {self.leaf[0]} chain")
        fed = self._require_fed()
        oid = fed.allocate_id()
        fed.worker(target).store(oid, self.tensor())
        fed.record(target, stored=(oid,))
        return self._with_leaf(("pointer", target, ("ref", oid)))

    def get(self) -> "TensorChain":
        """Fetch (and remotely delete) a stored payload, evaluate a lazy one
        by value (one message, nothing stored), or reconstruct (and delete)
        a shared one."""
        fed = self._require_fed()
        if self.leaf[0] == "pointer":
            _, worker, expr = self.leaf
            if expr[0] != "ref":
                value = fed.worker(worker).execute(compile_expr([expr]))
            else:
                value = fed.worker(worker).fetch(expr[1], delete=True)
                fed.record(worker, taken=(expr[1],))
            return self._with_leaf(("local", value))
        if self.leaf[0] == "shared":
            return self._with_leaf(("local", spdz.reconstruct(self.leaf[1], fed, delete=True)))
        raise KindMismatch(f"cannot get a {self.leaf[0]} chain")

    # -- fixed precision -------------------------------------------------------
    def fix_precision(self) -> "TensorChain":
        if self.kind != "local" or self.tensor().dtype is not Dtype.FLOAT64:
            raise KindMismatch("fix_precision needs a Local Float64 chain")
        encoded = fixedpoint.encode(self.tensor())
        return TensorChain([("fixed_precision",), ("local", encoded)], self.fed)

    def float_precision(self) -> "TensorChain":
        if self.kind != "fixed_precision" or self.leaf[0] != "local":
            raise KindMismatch("float_precision needs FixedPrecision over Local")
        return TensorChain([("local", fixedpoint.decode(self.leaf[1]))], self.fed)

    # -- sharing -----------------------------------------------------------
    def share(self, parties, rng: np.random.Generator | None = None) -> "TensorChain":
        """Split into additive shares. Local chains are split by the leader;
        a pointed-to payload is split on its worker by one command, which
        consumes a stored payload and evaluates a lazy one, and only the
        shape returns to the leader, which chose the share ids."""
        fed = self._require_fed()
        if self.leaf[0] == "pointer":
            sv = spdz.share_remote(self.leaf[1], self.leaf[2], parties, fed)
            return self._with_leaf(("shared", sv))
        if self.leaf[0] != "local":
            raise KindMismatch(f"cannot share a {self.leaf[0]} chain")
        if self.tensor().dtype is not Dtype.RING64:
            raise KindMismatch("share needs a Ring64 leaf; call fix_precision first")
        if rng is None:
            raise ConfigError("leader-side sharing needs an rng")
        return self._with_leaf(("shared", spdz.share(self.tensor(), parties, fed, rng)))

    # -- dispatch ------------------------------------------------------------
    def dispatch(self, name: str, *others: "TensorChain", c=None,
                 pool: spdz.TriplePool | None = None) -> "TensorChain":
        """Run a command on this chain and others: under FixedPrecision with
        the fixed-point calling convention (encode a float constant,
        truncate after mul, matmul and a float scale), then at the leaf,
        where Local calls the op's kernel, Pointer builds a lazy expression
        and Shared runs the SPDZ protocol. Operands must have the same prefix
        and leaf kind; scale and offset take their public constant as c, and
        a shared mul or matmul takes its Beaver triple from pool."""
        row = OPS.get(name)
        if row is None or name in _NOT_DISPATCHED:
            raise UnknownCommand(name)
        if 1 + len(others) != row[1]:
            raise KindMismatch(f"{name} takes {row[1]} operand(s), not {1 + len(others)}")
        nodes = self.nodes
        leaf = nodes[-1]
        kind = leaf[0]
        values = [leaf[-1]]  # each leaf's tensor, pointer expression or share vector
        for other in others:  # a valid prefix is [] or [fixed_precision]: its length tells
            if len(other.nodes) != len(nodes) or other.nodes[-1][0] != kind:
                raise KindMismatch(
                    f"{[n[0] for n in nodes]} vs {[n[0] for n in other.nodes]}: "
                    "send/share operands explicitly")
            if kind == "pointer" and other.nodes[-1][1] != leaf[1]:
                raise KindMismatch("pointer operands live on different workers")
            values.append(other.nodes[-1][-1])
        const = (c,) if row[2] else ()
        truncate = False
        if len(nodes) == 2:  # fixed precision
            if name not in ("add", "sub", "neg", "scale", "offset", "mul", "matmul"):
                raise UnknownCommand(f"{name} under fixed_precision")
            int_scale = name == "scale" and isinstance(c, (int, np.integer))
            if const:  # a float scale is a product with the encoded constant
                const = (int(c),) if int_scale else (fixedpoint.encode_scalar(c),)
            truncate = name in ("mul", "matmul") or name == "scale" and not int_scale
            if truncate and kind == "pointer":
                raise KindMismatch(f"fixed-precision {name} on a pointer needs a truncation "
                                   "the worker does not run; get() or share() it first")
            if truncate and kind == "local":
                _check_local_product(name, values, const)
        # a shared product is truncated by its Beaver combine, a float scale
        # of shares lazily, and a local product here
        shift = fixedpoint.FRAC_BITS if truncate and kind == "shared" and name != "scale" else 0
        out = _leaf_op(name, leaf, values, const, pool, self.fed, shift)
        if truncate and not shift:
            out = (kind, (fixedpoint.truncate if kind == "local" else spdz.trunc_shared)(out[1]))
        chain = object.__new__(TensorChain)  # valid already: the prefix over a leaf of its kind
        chain.nodes = [nodes[0], out] if len(nodes) == 2 else [out]
        chain.fed = self.fed
        return chain


def dispatch(name: str, head: TensorChain, *others: TensorChain, c=None,
             pool: spdz.TriplePool | None = None) -> TensorChain:
    """head.dispatch(name, *others, c=c, pool=pool)."""
    return head.dispatch(name, *others, c=c, pool=pool)


def _leaf_op(name, leaf, values, const, pool, fed, trunc):
    """name on the leaves' values, as a leaf of the head leaf's kind; a
    shared product is truncated by 2**trunc as its combine stores it."""
    if leaf[0] == "local":
        return ("local", OPS[name][3](*values, *const))
    if leaf[0] == "pointer":
        return ("pointer", leaf[1], (name, *values, *const))
    if name not in ("mul", "matmul"):
        return ("shared", spdz.linear(name, *values, *const))
    if pool is None or fed is None:
        raise ConfigError(f"shared {name} needs a triple pool and a federation")
    xs, ys = values
    if name == "mul":
        triple, fn = pool.take("elementwise", xs.shape), spdz.beaver_mul
    else:
        triple, fn = pool.take("matmul", xs.shape + ys.shape[1:]), spdz.matmul_shared
    try:
        return ("shared", fn(xs, ys, triple, fed, trunc))
    except BaseException:
        if not triple.consumed:  # refused before its first message: the triple is unused
            pool.put(triple)
        raise


def _check_local_product(name, values, const):
    """Refuse a local product whose raw encoding wraps the ring. From the
    decoded operands, |x|*|y| bounds it elementwise, |x|*|c| for a float
    scale and |A| @ |B| per matmul output element."""
    operands = list(values)
    if const:
        operands.append(Tensor(np.array(const[0], dtype=np.uint64), Dtype.RING64))
    a, b = (np.abs(fixedpoint.decode(t).data) for t in operands)
    if not np.all((a @ b if name == "matmul" else a * b) < fixedpoint.MAX_PRODUCT):
        raise OverflowRangeError(f"fixed-precision {name}: product magnitude >= "
                                 f"2**{61 - 2 * fixedpoint.FRAC_BITS} wraps the ring")
