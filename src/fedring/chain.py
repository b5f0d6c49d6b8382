"""The tensor-chain runtime: a head whose behavior comes from a downward
chain of nodes (Local / Pointer / FixedPrecision / Shared), with command
dispatch forwarded node to node and chain rewrites on send/get.

Chains are kept as top-down node lists, on the leader only; the head is
implied. A worker holds plain tensors, so the whole chain above a payload,
and its prefix in particular, stays here. The leaf holds everything the
leader knows about the payload, and nothing is fetched back to learn it:
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

`send` stores the leaf tensor alone and keeps the chain's prefix above the
pointer, so a sent fixed-precision tensor stays fixed precision on the
leader's side and get() restores it. Workers do not truncate, so
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
    """Walk the chain checking the structural invariants."""
    if not nodes:
        raise KindMismatch("empty chain")
    for i, node in enumerate(nodes):
        last = i == len(nodes) - 1
        tag = node[0]
        if tag in ("local", "pointer", "shared"):
            if not last:
                raise KindMismatch(f"{tag} node must terminate the chain")
        elif tag == "fixed_precision":
            if last:
                raise KindMismatch("fixed_precision node needs a child")
        else:
            raise KindMismatch(f"unknown node kind {tag!r}")
        if tag == "shared":
            parties = node[1].parties
            if len(parties) < 2 or len(set(parties)) != len(parties):
                raise KindMismatch("shared node needs >= 2 distinct workers")
    return True


class TensorChain:
    """Head tensor over a node chain, bound to a federation for remote ops."""

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
    def dispatch(self, name: str, *others: "TensorChain", **kwargs) -> "TensorChain":
        return dispatch(name, self, *others, **kwargs)


def dispatch(name: str, head: TensorChain, *others: TensorChain, **kwargs) -> TensorChain:
    """Forward a command down the chain: FixedPrecision applies the
    fixed-point calling convention (truncate after mul/matmul/float scale)
    then forwards; at the leaf, Local calls the op's kernel,
    Pointer builds a lazy expression and Shared runs the SPDZ protocol. The
    name and arity are checked against commands.OPS first. Operands must
    have the same prefix and the same leaf kind; scale and offset take their
    public constant as c."""
    if name not in OPS or name in _NOT_DISPATCHED:
        raise UnknownCommand(name)
    _, arity, consts, kernel = OPS[name]
    if 1 + len(others) != arity:
        raise KindMismatch(f"{name} takes {arity} operand(s), not {1 + len(others)}")
    for other in others:
        if other.nodes[:-1] != head.nodes[:-1] or other.leaf[0] != head.leaf[0]:
            raise KindMismatch(
                f"{[n[0] for n in head.nodes]} vs {[n[0] for n in other.nodes]}: "
                "send/share operands explicitly")
    if head.kind == "fixed_precision":
        return _dispatch_fixed(name, head, others, kwargs)
    chains = (head,) + others
    const = (kwargs["c"],) if consts else ()
    if head.kind == "shared":
        return _dispatch_shared(name, chains, const, kwargs)
    if head.kind == "local":
        return head._with_leaf(("local", kernel(*(c.tensor() for c in chains), *const)))
    worker = head.leaf[1]
    if any(other.leaf[1] != worker for other in others):
        raise KindMismatch("pointer operands live on different workers")
    return head._with_leaf(("pointer", worker, (name,) + tuple(c.leaf[2] for c in chains) + const))


def _dispatch_fixed(name, head, others, kwargs):
    inner = [TensorChain(c.nodes[1:], c.fed) for c in (head,) + others]
    c = kwargs.get("c")
    if name in ("add", "sub", "neg"):
        out = dispatch(name, *inner)
    elif name == "scale" and isinstance(c, (int, np.integer)):
        out = dispatch("scale", *inner, c=int(c))
    elif name == "offset":
        out = dispatch("offset", *inner, c=fixedpoint.encode_scalar(c))
    elif name in ("mul", "matmul", "scale"):
        if head.leaf[0] == "pointer":
            raise KindMismatch(f"fixed-precision {name} on a pointer needs a truncation "
                               "the worker does not run; get() or share() it first")
        if name == "scale":  # public float: encode the constant, multiply, truncate
            c = fixedpoint.encode_scalar(c)
            raw = dispatch("scale", *inner, c=c)
        else:
            raw = dispatch(name, *inner, **kwargs)
        if raw.kind == "local":
            _check_local_product(name, inner, c)
        out = _truncate_chain(raw)
    else:
        raise UnknownCommand(f"{name} under fixed_precision")
    return TensorChain([("fixed_precision",)] + out.nodes, head.fed)


def _check_local_product(name, inner, c):
    """Refuse a local product whose raw encoding wraps the ring. From the
    decoded operands, |x|*|y| bounds it elementwise, |x|*|c| for a float
    scale and |A| @ |B| per matmul output element."""
    operands = [t.tensor() for t in inner]
    if name == "scale":
        operands.append(Tensor(np.array(c, dtype=np.uint64), Dtype.RING64))
    a, b = (np.abs(fixedpoint.decode(t).data) for t in operands)
    if not np.all((a @ b if name == "matmul" else a * b) < fixedpoint.MAX_PRODUCT):
        raise OverflowRangeError(f"fixed-precision {name}: product magnitude >= "
                                 f"2**{61 - 2 * fixedpoint.FRAC_BITS} wraps the ring")


def _truncate_chain(raw: TensorChain) -> TensorChain:
    if raw.kind == "local":
        return TensorChain([("local", fixedpoint.truncate(raw.tensor()))], raw.fed)
    fed = raw._require_fed()
    prod = raw.leaf[1]
    sv = spdz.trunc_shared(prod)
    if prod.is_materialized():
        # a Beaver product nothing else refers to: keep only its truncation
        sv = spdz.materialize(sv, fed)
        spdz.free([prod], fed)
    return TensorChain([("shared", sv)], fed)


def _dispatch_shared(name, chains, const, kwargs):
    fed = chains[0]._require_fed()
    svs = [c.leaf[1] for c in chains]
    if name in ("mul", "matmul"):
        triple = kwargs.get("triple")
        if triple is None:
            raise ConfigError(f"shared {name} needs a Beaver triple")
        fn = spdz.beaver_mul if name == "mul" else spdz.matmul_shared
        out = fn(*svs, triple, fed)
    else:
        out = spdz.linear(name, *svs, *const)
    return TensorChain([("shared", out)], fed)
