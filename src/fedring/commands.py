"""Command registry executed on workers, and the expression compiler.

Every command receives resolved tensors and returns one tensor; the worker
stores it under the id the leader named, or, for a by-value execute,
replies with it and stores nothing. A command that also stores objects
elsewhere (shares, triples, an expanded triple) returns its result and its
pushes, `[(peer, id, tensor), ...]`, and the worker pushes them all or
none (`WorkerCore.execute`); `store_parts` stores the parts of one inline
tensor on its own worker that way. `OPS` is the one table of ops: each row's
kernel is the one implementation of its op, called directly by the
leader's local chains and through `_run_prog`, the postfix interpreter, on
the workers. `compile_expr` turns expression trees over pointers and shares
into a program: one `eval_expr` command, or the operand program that
`beaver_open` and `make_shares` carry. A subexpression reached twice is
computed once: the program `save`s it in a slot the first time and `load`s
it after. A ring value is reduced mod Q once, where a command stores or
replies with it or a trunc reads it, not after every op (tensor).
`beaver_combine` truncates the product it makes when given a shift, so a
fixed-point product needs no trunc op afterwards. Commands never see other
workers' secrets: share and triple generation push shares directly to the
peer workers, under ids the leader sent, and hand back nothing secret.

Beaver triples are seed-compressed. For each triple the dealer draws one
seed of SEED_WORDS ring words per party from its worker RNG. Each party
stores one Ring64 object: party i < n-1 its seed, from which it expands its
shares a_i, b_i and c_i; the last party its seed followed by
c_{n-1} = ab - sum of the other c_i, expanding only a_{n-1} and b_{n-1}.
`TriplePRG.expand` is the one expansion, called by the dealer and the
parties alike: the seed sets the state of numpy's PCG64, the generator
family that draws every other share here, and its raw output is read in the
order a, b, c. No cryptographic PRG is claimed.
"""

from __future__ import annotations

import itertools
import math
import struct
import threading

import numpy as np

from . import nn
from . import tensor as tc
from .dp import sanitize_lot
from .errors import (
    ConfigError,
    DtypeMismatch,
    DuplicateObject,
    EmptyLot,
    MalformedPayload,
    OverflowRangeError,
    ShapeMismatch,
    UnknownCommand,
)
from .fixedpoint import shift_share
from .protocol import MAX_PAYLOAD, Command
from .protocol import serialize_chain  # noqa: F401  (perfbench/spans.py wraps this name)
from .tensor import Dtype, Tensor, reduced

REGISTRY: dict = {}


def register(name):
    def deco(fn):
        # the constant second field keeps the 2-tuples perfbench/spans.py
        # unpacks (ROADMAP item 3(c))
        REGISTRY[name] = (fn, False)
        return fn

    return deco


def lookup(name: str):
    if name not in REGISTRY:
        raise UnknownCommand(name)
    return REGISTRY[name][0]


def _want_tensor(v, i):
    if not isinstance(v, Tensor):
        raise ShapeMismatch(f"argument {i} must be a tensor object id")
    return v


def _float_bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(v: int) -> float:
    return struct.unpack("<d", struct.pack("<q", v))[0]


def _check_shift(command: str, p) -> int:
    """A truncation shift word: a shift by the ring's 62 bits or more keeps
    nothing."""
    if not 0 <= p < 62:
        raise MalformedPayload(f"{command} trunc shift {p} is outside [0, 62)")
    return p


def _trunc(a: Tensor, p: int, role: int, reduce: bool = True) -> Tensor:
    """truncate_share as a program op: the shift reads the residue's bits,
    so a ring intermediate is reduced first."""
    _check_shift("eval_expr", p)
    if role not in (0, 1):  # local share truncation is sound for two parties
        raise MalformedPayload(f"eval_expr trunc role {role} is not 0 or 1")
    return Tensor._own(shift_share(reduced(a).data, p, role), Dtype.RING64, reduce)


# The op table: name -> (opcode, operands, constants, kernel). A program is
# postfix: each op pops its operands, reads its integer constants from the
# words after its opcode and pushes kernel(*operands, *constants). In a
# program, scale and offset take an integer constant; fscale and foffset the
# IEEE-754 bit pattern of a float constant, read as an int64; trunc a shift
# and a party role. ref i (push leaf i), save s (keep the top value in slot
# s; pops nothing) and load s (push it) have no kernel: the interpreter runs
# them itself. Every kernel takes `reduce`: the interpreter passes False, so
# a ring value is reduced once, by the command that keeps it. Opcodes
# are row numbers: new ops go at the end, so existing programs keep their
# bytes.
OPS = {name: (code, *row) for code, (name, *row) in enumerate([
    ("ref", 0, 1, None),
    ("add", 2, 0, tc.add),
    ("sub", 2, 0, tc.sub),
    ("neg", 1, 0, tc.neg),
    ("scale", 1, 1, tc.scale),
    ("offset", 1, 1, tc.offset),
    ("trunc", 1, 2, _trunc),
    ("mul", 2, 0, tc.mul),
    ("matmul", 2, 0, tc.matmul),
    ("sigmoid_poly", 1, 0, tc.sigmoid_poly),
    ("fscale", 1, 1, lambda a, f, reduce=True: tc.scale(a, _bits_float(f), reduce)),
    ("foffset", 1, 1, lambda a, f, reduce=True: tc.offset(a, _bits_float(f), reduce)),
    ("save", 0, 1, None),
    ("load", 0, 1, None),
])}
_REF, _SAVE, _LOAD = (OPS[name][0] for name in ("ref", "save", "load"))
_BY_CODE = list(OPS.values())
_CODES = {name: row[0] for name, row in OPS.items()}
_FLOAT_CODES = {"scale": OPS["fscale"][0], "offset": OPS["foffset"][0]}


def compile_expr(exprs) -> Command:
    """Expression trees over stored objects as one eval_expr command: each
    distinct leaf object becomes one argument, the trees one postfix program
    whose values are left on the stack in order (compile_prog)."""
    args, prog = compile_prog(exprs)
    return Command("eval_expr", args, {"prog": prog})


def compile_prog(exprs) -> tuple:
    """(args, prog): one ('obj', oid) argument per distinct leaf object, and
    one postfix program over them that leaves the trees' values in order.
    The walk keeps its own stack, so a tree may be deeper than Python's
    recursion limit. A subtree object reached again is loaded from the slot
    its first evaluation saved to, so a DAG compiles to a program linear in
    its distinct nodes.

    A tree is ('ref', oid) | ('add'|'sub'|'mul'|'matmul', a, b)
    | ('neg'|'sigmoid_poly', a) | ('scale'|'offset', a, c)
    | ('trunc', a, frac_bits, role). An integer c is a ring constant; any
    other c is a float and compiles to fscale or foffset."""
    leaves: dict = {}
    codes: dict = {}  # id of each op tree compiled so far -> its opcode list
    slots: dict = {}  # id of each tree reached twice -> its save slot
    chunks: list = []
    todo = list(exprs)  # trees, and opcode lists that follow their subtrees
    todo.reverse()
    pop, push, emit = todo.pop, todo.append, chunks.append
    while todo:
        expr = pop()
        if type(expr) is list:
            emit(expr)
            continue
        op = expr[0]
        if op == "ref":
            emit((_REF, leaves.setdefault(expr[1], len(leaves))))
            continue
        key = id(expr)
        code = codes.get(key)
        if code is not None:
            if key not in slots:
                slots[key] = len(slots)
                code += (_SAVE, slots[key])
            emit((_LOAD, slots[key]))
            continue
        if op not in _CODES:
            raise ConfigError(f"unknown expression {op!r}")
        code = codes[key] = [_CODES[op]]
        push(code)
        for v in expr[:0:-1]:  # operands pushed last to first, constants in order
            if type(v) is tuple:
                push(v)
            elif op in _FLOAT_CODES and not isinstance(v, (int, np.integer)):
                code[:] = (_FLOAT_CODES[op], _float_bits(float(v)))
            else:
                code.insert(1, int(v))
    return tuple([("obj", oid) for oid in leaves]), list(itertools.chain.from_iterable(chunks))


def identity(arg) -> Command:
    """The one-argument program that returns its argument: over an inline
    tensor with a destination it is a store, over ('obj', oid) or
    ('take', oid) by value it is a fetch."""
    return Command("eval_expr", (arg,), {"prog": [_REF, 0]})


def _run_prog(args, prog) -> list:
    """The values a postfix program over the leaf tensors in args leaves on
    the stack, in order. The kernels run with reduce=False, so a ring value
    an op computed is left unreduced: the caller reduces what it stores or
    replies with, once."""
    stack = []
    saved = {}
    pos = 0
    size, n_ops, n_args = len(prog), len(_BY_CODE), len(args)
    try:
        while pos < size:
            op = prog[pos]
            if not 0 <= op < n_ops:
                raise MalformedPayload(f"unknown eval_expr opcode {op}")
            _, n_in, n_const, kernel = _BY_CODE[op]
            end = pos + 1 + n_const
            if end > size or len(stack) < n_in:
                raise MalformedPayload(f"eval_expr program is malformed at {pos}: "
                                       f"opcode {op} lacks a word or an operand")
            if kernel is not None:
                consts = prog[pos + 1:end] if n_const else ()
                if n_in == 1:
                    stack[-1] = kernel(stack[-1], *consts, reduce=False)
                else:
                    cut = len(stack) - n_in
                    stack[cut:] = [kernel(*stack[cut:], *consts, reduce=False)]
            elif op == _REF:
                i = prog[pos + 1]
                if not 0 <= i < n_args:
                    raise MalformedPayload(f"eval_expr ref {i} names no leaf")
                stack.append(_want_tensor(args[i], i))
            elif op == _SAVE:
                saved[prog[pos + 1]] = stack[-1]
            else:
                stack.append(saved[prog[pos + 1]])
            pos = end
    except (IndexError, KeyError, TypeError, ValueError, OverflowError, struct.error) as e:
        # an ill-typed program: a save with an empty stack, a missing slot, a
        # non-integer word, a float constant that is no int64 pattern
        raise MalformedPayload(f"eval_expr program is malformed at {pos}: {e}") from None
    return stack


@register("eval_expr")
def _eval_expr(ctx, args, kwargs):
    """Evaluate a postfix program (compile_expr) over the leaf tensors in
    args. One value left on the stack is the result; several are flattened
    and concatenated in stack order."""
    stack = _run_prog(args, kwargs["prog"])
    if not stack:
        raise MalformedPayload("eval_expr program leaves no value")
    if len(stack) == 1:
        return reduced(stack[0])
    return Tensor._own(np.concatenate([t.data.ravel() for t in stack]), Dtype.RING64)


def _share_targets(ctx, kwargs, per_party: int = 1):
    """The peers of the parties named in kwargs and the leader's ids, which
    must be distinct and number `per_party` for each party; a party that is
    not a peer raises here, before anything is pushed."""
    names = [p for p in str(kwargs["parties"]).split(",") if p]
    if len(names) < 2:
        raise ConfigError("need at least 2 parties")
    peers = [ctx.peer(p) for p in names]
    ids = [int(v) for v in kwargs["ids"]]
    if len(ids) != per_party * len(peers) or len(set(ids)) != len(ids):
        raise ConfigError(f"need {per_party * len(peers)} distinct object ids, "
                          f"got {len(set(ids))} of {len(ids)}")
    return peers, ids


@register("make_shares")
def _make_shares(ctx, args, kwargs):
    """Split the one Ring64 value that a program (compile_expr) over the
    leaf tensors in args leaves into additive shares, one per party under
    the leader's `ids`, to push; returns the value's shape, the only
    metadata the leader needs. Pass a stored secret as a take argument so
    it does not outlive its shares."""
    peers, ids = _share_targets(ctx, kwargs)
    stack = _run_prog(args, kwargs["prog"])  # split_shares reduces the shares it makes
    if len(stack) != 1:
        raise MalformedPayload(f"make_shares shares one value, not {len(stack)}")
    (x,) = stack
    if x.dtype is not Dtype.RING64:
        raise ShapeMismatch("make_shares expects a Ring64 tensor (fix precision first)")
    shares = tc.split_shares(ctx.rng, x.data, len(peers))
    return (Tensor(np.array(x.shape, dtype=np.uint64), Dtype.RING64),
            [(peer, oid, Tensor._own(s, Dtype.RING64)) for peer, oid, s in zip(peers, ids, shares)])


@register("store_parts")
def _store_parts(ctx, args, kwargs):
    """Store the consecutive parts of one Ring64 tensor (a party's share of
    several secrets at once) under the leader's `ids`, part i of rank
    ranks[i] taking its shape from the next ranks[i] words of `dims`; the
    parts land all or none. Returns an empty tensor."""
    if len(args) != 1:
        raise MalformedPayload(f"store_parts takes 1 argument, not {len(args)}")
    x = _want_tensor(args[0], 0)
    if x.dtype is not Dtype.RING64:
        raise DtypeMismatch("store_parts expects a Ring64 tensor")
    ids = [int(v) for v in kwargs["ids"]]
    ranks = [int(v) for v in kwargs["ranks"]]
    dims = [int(v) for v in kwargs["dims"]]
    if len(ids) != len(ranks):
        raise MalformedPayload(f"{len(ids)} ids for {len(ranks)} parts")
    if min(ranks, default=0) < 0 or sum(ranks) != len(dims):
        raise MalformedPayload(f"ranks {ranks} do not cover {len(dims)} dims")
    if len(set(ids)) != len(ids):
        raise DuplicateObject(f"object ids {ids} repeat")
    ends = list(itertools.accumulate(ranks))
    parts = x.parts([dims[end - rank:end] for rank, end in zip(ranks, ends)])
    return (Tensor._own(np.zeros(0, dtype=np.uint64), Dtype.RING64),
            [(ctx, oid, part) for oid, part in zip(ids, parts)])


# -- Beaver triples (format in the module docstring) -------------------------

SEED_WORDS = 4


class TriplePRG:
    """A worker's one reusable PCG64 for triple expansion. A seed's four
    ring words set its 128-bit state and increment (two words each), which
    is cheaper than seeding a new generator per triple; the lock keeps a
    socket worker's connection threads from interleaving a set and a
    draw. The generator is built on first use, so a worker that never
    expands a triple does not pay for it."""

    def __init__(self):
        self._bitgen = None
        self._lock = threading.Lock()

    def expand(self, seed, count: int) -> np.ndarray:
        """The first `count` ring elements of the stream `seed` selects."""
        w0, w1, w2, w3 = seed.tolist()
        state = {"bit_generator": "PCG64",
                 "state": {"state": w0 << 62 | w1, "inc": w2 << 62 | w3 | 1},
                 "has_uint32": 0, "uinteger": 0}
        with self._lock:
            if self._bitgen is None:
                self._bitgen = np.random.PCG64(0)
            self._bitgen.state = state
            raw = self._bitgen.random_raw(count)
        return np.bitwise_and(raw, tc.RING_MASK, out=raw)


def triple_shapes(kind: str, shape) -> tuple:
    """Shapes of a, b and c: elementwise triples over `shape`, matmul
    triples for shape (m, k, n)."""
    shape = tuple(map(int, shape))
    if kind == "elementwise":
        return shape, shape, shape
    if kind == "matmul":
        if len(shape) != 3:
            raise ConfigError("matmul triples need shape (m, k, n)")
        m, k, n = shape
        return (m, k), (k, n), (m, n)
    raise ConfigError(f"unknown triple kind {kind!r}")


def _product(kind: str):
    return np.matmul if kind == "matmul" else np.multiply


@register("gen_triples")
def _gen_triples(ctx, args, kwargs):
    """Dealer preprocessing: make `count` seed-compressed triples, one
    object per triple for each party to push, triple t's object for party i
    under the leader's ids[t * n_parties + i]. A triple must fit in one
    frame. Returns an empty tensor."""
    kind = str(kwargs["kind"])
    sa, sb, sc = triple_shapes(kind, kwargs["shape"])
    count = int(kwargs["count"])
    if count < 1:
        raise ConfigError("count must be >= 1")
    peers, ids = _share_targets(ctx, kwargs, count)
    na, nb, nc = math.prod(sa), math.prod(sb), math.prod(sc)
    if min(sa + sb, default=0) < 0 or 8 * (na + nb + nc) > MAX_PAYLOAD:
        raise ConfigError(f"no frame fits the {kind} triple of shapes {sa}, {sb}, {sc}")
    n = len(peers)
    seeds = tc.random_ring(ctx.rng, (count, n, SEED_WORDS))
    pushes = []
    for t in range(count):
        a = np.zeros(na, dtype=np.uint64)
        b = np.zeros(nb, dtype=np.uint64)
        c = np.zeros(nc, dtype=np.uint64)
        for i in range(n):
            last = i == n - 1
            abc = ctx.triple_prg.expand(seeds[t, i], na + nb + (0 if last else nc))
            a += abc[:na]
            b += abc[na:na + nb]
            if not last:
                c -= abc[na + nb:]
        c += _product(kind)(a.reshape(sa), b.reshape(sb)).ravel()
        for i, peer in enumerate(peers):
            obj = seeds[t, i].copy() if i < n - 1 else np.concatenate((seeds[t, i], c))
            pushes.append((peer, ids[t * n + i], Tensor._own(obj, Dtype.RING64)))
    return Tensor._own(np.zeros(0, dtype=np.uint64), Dtype.RING64), pushes


def _expand_triple(ctx, obj: Tensor, sizes) -> np.ndarray:
    """A party's a_i || b_i || c_i, flat, from its stored triple object."""
    na, nb, nc = sizes
    words = obj.data
    if words.shape == (SEED_WORDS,):
        return ctx.triple_prg.expand(words, na + nb + nc)
    if words.shape == (SEED_WORDS + nc,):
        return np.concatenate((ctx.triple_prg.expand(words[:SEED_WORDS], na + nb),
                               words[SEED_WORDS:]))
    raise ShapeMismatch(f"triple object of shape {words.shape} does not fit "
                        f"{nc} product elements")


@register("beaver_open")
def _beaver_open(ctx, args, kwargs):
    """A party's part of a Beaver open round. The last argument is its
    triple object (pass it as a take argument); the others are the leaves of
    a program that leaves the party's shares x_i and y_i. Expands the triple
    once, keeps a_i || b_i || c_i under the leader's id `keep` for
    beaver_combine to take, and returns x_i - a_i || y_i - b_i. The
    expansion is residues already, so it is kept as it is, frozen."""
    if not args:
        raise MalformedPayload("beaver_open takes its triple object as its last argument")
    shapes = triple_shapes(str(kwargs["kind"]), kwargs["shape"])
    sizes = [math.prod(s) for s in shapes]
    stack = _run_prog(args[:-1], kwargs["prog"])  # the masked reply is reduced once
    if [t.shape for t in stack] != list(shapes[:2]):
        raise ShapeMismatch(f"operands {[t.shape for t in stack]} vs triple {shapes[:2]}")
    abc = _expand_triple(ctx, _want_tensor(args[-1], len(args) - 1), sizes)
    na, nb = sizes[:2]
    masked = np.empty(na + nb, dtype=np.uint64)
    np.subtract(stack[0].data.ravel(), abc[:na], out=masked[:na])
    np.subtract(stack[1].data.ravel(), abc[na:na + nb], out=masked[na:])
    abc.setflags(write=False)
    return (Tensor._own(masked, Dtype.RING64),
            [(ctx, int(kwargs["keep"]), Tensor._wrap(abc, Dtype.RING64))])


@register("beaver_combine")
def _beaver_combine(ctx, args, kwargs):
    """One party's share of the Beaver product, c + eps*b + a*delta, plus
    eps*delta on the lead party, from its expanded triple (a take argument:
    the object beaver_open kept) and the opened eps = x - a and
    delta = y - b, passed inline. The lead party computes
    c + eps*(b + delta) + a*delta, two ring products with the same result
    mod Q. A nonzero shift word `trunc` truncates the fresh share in place
    before it is stored, as truncate_share does: the lead party is role 0,
    any other role 1, so with two parties the product is a fixed-point
    product already."""
    if len(args) != 3:
        raise MalformedPayload(f"beaver_combine takes 3 arguments, not {len(args)}")
    shift = _check_shift("beaver_combine", int(kwargs.get("trunc", 0)))
    abc, eps, delta = [_want_tensor(v, i).data for i, v in enumerate(args)]
    kind = str(kwargs["kind"])
    sa, sb, sc = triple_shapes(kind, kwargs["shape"])
    na, nb, nc = math.prod(sa), math.prod(sb), math.prod(sc)
    if abc.shape != (na + nb + nc,) or eps.shape != sa or delta.shape != sb:
        raise ShapeMismatch(f"triple {abc.shape}, eps {eps.shape}, delta {delta.shape} "
                            f"do not fit a {kind} triple {sa}x{sb}")
    a = abc[:na].reshape(sa)
    b = abc[na:na + nb].reshape(sb)
    lead = kwargs.get("lead", 0)
    if lead:
        b = b + delta
    product = _product(kind)
    z = product(eps, b)
    z += product(a, delta)
    z += abc[na + nb:].reshape(sc)
    if shift:
        z = np.asarray(z)  # a 0-d product is a numpy scalar
        np.bitwise_and(z, tc.RING_MASK, z)
        shift_share(z, shift, 0 if lead else 1, z)
    return Tensor._own(z, Dtype.RING64)


def _batch_args(name, args, kwargs):
    """(params, X, y, dims, task): X of dims[0] columns, y one per row."""
    if len(args) != 3:
        raise MalformedPayload(f"{name} takes 3 arguments, not {len(args)}")
    params, X, y = (_want_tensor(v, i).data for i, v in enumerate(args))
    dims = tuple(int(d) for d in kwargs["dims"])
    if len(dims) != 3 or dims[1] < 1 or dims[2] != 1:
        raise MalformedPayload(f"dims {dims} must be (input, hidden >= 1, 1)")
    if X.ndim != 2 or X.shape[1] != dims[0] or y.shape != X.shape[:1]:
        raise ShapeMismatch(f"partition X {X.shape}, y {y.shape} does not fit dims {dims}")
    if not np.isfinite(params).all():
        raise OverflowRangeError(f"{name} parameters are not all finite")
    return params, X, y, dims, str(kwargs["task"])


def _finite(name, out: np.ndarray) -> Tensor:
    """A training command's reply, refused if any of it overflowed."""
    if not np.isfinite(out).all():
        raise OverflowRangeError(f"{name} result is not finite")
    return Tensor._own(out, Dtype.FLOAT64)


@register("fb_batch")
def _fb_batch(ctx, args, kwargs):
    """Forward/backward over the given row indices of the resident
    partition; returns [loss, batch gradient...]."""
    params, X, y, dims, task = _batch_args("fb_batch", args, kwargs)
    rows = [int(i) for i in kwargs["indices"]]
    if not rows or min(rows) < 0 or max(rows) >= len(X):
        raise MalformedPayload(f"batch indices must be a nonempty list in [0, {len(X)})")
    idx = np.array(rows, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        loss, grad = nn.forward_backward(params, dims, task, X[idx], y[idx])
    return _finite("fb_batch", np.concatenate([[loss], grad]))


@register("dp_phase")
def _dp_phase(ctx, args, kwargs):
    """One DP phase: sample a lot locally, compute per-example gradients,
    clip, sum and add Gaussian noise. Only the sanitized sum leaves the
    worker: no statistic computed before the noise does."""
    params, X, y, dims, task = _batch_args("dp_phase", args, kwargs)
    lot_size = int(kwargs["lot_size"])
    clip_norm = float(kwargs["clip_norm"])
    sigma = float(kwargs["sigma"])
    if lot_size < 1:
        raise EmptyLot("lot_size must be >= 1")
    if lot_size > X.shape[0]:
        raise ConfigError(f"lot {lot_size} exceeds partition size {X.shape[0]}")
    idx = ctx.rng.choice(X.shape[0], size=lot_size, replace=False)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        _, G = nn.forward_backward(params, dims, task, X[idx], y[idx], per_example=True)
        noised = sanitize_lot(G, clip_norm, sigma, ctx.rng)
    return _finite("dp_phase", noised)
