"""Command registry executed on workers.

Every command receives resolved tensors / literal scalars and returns one
tensor; the worker stores it under a fresh id. Commands never see other
workers' secrets: share and triple generation push shares directly to the
peer workers and hand back only object ids.
"""

from __future__ import annotations

import numpy as np

from . import nn
from . import tensor as tc
from .dp import sanitize_lot
from .errors import ConfigError, EmptyLot, MalformedPayload, ShapeMismatch, UnknownCommand
from .fixedpoint import Q, truncate_share
from .protocol import serialize_chain  # noqa: F401  (perfbench/spans.py wraps this name)
from .tensor import Dtype, Tensor

REGISTRY: dict = {}


def register(name, preserve_prefix=True):
    def deco(fn):
        REGISTRY[name] = (fn, preserve_prefix)
        return fn

    return deco


def lookup(name: str):
    if name not in REGISTRY:
        raise UnknownCommand(name)
    return REGISTRY[name]


def _want_tensor(v, i):
    if not isinstance(v, Tensor):
        raise ShapeMismatch(f"argument {i} must be a tensor object id")
    return v


def _want_scalar(v, i):
    if isinstance(v, Tensor):
        raise ShapeMismatch(f"argument {i} must be a literal scalar")
    return v


@register("add")
def _add(ctx, args, kwargs):
    return tc.add(_want_tensor(args[0], 0), _want_tensor(args[1], 1))


@register("sub")
def _sub(ctx, args, kwargs):
    return tc.sub(_want_tensor(args[0], 0), _want_tensor(args[1], 1))


@register("mul")
def _mul(ctx, args, kwargs):
    return tc.mul(_want_tensor(args[0], 0), _want_tensor(args[1], 1))


@register("matmul")
def _matmul(ctx, args, kwargs):
    return tc.matmul(_want_tensor(args[0], 0), _want_tensor(args[1], 1))


@register("scale")
def _scale(ctx, args, kwargs):
    return tc.scale(_want_tensor(args[0], 0), _want_scalar(args[1], 1))


@register("offset")
def _offset(ctx, args, kwargs):
    return tc.offset(_want_tensor(args[0], 0), _want_scalar(args[1], 1))


@register("neg")
def _neg(ctx, args, kwargs):
    return tc.neg(_want_tensor(args[0], 0))


@register("sigmoid_poly")
def _sigmoid(ctx, args, kwargs):
    return tc.sigmoid_poly(_want_tensor(args[0], 0))


# eval_expr opcodes, each followed by its integer operands:
#   ref i (push leaf i) | add | sub | neg | scale c | offset c | trunc p role
_REF, _ADD, _SUB, _NEG, _SCALE, _OFFSET, _TRUNC = range(7)
EXPR_OPCODES = {"ref": _REF, "add": _ADD, "sub": _SUB, "neg": _NEG,
                "scale": _SCALE, "offset": _OFFSET, "trunc": _TRUNC}


@register("eval_expr")
def _eval_expr(ctx, args, kwargs):
    """Evaluate a postfix program of share arithmetic over the leaf tensors
    in args. One value left on the stack is the result; several are
    flattened and concatenated in stack order."""
    prog = kwargs["prog"]
    stack = []
    pos = 0
    try:
        while pos < len(prog):
            op = prog[pos]
            if op == _REF:
                stack.append(_want_tensor(args[prog[pos + 1]], prog[pos + 1]))
                pos += 2
            elif op in (_ADD, _SUB):
                b, a = stack.pop(), stack.pop()
                stack.append(tc.add(a, b) if op == _ADD else tc.sub(a, b))
                pos += 1
            elif op == _NEG:
                stack.append(tc.neg(stack.pop()))
                pos += 1
            elif op in (_SCALE, _OFFSET):
                kernel = tc.scale if op == _SCALE else tc.offset
                stack.append(kernel(stack.pop(), prog[pos + 1]))
                pos += 2
            elif op == _TRUNC:
                stack.append(truncate_share(stack.pop(), prog[pos + 1], prog[pos + 2]))
                pos += 3
            else:
                raise MalformedPayload(f"unknown eval_expr opcode {op}")
    except IndexError:
        raise MalformedPayload(f"eval_expr program is malformed at {pos}") from None
    if not stack:
        raise MalformedPayload("eval_expr program leaves no value")
    if len(stack) == 1:
        return stack[0]
    return Tensor._own(np.concatenate([t.data.ravel() for t in stack]), Dtype.RING64)


def _push_share(ctx, party: str, arr: np.ndarray) -> int:
    oid = ctx.allocate_id()
    ctx.peer(party).store(oid, [("local", Tensor._own(arr, Dtype.RING64))])
    return oid


@register("make_shares", preserve_prefix=False)
def _make_shares(ctx, args, kwargs):
    """Split a Ring64 tensor into additive shares and push one to each
    party; returns the per-party object ids followed by the tensor's shape,
    the only metadata the leader needs. Pass the tensor as a take argument
    so the secret does not outlive its shares."""
    x = _want_tensor(args[0], 0)
    parties = [p for p in str(kwargs["parties"]).split(",") if p]
    if len(parties) < 2:
        raise ConfigError("need at least 2 parties")
    if x.dtype is not Dtype.RING64:
        raise ShapeMismatch("make_shares expects a Ring64 tensor (fix precision first)")
    shares = tc.split_shares(ctx.rng, x.data, len(parties))
    oids = [_push_share(ctx, party, s) for party, s in zip(parties, shares)]
    return Tensor(np.array(oids + list(x.shape), dtype=np.uint64), Dtype.RING64)


@register("gen_triples", preserve_prefix=False)
def _gen_triples(ctx, args, kwargs):
    """Dealer preprocessing: generate `count` multiplication triples and
    distribute the shares; returns ids shaped [count, n_parties, 3]."""
    kind = str(kwargs["kind"])
    shape = [int(v) for v in kwargs["shape"]]
    parties = [p for p in str(kwargs["parties"]).split(",") if p]
    count = int(kwargs["count"])
    if count < 1:
        raise ConfigError("count must be >= 1")
    if len(parties) < 2:
        raise ConfigError("need at least 2 parties")
    mask = np.uint64(Q - 1)
    ids = np.zeros((count, len(parties), 3), dtype=np.uint64)
    for t in range(count):
        if kind == "matmul":
            m, k, n = shape
            a = tc.random_ring(ctx.rng, (m, k))
            b = tc.random_ring(ctx.rng, (k, n))
            c = (a @ b) & mask
        elif kind == "elementwise":
            a = tc.random_ring(ctx.rng, tuple(shape))
            b = tc.random_ring(ctx.rng, tuple(shape))
            c = (a * b) & mask
        else:
            raise ConfigError(f"unknown triple kind {kind!r}")
        for j, part in enumerate((a, b, c)):
            shares = tc.split_shares(ctx.rng, part, len(parties))
            for i, party in enumerate(parties):
                ids[t, i, j] = _push_share(ctx, party, shares[i])
    return Tensor(ids, Dtype.RING64)


@register("beaver_combine")
def _beaver_combine(ctx, args, kwargs):
    """One party's share of the Beaver product from its triple shares
    (taken: the worker deletes them once this succeeds) and the opened
    differences eps = x - a, delta = y - b, passed inline."""
    c, a, b, eps, delta = (_want_tensor(v, i) for i, v in enumerate(args))
    kind = str(kwargs["kind"])
    lead = bool(kwargs.get("lead", 0))
    if kind == "matmul":
        z = tc.add(c, tc.add(tc.matmul(eps, b), tc.matmul(a, delta)))
        if lead:
            z = tc.add(z, tc.matmul(eps, delta))
    elif kind == "elementwise":
        z = tc.add(c, tc.add(tc.mul(eps, b), tc.mul(a, delta)))
        if lead:
            z = tc.add(z, tc.mul(eps, delta))
    else:
        raise ConfigError(f"unknown triple kind {kind!r}")
    return z


def _batch_args(args, kwargs):
    params = _want_tensor(args[0], 0).data
    X = _want_tensor(args[1], 1).data
    y = _want_tensor(args[2], 2).data
    dims = tuple(int(d) for d in kwargs["dims"])
    task = str(kwargs["task"])
    return params, X, y, dims, task


@register("fb_batch", preserve_prefix=False)
def _fb_batch(ctx, args, kwargs):
    """Forward/backward over the given row indices of the resident
    partition; returns [loss, batch gradient...]."""
    params, X, y, dims, task = _batch_args(args, kwargs)
    idx = np.array([int(i) for i in kwargs["indices"]], dtype=np.int64)
    loss, grad = nn.forward_backward(params, dims, task, X[idx], y[idx])
    return Tensor._own(np.concatenate([[loss], grad]), Dtype.FLOAT64)


@register("dp_phase", preserve_prefix=False)
def _dp_phase(ctx, args, kwargs):
    """One DP phase: sample a lot locally, compute per-example gradients,
    clip, sum and add Gaussian noise. Only the sanitized sum (plus the
    pre-noise lot loss for the trace) leaves the worker."""
    params, X, y, dims, task = _batch_args(args, kwargs)
    lot_size = int(kwargs["lot_size"])
    clip_norm = float(kwargs["clip_norm"])
    sigma = float(kwargs["sigma"])
    if lot_size < 1:
        raise EmptyLot("lot_size must be >= 1")
    if lot_size > X.shape[0]:
        raise ConfigError(f"lot {lot_size} exceeds partition size {X.shape[0]}")
    idx = ctx.rng.choice(X.shape[0], size=lot_size, replace=False)
    loss, G = nn.forward_backward(params, dims, task, X[idx], y[idx], per_example=True)
    sanitized = sanitize_lot(G, clip_norm, sigma, ctx.rng)
    return Tensor._own(np.concatenate([[loss], sanitized]), Dtype.FLOAT64)
