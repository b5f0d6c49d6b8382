"""SPDZ-style additive secret sharing over Z_Q, orchestrated by the leader.

Shares live on the workers; the leader holds only per-party references. A
leader-side `share` is one store_parts execute per party, for one secret or
for several at once (mpc_forward shares all of its inputs in one call): the
worker cuts its one inline share into the secrets' parts and stores them
all or none. The linear layer (`linear`: the add, sub, neg, scale and
offset of commands.OPS) and the truncation of a product with a public
constant (`trunc_shared`) are lazy: each party's share is a small
expression tree over object ids, and the command that next consumes it (an
opening, a reconstruction, `materialize`) carries the party's whole tree as
one `eval_expr` postfix program. They therefore cross zero transport
messages of their own. A fixed-point Beaver product is truncated where it
is made: its combine shifts each party's fresh share before storing it.

Every opening is one `_open`: a by-value command per party, whose replies
the leader sums mod Q. A reconstruction opens the shares themselves; a
Beaver multiplication is one open round plus one combine per party. The
dealer's triples are seed-compressed (format in `commands`): each party
holds one object per triple, its PCG64 seed, and the last party also its
explicit share of c. In the open round each party runs one by-value
`beaver_open` that takes its triple object, expands it once, evaluates its
shares of both x - a and y - b, keeps the expanded a, b and c for the
combine and replies with the masked values, which the leader sums: exactly
two openings (eps, delta) regardless of operand size. Each party then runs
one `beaver_combine` that receives eps and delta inline, takes the
expanded triple and, given a shift, truncates the product share for the
party's role. With two parties that is four messages per
multiplication.

Nothing here deletes an object but by taking it. Each party's execute
reports what it stored and took to `Federation.record` once it succeeds,
so a `with fed.scope():` block frees what it stored, even midway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .commands import OPS, compile_expr, compile_prog, identity, triple_shapes
from .errors import (
    ConfigError,
    InsufficientTriples,
    PartyMismatch,
    ShapeMismatch,
    TripleReused,
    TripleShapeMismatch,
    UnknownCommand,
)
from .fixedpoint import FRAC_BITS, Q
from .protocol import Command
from .tensor import Dtype, Tensor, split_shares
from .workers import Federation

# share expressions are commands.compile_expr trees of ref, trunc and the
# linear ops; scale and offset constants are ring residues (ints)
_LINEAR = ("add", "sub", "neg", "scale", "offset")


@dataclass(frozen=True, slots=True)
class ShareVector:
    """One secret: an ordered party list and one share expression per party."""

    parties: tuple
    exprs: tuple
    shape: tuple

    def __post_init__(self):
        if len(self.parties) != len(self.exprs):
            raise PartyMismatch("one expression per party required")

    @property
    def n_parties(self) -> int:
        return len(self.parties)


def require_two_parties(parties):
    """Local share truncation is sound for exactly two parties."""
    if len(parties) != 2:
        raise ConfigError(f"local share truncation is sound for two parties only, "
                          f"not {len(parties)}")


def share(x: Tensor, parties, fed: Federation, rng: np.random.Generator, shapes=None):
    """Leader-side split of a leader-owned Ring64 tensor: one draw from rng
    for each party but the last (tensor.split_shares), and one store_parts
    execute per party. With `shapes`, x holds several secrets, flat and in
    order, and each party's share is stored as one object per secret: the
    ShareVectors come back in a list, one per shape. Without, x is one
    secret."""
    parties = tuple(parties)
    if len(parties) < 2:
        raise ConfigError("need at least 2 parties")
    if x.dtype is not Dtype.RING64:
        raise ConfigError("share expects a Ring64 tensor")
    parts = [x.shape] if shapes is None else [tuple(s) for s in shapes]
    ids = [[fed.allocate_id() for _ in parties] for _ in parts]
    kwargs = {"ranks": [len(s) for s in parts], "dims": [d for s in parts for d in s]}
    shares = split_shares(rng, x.data.reshape(-1), len(parties))
    for i, (party, s) in enumerate(zip(parties, shares)):
        own = [part_ids[i] for part_ids in ids]
        fed.worker(party).execute(Command(
            "store_parts", (("tensor", Tensor._own(s, Dtype.RING64)),), {**kwargs, "ids": own}))
        fed.record(party, stored=own)
    svs = [ShareVector(parties, tuple([("ref", oid) for oid in part_ids]), shape)
           for part_ids, shape in zip(ids, parts)]
    return svs[0] if shapes is None else svs


def share_remote(owner: str, expr, parties, fed: Federation) -> ShareVector:
    """Split a worker-resident Ring64 value without the leader seeing it:
    the owner evaluates `expr`, a pointer expression over its objects,
    splits the value locally and pushes shares to its peers under ids the
    leader chose; only the shape returns to the leader, in the reply to one
    by-value execute. A stored object (a bare ('ref', oid)) is taken, so the
    secret does not outlive its shares; a lazy expression's operands stay.
    The owner refuses fewer than two parties."""
    parties = tuple(parties)
    args, prog = compile_prog([expr])
    if expr[0] == "ref":
        args = (("take", expr[1]),)
    ids = [fed.allocate_id() for _ in parties]
    cmd = Command("make_shares", args, {"prog": prog, "parties": ",".join(parties), "ids": ids})
    shape = tuple(int(v) for v in fed.worker(owner).execute(cmd).data)
    fed.record(owner, taken=[val for tag, val in args if tag == "take"])
    for party, oid in zip(parties, ids):
        fed.record(party, stored=(oid,))
    return ShareVector(parties, tuple(("ref", oid) for oid in ids), shape)


def materialize(sv: ShareVector, fed: Federation) -> ShareVector:
    """Collapse each party's expression to a single stored object: one
    eval_expr command per party whose share is not one already."""
    exprs = list(sv.exprs)
    for i, (party, expr) in enumerate(zip(sv.parties, sv.exprs)):
        if expr[0] != "ref":
            exprs[i] = ("ref", fed.allocate_id())
            fed.worker(party).execute(compile_expr([expr]), exprs[i][1])
            fed.record(party, stored=(exprs[i][1],))
    return ShareVector(sv.parties, tuple(exprs), sv.shape)


def _open(fed: Federation, parties, cmds, shape, kept=()) -> Tensor:
    """Open a value through the leader (star topology): send each party its
    by-value command and sum the replies mod Q. One message per party;
    kept[i] names the object party i's command stores, if any. The sum
    starts from the first reply: the second's addition makes the array it
    accumulates in."""
    shape = tuple(shape)
    total = None
    for i, (party, cmd) in enumerate(zip(parties, cmds)):
        t = fed.worker(party).execute(cmd)
        fed.record(party, kept[i:i + 1], [val for tag, val in cmd.args if tag == "take"])
        if t.shape != shape:
            raise ShapeMismatch(f"{party} replied {t.shape}, not {shape}")
        if total is None:
            total = t.data  # a frozen reply: not added into
        elif i == 1:
            total = total + t.data
        else:
            total += t.data
    return Tensor._own(total, Dtype.RING64) if len(cmds) > 1 else t


def reconstruct(sv: ShareVector, fed: Federation, delete: bool = False) -> Tensor:
    """Open the shares: a stored share is taken on `delete` (the worker
    drops it) and read otherwise; a lazy one is evaluated and never
    stored. One by-value execute per party."""
    cmds = [identity(("take", e[1])) if delete and e[0] == "ref" else compile_expr([e])
            for e in sv.exprs]
    return _open(fed, sv.parties, cmds, sv.shape)


# -- linear layer (no communication) ----------------------------------------

def linear(name: str, *operands) -> ShareVector:
    """The linear op `name` of commands.OPS on shares, as one node per party:
    its share vectors first, then its public ring constant, if it takes one.
    offset adds the constant to the first party's share only (added to
    every share it would reconstruct to x + n*c)."""
    if name not in _LINEAR:
        raise UnknownCommand(f"{name} on shares")
    _, arity, consts, _ = OPS[name]
    if len(operands) != arity + consts:
        raise ConfigError(f"{name} takes {arity} share vector(s) and {consts} constant(s)")
    xs = operands[0]
    const = tuple([int(c) % Q for c in operands[arity:]])
    for ys in operands[1:arity]:
        if ys.parties != xs.parties:
            raise PartyMismatch(f"{xs.parties} vs {ys.parties}")
        if ys.shape != xs.shape:
            raise ShapeMismatch(f"{xs.shape} vs {ys.shape}")
    per_party = zip(*[sv.exprs for sv in operands[:arity]])
    exprs = [(name, *es, *const) for es in per_party]
    if name == "offset":
        exprs[1:] = xs.exprs[1:]
    return ShareVector(xs.parties, tuple(exprs), xs.shape)


# -- Beaver triples ----------------------------------------------------------

@dataclass
class BeaverTriple:
    """The leader's reference to one dealer triple: one object per party."""

    kind: str  # elementwise | matmul
    shape: tuple  # elementwise: operand shape; matmul: (m, k, n)
    parties: tuple
    refs: tuple  # the triple's object id on each party
    consumed: bool = False


class TriplePool:
    """Dealer inventory keyed by (kind, shape); triples are take-once. The
    pool owns its triples' objects, so a scope does not free them."""

    def __init__(self, triples=()):
        self._pools: dict = {}
        for triple in triples:
            self.put(triple)

    def put(self, triple: BeaverTriple):
        self._pools.setdefault((triple.kind, triple.shape), []).append(triple)

    def take(self, kind: str, shape) -> BeaverTriple:
        pool = self._pools.get((kind, tuple(shape)), [])
        if not pool:
            raise InsufficientTriples(f"no {kind} triple of shape {tuple(shape)}")
        return pool.pop()

    def count(self, kind: str, shape) -> int:
        return len(self._pools.get((kind, tuple(shape)), []))


def dealer_generate(fed: Federation, dealer: str, kind: str, shape, parties, count: int):
    """Run triple preprocessing on the dealer worker; each party receives
    one object per triple from the dealer, under ids the leader chose, and
    nothing returns. The dealer refuses a bad kind, shape or count."""
    parties = tuple(parties)
    shape = tuple(int(s) for s in shape)
    n = len(parties)
    ids = [fed.allocate_id() for _ in range(count * n)]
    fed.worker(dealer).execute(Command(
        "gen_triples",
        (),
        {"kind": kind, "shape": list(shape), "parties": ",".join(parties), "count": count,
         "ids": ids},
    ))
    return [BeaverTriple(kind, shape, parties, tuple(ids[t * n:(t + 1) * n]))
            for t in range(count)]


def _beaver(xs: ShareVector, ys: ShareVector, triple: BeaverTriple, fed: Federation,
            kind: str, out_shape, trunc: int) -> ShareVector:
    if triple.consumed:
        raise TripleReused("triple already consumed")
    if triple.kind != kind:
        raise TripleShapeMismatch(f"need {kind} triple, got {triple.kind}")
    a_shape, b_shape, _ = triple_shapes(kind, triple.shape)
    if xs.shape != a_shape or ys.shape != b_shape:
        raise TripleShapeMismatch(
            f"operands {xs.shape}x{ys.shape} vs triple {a_shape}x{b_shape}"
        )
    if xs.parties != triple.parties:
        raise PartyMismatch("triple parties differ from operand parties")
    if trunc:
        require_two_parties(xs.parties)
    triple.consumed = True
    keep = [fed.allocate_id() for _ in xs.parties]
    out = [fed.allocate_id() for _ in xs.parties]
    shape = list(triple.shape)
    # open eps = x - a and delta = y - b: each party's beaver_open keeps its
    # expanded triple under keep[i] and replies with x_i - a_i || y_i - b_i
    cmds = []
    for i, (ex, ey) in enumerate(zip(xs.exprs, ys.exprs)):
        args, prog = compile_prog([ex, ey])
        cmds.append(Command("beaver_open", args + (("take", triple.refs[i]),),
                            {"prog": prog, "kind": kind, "shape": shape, "keep": keep[i]}))
    masked = _open(fed, xs.parties, cmds, (math.prod(xs.shape) + math.prod(ys.shape),), keep)
    if fed.tap is not None:
        fed.tap.note_opening(2)
    eps, delta = masked.parts((xs.shape, ys.shape))
    for i, party in enumerate(xs.parties):
        fed.worker(party).execute(Command(
            "beaver_combine", (("take", keep[i]), ("tensor", eps), ("tensor", delta)),
            {"kind": kind, "shape": shape, "lead": int(i == 0), "trunc": trunc}), out[i])
        fed.record(party, stored=(out[i],), taken=(keep[i],))
    return ShareVector(xs.parties, tuple([("ref", oid) for oid in out]), tuple(out_shape))


def beaver_mul(xs: ShareVector, ys: ShareVector, triple: BeaverTriple,
               fed: Federation, trunc: int = 0) -> ShareVector:
    """The shares of x * y, elementwise; with `trunc`, a shift the combine
    applies to each party's product share (two parties only), so a
    fixed-point product arrives truncated by 2**trunc."""
    if xs.shape != ys.shape:
        raise ShapeMismatch(f"{xs.shape} vs {ys.shape}")
    return _beaver(xs, ys, triple, fed, "elementwise", xs.shape, trunc)


def matmul_shared(xs: ShareVector, ys: ShareVector, triple: BeaverTriple,
                  fed: Federation, trunc: int = 0) -> ShareVector:
    """The shares of x @ y, truncated as beaver_mul's are."""
    if len(xs.shape) != 2 or len(ys.shape) != 2 or xs.shape[1] != ys.shape[0]:
        raise ShapeMismatch(f"{xs.shape} x {ys.shape}")
    out_shape = (xs.shape[0], ys.shape[1])
    return _beaver(xs, ys, triple, fed, "matmul", out_shape, trunc)


def trunc_shared(sv: ShareVector) -> ShareVector:
    """Two-party local truncation by 2**FRAC_BITS, for a product with a
    public constant (a Beaver product truncates in its combine instead):
    party 0 shifts its share,
    party 1 the ring complement of its share (fixedpoint.truncate_share).
    Within one ulp except with probability ~2^(l+1-62) for an l-bit secret.
    With any other party count the result is wrong, not merely less exact
    (3 parties: errors up to 2^46 on encoded values in [-100, 100]), so it is
    rejected with ConfigError.

    Lazy like the linear layer: the shift runs inside the command that next
    consumes the value, so this sends nothing."""
    require_two_parties(sv.parties)
    exprs = tuple([("trunc", e, FRAC_BITS, role) for role, e in enumerate(sv.exprs)])
    return ShareVector(sv.parties, exprs, sv.shape)
