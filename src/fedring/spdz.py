"""SPDZ-style additive secret sharing over Z_Q, orchestrated by the leader.

Shares live on the workers; the leader holds only per-party references. The
linear layer (add/sub/neg, public scale and offset) and local truncation are
lazy: each party's share is a small expression tree over object ids, and the
command that next consumes it (an opening, a reconstruction, `materialize`)
carries the party's whole tree as one `eval_expr` postfix program. Linear
operations and truncations therefore cross zero transport messages of their
own; a truncation is folded into the next command.

A Beaver multiplication is one open round plus one combine per party. The
dealer's triples are seed-compressed (format in `commands`): each party
holds one object per triple, its PCG64 seed, and the last party also its
explicit share of c. In the open round each party runs one by-value
`beaver_open` that takes its triple object, expands it once, evaluates its
shares of both x - a and y - b, keeps the expanded a, b and c for the
combine and replies with the masked values, which the leader sums: exactly
two openings (eps, delta) regardless of operand size. Each party then runs
one `beaver_combine` that receives eps and delta inline and takes the
expanded triple. With two parties that is four messages per
multiplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .commands import compile_expr, triple_shapes
from .errors import (
    ConfigError,
    InsufficientTriples,
    PartyMismatch,
    ShapeMismatch,
    TripleReused,
    TripleShapeMismatch,
)
from .fixedpoint import FRAC_BITS, Q
from .protocol import Command
from .tensor import Dtype, Tensor, split_shares
from .workers import Federation

_MASK = np.uint64(Q - 1)

# share expressions are commands.compile_expr trees of ref, add, sub, neg,
# scale, offset and trunc; scale and offset constants are ring residues (ints)


@dataclass(frozen=True)
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

    def is_materialized(self) -> bool:
        return all(e[0] == "ref" for e in self.exprs)

    def pointers(self):
        if not self.is_materialized():
            raise ConfigError("share vector not materialized")
        return [(p, e[1]) for p, e in zip(self.parties, self.exprs)]


def _check_parties(xs: ShareVector, ys: ShareVector):
    if xs.parties != ys.parties:
        raise PartyMismatch(f"{xs.parties} vs {ys.parties}")
    if xs.shape != ys.shape:
        raise ShapeMismatch(f"{xs.shape} vs {ys.shape}")


def require_two_parties(parties):
    """Local share truncation is sound for exactly two parties."""
    if len(parties) != 2:
        raise ConfigError(f"local share truncation is sound for two parties only, "
                          f"not {len(parties)}")


def share(x: Tensor, parties, fed: Federation, rng: np.random.Generator) -> ShareVector:
    """Leader-side split of a leader-owned Ring64 tensor."""
    parties = tuple(parties)
    if len(parties) < 2:
        raise ConfigError("need at least 2 parties")
    if x.dtype is not Dtype.RING64:
        raise ConfigError("share expects a Ring64 tensor")
    exprs = []
    for party, s in zip(parties, split_shares(rng, x.data, len(parties))):
        oid = fed.allocate_id()
        fed.worker(party).store(oid, Tensor(s, Dtype.RING64))
        exprs.append(("ref", oid))
    return ShareVector(parties, tuple(exprs), x.shape)


def share_remote(owner: str, expr, parties, fed: Federation) -> ShareVector:
    """Split a worker-resident Ring64 value without the leader seeing it:
    the owner evaluates `expr`, a pointer expression over its objects,
    splits the value locally and pushes shares to its peers under ids the
    leader chose; only the shape returns to the leader, in the reply to one
    by-value execute. A stored object (a bare ('ref', oid)) is taken, so the
    secret does not outlive its shares; a lazy expression's operands stay."""
    parties = tuple(parties)
    if len(parties) < 2:
        raise ConfigError("need at least 2 parties")
    prog = compile_expr([expr])
    args = (("take", expr[1]),) if expr[0] == "ref" else prog.args
    ids = [fed.allocate_id() for _ in parties]
    cmd = Command("make_shares", args,
                  {**prog.kwargs, "parties": ",".join(parties), "ids": ids})
    shape = tuple(int(v) for v in fed.worker(owner).execute(cmd).data)
    return ShareVector(parties, tuple(("ref", oid) for oid in ids), shape)


def materialize(sv: ShareVector, fed: Federation) -> ShareVector:
    """Collapse each party's expression to a single stored object: one
    eval_expr command per party whose share is not one already."""
    exprs = list(sv.exprs)
    for i, (party, expr) in enumerate(zip(sv.parties, sv.exprs)):
        if expr[0] != "ref":
            exprs[i] = ("ref", fed.allocate_id())
            fed.worker(party).execute(compile_expr([expr]), exprs[i][1])
    return replace(sv, exprs=tuple(exprs))


def reconstruct(sv: ShareVector, fed: Federation, delete: bool = False) -> Tensor:
    """Sum the shares: a stored share is fetched, and deleted on `delete`;
    a lazy one is evaluated by value and never stored. One message per
    party."""
    total = np.zeros(sv.shape, dtype=np.uint64)
    for party, expr in zip(sv.parties, sv.exprs):
        if expr[0] == "ref":
            t = fed.worker(party).fetch(expr[1], delete)
        else:
            t = fed.worker(party).execute(compile_expr([expr]))
        if t.shape != sv.shape:
            raise ShapeMismatch(f"share shape {t.shape} != {sv.shape}")
        total = (total + t.data) & _MASK
    return Tensor(total, Dtype.RING64)


def free(svs, fed: Federation):
    """Delete the stored shares of materialized share vectors: one delete
    frame per party."""
    oids: dict = {}
    for sv in svs:
        for party, oid in sv.pointers():
            oids.setdefault(party, []).append(oid)
    for party, ids in oids.items():
        fed.worker(party).delete(*ids)


# -- linear layer (no communication) ----------------------------------------

def add_shared(xs: ShareVector, ys: ShareVector) -> ShareVector:
    _check_parties(xs, ys)
    exprs = tuple(("add", a, b) for a, b in zip(xs.exprs, ys.exprs))
    return replace(xs, exprs=exprs)


def sub_shared(xs: ShareVector, ys: ShareVector) -> ShareVector:
    _check_parties(xs, ys)
    exprs = tuple(("sub", a, b) for a, b in zip(xs.exprs, ys.exprs))
    return replace(xs, exprs=exprs)


def neg_shared(xs: ShareVector) -> ShareVector:
    return replace(xs, exprs=tuple(("neg", e) for e in xs.exprs))


def public_op(op: str, xs: ShareVector, c: int) -> ShareVector:
    """op='mul': scale every share by the public residue c; op='add': offset
    exactly one designated party's share (adding to all would reconstruct to
    x + n*c)."""
    c = int(c) % Q
    if op == "mul":
        exprs = tuple(("scale", e, c) for e in xs.exprs)
    elif op == "add":
        exprs = (("offset", xs.exprs[0], c),) + xs.exprs[1:]
    else:
        raise ConfigError(f"public_op supports add/mul, not {op!r}")
    return replace(xs, exprs=exprs)


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
    """Dealer inventory keyed by (kind, shape); triples are take-once."""

    def __init__(self):
        self._pools: dict = {}

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
    nothing returns."""
    parties = tuple(parties)
    if count < 1:
        raise ConfigError("count must be >= 1")
    shape = tuple(int(s) for s in shape)
    triple_shapes(kind, shape)  # rejects a bad kind or shape before sending
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


def _open_masked(xs: ShareVector, ys: ShareVector, triple: BeaverTriple,
                 fed: Federation, keep):
    """Open eps = x - a and delta = y - b through the leader (star topology):
    one by-value beaver_open per party, two openings noted on the tap.
    Party i keeps its expanded triple under keep[i]."""
    nx = math.prod(xs.shape)
    total = np.zeros(nx + math.prod(ys.shape), dtype=np.uint64)
    for i, party in enumerate(xs.parties):
        prog = compile_expr([xs.exprs[i], ys.exprs[i]])
        cmd = Command("beaver_open", prog.args + (("take", triple.refs[i]),),
                      {**prog.kwargs, "kind": triple.kind, "shape": list(triple.shape),
                       "keep": keep[i]})
        t = fed.worker(party).execute(cmd)
        if t.shape != total.shape:
            raise ShapeMismatch(f"masked shares {t.shape} != {total.shape}")
        total = (total + t.data) & _MASK
    if fed.tap is not None:
        fed.tap.note_opening(2)
    return (Tensor(total[:nx].reshape(xs.shape), Dtype.RING64),
            Tensor(total[nx:].reshape(ys.shape), Dtype.RING64))


def _beaver(xs: ShareVector, ys: ShareVector, triple: BeaverTriple, fed: Federation,
            kind: str, out_shape) -> ShareVector:
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
    triple.consumed = True
    keep = [fed.allocate_id() for _ in xs.parties]
    out = [fed.allocate_id() for _ in xs.parties]
    eps, delta = _open_masked(xs, ys, triple, fed, keep)
    for i, party in enumerate(xs.parties):
        cmd = Command(
            "beaver_combine",
            (("take", keep[i]), ("tensor", eps), ("tensor", delta)),
            {"kind": kind, "shape": list(triple.shape), "lead": int(i == 0)},
        )
        fed.worker(party).execute(cmd, out[i])
    return ShareVector(xs.parties, tuple(("ref", oid) for oid in out), tuple(out_shape))


def beaver_mul(xs: ShareVector, ys: ShareVector, triple: BeaverTriple,
               fed: Federation) -> ShareVector:
    if xs.shape != ys.shape:
        raise ShapeMismatch(f"{xs.shape} vs {ys.shape}")
    return _beaver(xs, ys, triple, fed, "elementwise", xs.shape)


def matmul_shared(xs: ShareVector, ys: ShareVector, triple: BeaverTriple,
                  fed: Federation) -> ShareVector:
    if len(xs.shape) != 2 or len(ys.shape) != 2 or xs.shape[1] != ys.shape[0]:
        raise ShapeMismatch(f"{xs.shape} x {ys.shape}")
    out_shape = (xs.shape[0], ys.shape[1])
    return _beaver(xs, ys, triple, fed, "matmul", out_shape)


def trunc_shared(sv: ShareVector) -> ShareVector:
    """Two-party local truncation by 2**FRAC_BITS: party 0 shifts its share,
    party 1 the ring complement of its share (fixedpoint.truncate_share).
    Within one ulp except with probability ~2^(l+1-62) for an l-bit secret.
    With any other party count the result is wrong, not merely less exact
    (3 parties: errors up to 2^46 on encoded values in [-100, 100]), so it is
    rejected with ConfigError.

    Lazy like the linear layer: the shift runs inside the command that next
    consumes the value, so this sends nothing."""
    require_two_parties(sv.parties)
    exprs = tuple(("trunc", e, FRAC_BITS, role) for role, e in enumerate(sv.exprs))
    return replace(sv, exprs=exprs)
