"""fedring command line: worker serving, dealer preprocessing, the privacy
accountant, training runs and the transport/DP timing benchmark.

Exit codes: 0 ok, 1 usage/config, 2 bind, 3 transport or RemoteError, 4
numerical; a socket worker's own error exits as it would in-process.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys
import threading
import time

import numpy as np

from . import data, dp, train, workers
from .dp import PrivacySpec, calibrate_sigma, epsilon_for
from .errors import (
    BindError,
    ConfigError,
    FedringError,
    RemoteError,
    TransportError,
    Unachievable,
)
from .protocol import Command
from .train import TrainConfig

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BIND = 2
EXIT_TRANSPORT = 3
EXIT_NUMERICAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _parse_addr(text: str):
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ConfigError(f"bad address {text!r}, expected host:port")
    return host or "127.0.0.1", int(port)


def _parse_endpoints(text: str):
    out = {}
    for item in filter(None, text.split(",")):
        name, sep, addr = item.partition("=")
        if not sep:
            raise ConfigError(f"bad endpoint {item!r}, expected name=host:port")
        out[name] = _parse_addr(addr)
    return out


def build_parser() -> _Parser:
    p = _Parser(prog="fedring", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    w = sub.add_parser("worker", help="serve a socket worker until SIGINT")
    w.add_argument("--id", required=True, help="worker name")
    w.add_argument("--listen", required=True, help="host:port to bind")
    w.add_argument("--seed", type=int, default=1)
    w.add_argument("--peers", default="", help="peer workers as name=host:port,...")

    d = sub.add_parser("dealer", help="generate Beaver triples on running workers")
    d.add_argument("--parties", required=True, help="comma-separated worker names")
    d.add_argument("--endpoints", required=True, help="name=host:port,... for all parties")
    d.add_argument("--count", type=int, required=True)
    d.add_argument("--kind", choices=("elementwise", "matmul"), default="matmul")
    d.add_argument("--shape", required=True, help="comma-separated dims (m,k,n for matmul)")
    d.add_argument("--seed", type=int, default=1)

    a = sub.add_parser("accountant", help="moments accountant: epsilon or sigma")
    a.add_argument("--q", type=float, required=True)
    a.add_argument("--sigma", type=float, default=None)
    a.add_argument("--steps", type=int, required=True)
    a.add_argument("--delta", type=float, default=1e-5)
    a.add_argument("--target-eps", type=float, default=None,
                   help="calibrate sigma for this epsilon instead of printing epsilon")

    t = sub.add_parser("train", help="run a training job, print a JSON summary")
    t.add_argument("--dataset", required=True, help="boston | pima | path to CSV")
    t.add_argument("--kind", choices=tuple(data.DATASETS), default=None,
                   help="dataset kind when --dataset is a file path")
    t.add_argument("--mode", choices=("plain", "virtual", "socket"), default="virtual")
    t.add_argument("--workers", default="alice,bob", help="comma-separated names")
    t.add_argument("--endpoints", default="", help="socket mode: name=host:port,...")
    t.add_argument("--seed", type=int, default=1)
    t.add_argument("--split-seed", type=int, default=0)
    t.add_argument("--epochs", type=int, default=10)
    t.add_argument("--lr", type=float, default=0.01)
    t.add_argument("--batch-size", type=int, default=32)
    t.add_argument("--hidden", type=int, default=32)
    t.add_argument("--dp", action="store_true", help="differentially private phases")
    t.add_argument("--eps", type=float, default=None, help="target epsilon (calibrates sigma)")
    t.add_argument("--sigma", type=float, default=None, help="explicit noise multiplier")
    t.add_argument("--delta", type=float, default=1e-5)
    t.add_argument("--clip-norm", type=float, default=1.0)
    t.add_argument("--phases", type=int, default=500)
    t.add_argument("--lot-size", type=int, default=32)
    t.add_argument("--trace-out", default=None, help="write the metrics trace CSV here")

    b = sub.add_parser("benchmark", help="virtual vs socket vs DP timing comparison")
    b.add_argument("--seed", type=int, default=1)
    b.add_argument("--epochs", type=int, default=10)
    b.add_argument("--phases", type=int, default=500)
    b.add_argument("--runs", type=int, default=3, help="median over this many runs")
    return p


# ---------------------------------------------------------------------------
# subcommands

def cmd_worker(args) -> int:
    host, port = _parse_addr(args.listen)
    peers = {name: workers._LazySocketPeer(h, p)
             for name, (h, p) in _parse_endpoints(args.peers).items()}
    core = workers.WorkerCore(args.id, args.seed, peers)
    with workers.make_server(host, port, core) as server:
        bound_host, bound_port = server.server_address[:2]
        # announced only once bound, so a reader may connect at once
        print(f"worker {args.id} listening on {bound_host}:{bound_port}", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    return EXIT_OK


def cmd_dealer(args) -> int:
    """The dealer runs in this process and gen_triples checks the request
    before its first push. Object ids run up from a base drawn fresh for
    each run in [LEADER_ID_SPAN, 2**62), above any leader session's, so
    runs against the same workers do not collide, whatever their seeds;
    every id stays below 2**63, as the int64 kwarg codec requires."""
    parties = [s for s in args.parties.split(",") if s]
    shape = [int(s) for s in args.shape.split(",") if s]
    peers = {name: workers._LazySocketPeer(h, p)
             for name, (h, p) in _parse_endpoints(args.endpoints).items()}
    dealer = workers.WorkerCore("dealer", args.seed, peers)
    n = len(parties)
    base = workers.LEADER_ID_SPAN + secrets.randbelow((1 << 62) - workers.LEADER_ID_SPAN)
    ids = [base + i for i in range(args.count * n)]
    try:
        dealer.execute(Command(
            "gen_triples", (),
            {"kind": args.kind, "shape": shape, "parties": ",".join(parties),
             "count": args.count, "ids": ids},
        ))
    finally:
        for peer in peers.values():
            peer.close()
    print(json.dumps({
        "schema_version": SCHEMA_VERSION,
        "kind": args.kind,
        "shape": shape,
        "parties": parties,
        "count": args.count,
        # [count, n_parties]: each id names a party's one object for that triple
        "share_ids": [ids[t * n:(t + 1) * n] for t in range(args.count)],
    }))
    return EXIT_OK


def cmd_accountant(args) -> int:
    if args.target_eps is not None:
        sigma = calibrate_sigma(args.target_eps, args.delta, args.q, args.steps)
        print(f"{sigma:.4f}")
        return EXIT_OK
    if args.sigma is None:
        raise ConfigError("need --sigma or --target-eps")
    eps = epsilon_for(args.q, args.sigma, args.steps, args.delta)
    print(f"{eps:.4f}")
    return EXIT_OK


def _resolve_dataset(args):
    if args.dataset in data.DATASETS:
        return data.bundled_path(args.dataset), args.dataset
    if not os.path.exists(args.dataset):
        raise ConfigError(f"dataset {args.dataset!r}: not a known kind and no such file")
    if args.kind is None:
        raise ConfigError("--kind required when --dataset is a file path")
    return args.dataset, args.kind


def _build_federation(args, names, tap=None):
    if args.mode == "socket":
        endpoints = _parse_endpoints(args.endpoints)
        missing = [n for n in names if n not in endpoints]
        if missing:
            raise ConfigError(f"no endpoint for workers: {missing}")
        return workers.socket_federation({n: endpoints[n] for n in names}, tap)
    fed, _registry = workers.virtual_federation(names, args.seed, tap)
    return fed


def run_train(args) -> dict:
    path, kind = _resolve_dataset(args)
    seed = args.seed
    names = [s for s in args.workers.split(",") if s]
    if args.mode == "plain":
        names = names[:1] or ["local"]
    if (args.eps is not None or args.sigma is not None) and not args.dp:
        raise ConfigError("--eps/--sigma require --dp")
    ds = data.load_dataset(path, kind, names, split_seed=args.split_seed)

    cfg = TrainConfig(dataset=kind, seed=seed, lr=args.lr, epochs=args.epochs,
                      batch_size=args.batch_size, hidden=args.hidden,
                      lot_size=args.lot_size)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "dataset": kind,
        "mode": args.mode,
        "dp": bool(args.dp),
        "seed": seed,
        "split_seed": args.split_seed,
        "workers": names,
    }
    t0 = time.monotonic()
    if args.dp:
        q = args.lot_size / ds.n_train
        if args.sigma is not None:
            sigma = args.sigma
        elif args.eps is not None:
            sigma = calibrate_sigma(args.eps, args.delta, q, args.phases)
        else:
            raise ConfigError("--dp needs --eps or --sigma")
        cfg.privacy = PrivacySpec(q=q, sigma=sigma, clip_norm=args.clip_norm,
                                  delta=args.delta, steps=args.phases)
        fed = _build_federation(args, names)
        model, trace, eps = train.train_federated_dp(fed, ds, cfg)
        summary.update({"sigma": sigma, "epsilon": eps, "delta": args.delta,
                        "phases": args.phases, "lot_size": args.lot_size})
    elif args.mode == "plain":
        model, trace = train.train_plain(ds, cfg)
    else:
        fed = _build_federation(args, names)
        model, trace = train.train_federated(fed, ds, cfg)
    wall_s = time.monotonic() - t0

    metric_name = "mse" if ds.task == "regression" else "accuracy"
    summary[metric_name] = train.evaluate(model, ds)
    summary["metric"] = metric_name
    summary["wall_s"] = wall_s
    summary["steps"] = len(trace)
    if args.trace_out:
        # no loss leaves a DP worker, so DP rows have none
        header, row_fmt = (("step,wall_ms", "{step},{wall_ms:.3f}") if args.dp else
                           ("step,loss,wall_ms", "{step},{loss:.9g},{wall_ms:.3f}"))
        with open(args.trace_out, "w") as f:
            f.write(header + "\n")
            for row in trace:
                f.write(row_fmt.format(**row) + "\n")
    return summary


def cmd_train(args) -> int:
    print(json.dumps(run_train(args)))
    return EXIT_OK


def _bench_once(mode, seed, epochs, phases):
    names = ["alice", "bob"]
    ds = data.load_dataset(data.bundled_path("boston"), "boston", names)
    cfg = TrainConfig(seed=seed, epochs=epochs)
    servers = []
    if mode == "socket":
        # fresh in-process workers per run: leader session ids restart at 1
        endpoints = {}
        for name in names:
            server = workers.make_server("127.0.0.1", 0, workers.WorkerCore(name, seed))
            endpoints[name] = server.server_address
            threading.Thread(target=server.serve_forever, daemon=True).start()
            servers.append(server)
        fed = workers.socket_federation(endpoints)
    else:
        fed, _ = workers.virtual_federation(names, seed)
    try:
        t0 = time.monotonic()
        if mode == "virtual_dp":
            q = cfg.lot_size / ds.n_train
            cfg.privacy = PrivacySpec(q=q, sigma=2.48, clip_norm=1.0, delta=1e-5, steps=phases)
            _, trace, _ = train.train_federated_dp(fed, ds, cfg)
        else:
            _, trace = train.train_federated(fed, ds, cfg)
        wall = time.monotonic() - t0
    finally:
        fed.close()
        for s in servers:
            s.shutdown()
            s.server_close()
    return wall, wall / max(len(trace), 1) * 1e3  # (s, per-batch ms)


def run_benchmark(args) -> dict:
    results = {}
    for mode in ("virtual", "socket", "virtual_dp"):
        walls, batch_ms = [], []
        for _ in range(args.runs):
            w, b = _bench_once(mode, args.seed, args.epochs, args.phases)
            walls.append(w)
            batch_ms.append(b)
        results[mode] = {"wall_s": float(np.median(walls)),
                         "per_batch_ms": float(np.median(batch_ms))}
    return {
        "schema_version": SCHEMA_VERSION,
        "dataset": "boston",
        "seed": args.seed,
        "runs": args.runs,
        "virtual": results["virtual"],
        "socket": results["socket"],
        "virtual_dp": results["virtual_dp"],
        "dp_per_batch_ratio": results["virtual_dp"]["per_batch_ms"]
        / results["virtual"]["per_batch_ms"],
        "socket_over_virtual": results["socket"]["wall_s"] / results["virtual"]["wall_s"],
    }


def cmd_benchmark(args) -> int:
    print(json.dumps(run_benchmark(args)))
    return EXIT_OK


_COMMANDS = {
    "worker": cmd_worker,
    "dealer": cmd_dealer,
    "accountant": cmd_accountant,
    "train": cmd_train,
    "benchmark": cmd_benchmark,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BindError as e:
        print(f"fedring: bind error: {e}", file=sys.stderr)
        return EXIT_BIND
    except (TransportError, RemoteError) as e:
        print(f"fedring: transport error: {e}", file=sys.stderr)
        return EXIT_TRANSPORT
    except Unachievable as e:
        print(f"fedring: numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FedringError, ValueError) as e:
        print(f"fedring: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
