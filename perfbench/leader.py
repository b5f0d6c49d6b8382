"""One repetition of a benchmark workload, in a fresh leader process.

    python3 perfbench/leader.py --workload fedsgd-socket --seed 1 [--trace]

Prints one JSON line: set-up and job time, per-step latencies, rows, peak
RSS, operations attempted and failed, and with --trace the per-layer figures.
perfbench/run.py starts one of these per repetition, so that `ru_maxrss` is
per repetition, socket workers and leader session ids start fresh, and no
process-level cache outlives a job. src/ must be on PYTHONPATH.

The leader is one process with one thread, in a closed loop: each step waits
for its reply before the next is sent.
"""

from __future__ import annotations

import argparse
import collections
import json
import resource
import signal
import socket
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from fedring import data, dp, train, workers
from fedring.errors import TransportError

import gates
from spans import Tracer, install_leader_side

HERE = Path(__file__).resolve().parent
HOST = "127.0.0.1"
NAMES = ("alice", "bob")
CONNECT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0

DP_PHASES = 500
DP_LOT = 32
DP_CLIP = 1.0
DP_EXTRA_SETUPS = 9
DP_PHASE_REPLAYS = 5
MPC_PASSES = 100  # >= 100 steps per repetition, so its p90 has 10 samples beyond
MPC_MODEL = train.TrainConfig(seed=1, epochs=2)  # criterion 5's model


# ---------------------------------------------------------------------------
# socket workers

def _free_port() -> int:
    with socket.socket() as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


class SocketWorkers:
    """Fresh `fedring worker` processes on loopback, stopped and reaped on
    every exit path."""

    def __init__(self, names, seed: int, trace: bool):
        self.procs = {}
        self.ports = {}
        self.reports = {}
        try:
            for name in names:
                port = _free_port()
                cmd = [sys.executable, str(HERE / "worker.py"), "--id", name,
                       "--listen", f"{HOST}:{port}", "--seed", str(seed)]
                if trace:
                    cmd.append("--trace")
                self.procs[name] = subprocess.Popen(
                    cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, text=True)
                self.ports[name] = port
        except BaseException:
            self.stop()
            raise

    def connect(self, tap) -> workers.Federation:
        """Poll-connect: `fedring worker` announces itself before it binds,
        so only an accepted connection means ready."""
        deadline = time.monotonic() + CONNECT_TIMEOUT_S
        handles = []
        for name, proc in self.procs.items():
            while True:
                if proc.poll() is not None:
                    raise RuntimeError(f"worker {name} exited with {proc.returncode}")
                try:
                    handles.append(workers.SocketHandle(name, HOST, self.ports[name], tap))
                    break
                except TransportError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.002)
        return workers.Federation(handles, tap)

    def stop(self):
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for name, proc in self.procs.items():
            try:
                out, err = proc.communicate(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, err = proc.communicate()
            lines = out.strip().splitlines()
            if proc.returncode == 0 and lines:
                self.reports[name] = json.loads(lines[-1])
            else:
                sys.stderr.write(f"worker {name} exit {proc.returncode}: {err}\n")
        self.procs = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


# ---------------------------------------------------------------------------
# workloads

class Rep:
    """Measurements of one repetition."""

    def __init__(self, trace: bool):
        self.tracer = Tracer()
        self.moments = install_leader_side(self.tracer) if trace else None
        self.tap = workers.TransportTap() if trace else None
        self.tally = gates.Tally()
        self.setup_s = 0.0
        self.job_s = 0.0
        self.loop_s = 0.0
        self.step_ms: list[float] = []
        self.rows = 0
        self.objects_start = 0
        self.objects_end = 0
        self.worker_reports: dict = {}
        self.max_err = 0.0
        self.tap_mark = (0, 0)
        self._probe_partitions()

    def _probe_partitions(self):
        """train_federated(_dp) push the partitions before their step loop;
        time that push so it counts as set-up, not job."""
        self.push_s = 0.0
        push = train._store_partitions

        def timed_push(*args, **kwargs):
            if self.tracer.phase != "job":
                return push(*args, **kwargs)
            self.tracer.phase = "setup"
            t0 = time.perf_counter()
            try:
                placed = push(*args, **kwargs)
            finally:
                self.push_s += time.perf_counter() - t0
            self.objects_start = 2 * len(placed)  # x and y per worker
            self.start_job()
            return placed

        train._store_partitions = timed_push

    def start_job(self):
        self.tracer.phase = "job"
        if self.tap is not None:
            self.tap_mark = (len(self.tap.events), self.tap.openings)

    def steps_from_trace(self, trace, rows_per_step: int):
        """Step latencies from the wall_ms stamps a training loop writes;
        `trace` may chain several loops, each restarting at step 0."""
        prev = 0.0
        for row in trace:
            if row["step"] == 0:
                prev = 0.0
            self.step_ms.append(row["wall_ms"] - prev)
            prev = row["wall_ms"]
        self.loop_s = sum(self.step_ms) / 1e3
        self.rows = rows_per_step * len(trace)


def run_fedsgd_socket(rep: Rep, seed: int, trace: bool):
    cfg = train.TrainConfig(seed=seed)
    t0 = time.perf_counter()
    ds = data.load_dataset(data.bundled_path("boston"), "boston", NAMES)
    with SocketWorkers(NAMES, seed, trace) as sw:
        fed = sw.connect(rep.tap)
        connect_s = time.perf_counter() - t0
        rep.tracer.phase = "job"
        t1 = time.perf_counter()
        try:
            model, steps = train.train_federated(fed, ds, cfg)
        finally:
            t2 = time.perf_counter()
            rep.tracer.phase = "gate"
            fed.close()
            sw.stop()
        rep.worker_reports = sw.reports
    rep.setup_s = connect_s + rep.push_s
    rep.tally.op(len(rep.worker_reports) == len(NAMES))  # every worker stopped cleanly
    rep.job_s = (t2 - t1) - rep.push_s
    rep.steps_from_trace(steps, cfg.batch_size)
    rep.tally.op(True, len(steps))
    if trace:
        rep.objects_end = sum(r["objects"] for r in rep.worker_reports.values())
    # transport transparency: the same seed and config over virtual workers
    ref_fed, _ = workers.virtual_federation(NAMES, seed)
    ref, _ = train.train_federated(ref_fed, ds, cfg)
    rep.tally.op(gates.weights_identical(model.params, ref.params))


def run_dp_calibrated(rep: Rep, seed: int, trace: bool):
    # a run holds only a few jobs, so set-up is also timed on its own
    setups = []
    for _ in range(DP_EXTRA_SETUPS):
        t0 = time.perf_counter()
        ds = data.load_dataset(data.bundled_path("pima"), "pima", NAMES)
        fed, _ = workers.virtual_federation(NAMES, seed, rep.tap)
        train._store_partitions(fed, ds)
        setups.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    ds = data.load_dataset(data.bundled_path("pima"), "pima", NAMES)
    fed, registry = workers.virtual_federation(NAMES, seed, rep.tap)
    pre_s = time.perf_counter() - t0
    q = DP_LOT / ds.n_train
    rep.tracer.phase = "job"
    t1 = time.perf_counter()
    sigma = dp.calibrate_sigma(gates.DP_TARGET_EPS, gates.DP_DELTA, q, DP_PHASES)
    spec = dp.PrivacySpec(q=q, sigma=sigma, clip_norm=DP_CLIP, delta=gates.DP_DELTA,
                          steps=DP_PHASES)
    cfg = train.TrainConfig(dataset="pima", seed=seed, lot_size=DP_LOT, privacy=spec)
    model, steps, eps = train.train_federated_dp(fed, ds, cfg)
    t2 = time.perf_counter()
    rep.tracer.phase = "gate"
    rep.setup_s = statistics.median(setups + [pre_s + rep.push_s])
    rep.job_s = (t2 - t1) - rep.push_s
    rep.tally.op(True, len(steps))
    rep.objects_end = sum(w.object_count() for w in registry.workers.values())
    # The job's 500 phases last ~0.35 s, a snapshot of a host whose speed
    # drifts; replaying the phase loop spreads the step samples over more of
    # the run. Replays feed the end-to-end step figures only, so a traced
    # repetition, whose per-step layer figures cover the job, makes none.
    for _ in range(0 if trace else DP_PHASE_REPLAYS):
        replay_fed, _ = workers.virtual_federation(NAMES, seed)
        _, more, _ = train.train_federated_dp(replay_fed, ds, cfg)
        rep.tally.op(True, len(more))
        steps = steps + more
    rep.steps_from_trace(steps, DP_LOT)
    rep.tally.op(gates.epsilon_within(eps))
    rep.tally.op(gates.sigma_tight(dp.epsilon_for(q, sigma - gates.DP_TIGHTNESS_STEP,
                                                  DP_PHASES, gates.DP_DELTA)))
    rep.tally.op(gates.accuracy_ok(train.evaluate(model, ds)))


def run_mpc_infer(rep: Rep, seed: int, trace: bool):
    parties = NAMES
    t0 = time.perf_counter()
    solo = data.load_dataset(data.bundled_path("boston"), "boston", ["solo"])
    model, _ = train.train_plain(solo, MPC_MODEL)
    X = solo.test_X
    fed, registry = workers.virtual_federation(parties + ("dealer",), seed, rep.tap)
    pool = train.provision_triples(fed, "dealer", parties, model.dims, len(X), model.task,
                                   passes=MPC_PASSES)
    rep.setup_s = time.perf_counter() - t0
    rep.tracer.phase = "gate"
    oracle = train.fixed_forward(model, X)
    rng = np.random.default_rng([seed, 5])
    rep.objects_start = sum(w.object_count() for w in registry.workers.values())
    rep.start_job()
    for i in range(MPC_PASSES):
        s = time.perf_counter()
        try:
            out = train.mpc_forward(model, X, fed, parties, rng=rng, pool=pool)
        except Exception:
            traceback.print_exc()
            rep.tally.op(False, MPC_PASSES - i)  # the pool is spent or inconsistent
            break
        rep.step_ms.append((time.perf_counter() - s) * 1e3)
        rep.max_err = max(rep.max_err, gates.mpc_err(out, oracle))
        rep.tally.op(gates.mpc_within(out, oracle))
    rep.tracer.phase = "gate"
    rep.objects_end = sum(w.object_count() for w in registry.workers.values())
    rep.job_s = rep.loop_s = sum(rep.step_ms) / 1e3
    rep.rows = len(X) * len(rep.step_ms)


WORKLOADS = {
    "fedsgd-socket": run_fedsgd_socket,
    "dp-calibrated": run_dp_calibrated,
    "mpc-infer": run_mpc_infer,
}


# ---------------------------------------------------------------------------
# per-layer figures from the spans of a traced repetition

def _worker_spans(reports: dict):
    """Worker-side spans, and per worker the durations of its top-level
    commands in arrival order (one per leader execute)."""
    spans, commands = [], {}
    for name, rep in reports.items():
        for sname, parent, dur, self_ns in rep["spans"]:
            spans.append((sname, parent, dur, self_ns))
            if parent is None:
                commands.setdefault(name, collections.deque()).append(dur)
    return spans, commands


def layer_metrics(rep: Rep) -> dict:
    steps = max(len(rep.step_ms), 1)
    job = [s for s in rep.tracer.spans if s.phase == "job"]
    setup = [s for s in rep.tracer.spans if s.phase == "setup"]
    remote, remote_cmds = _worker_spans(rep.worker_reports)
    # (name, parent, duration, self time) of every job span, leader and worker
    rows = [(s.name, s.parent, s.dur_ns, s.self_ns) for s in job] + remote
    # a socket execute's self time excludes the command the worker ran for it
    handle_ns = 0
    exec_self = []
    for s in job:
        if s.name.startswith("workers."):
            handle_ns += s.dur_ns
        if s.name == "workers.execute":
            q = remote_cmds.get(s.tag)
            exec_self.append(s.self_ns - (q.popleft() if q else 0))

    def med_us(name):
        vals = exec_self if name == "workers.execute" else [r[3] for r in rows if r[0] == name]
        return statistics.median(vals) / 1e3 if vals else 0.0

    def self_us_per_step(*names):
        return sum(r[3] for r in rows if r[0] in names) / 1e3 / steps

    events = rep.tap.events[rep.tap_mark[0]:]
    codec_ns = sum(r[3] for r in rows if r[0].startswith("protocol.") and r[1] != "tap")
    moments = [r for r in rows if r[0] == "dp.log_moment"]
    return {
        "workers.msgs_per_step": len(events) / steps,
        "workers.bytes_per_step": sum(e.nbytes for e in events) / steps,
        "workers.store_us": med_us("workers.store"),
        "workers.fetch_us": med_us("workers.fetch"),
        "workers.delete_us": med_us("workers.delete"),
        "workers.execute_us": med_us("workers.execute"),
        "workers.objects_end": rep.objects_end - rep.objects_start,
        "protocol.codec_us_per_step": codec_ns / 1e3 / steps,
        "commands.fb_batch_us": med_us("commands.fb_batch"),
        "commands.dp_phase_us": med_us("commands.dp_phase"),
        "commands.trunc_share_us_per_step": self_us_per_step("commands.trunc_share"),
        "commands.beaver_combine_us_per_step": self_us_per_step("commands.beaver_combine"),
        "commands.gen_triples_s": sum(s.self_ns for s in setup
                                      if s.name == "commands.gen_triples") / 1e9,
        "nn.forward_backward_us": med_us("nn.forward_backward"),
        # the accountant's entry points, inclusive of the log-moments they
        # evaluate; log_moment's own time is dp.log_moment_ms
        "dp.calibrate_s": sum(r[2] for r in rows if r[0] == "dp.calibrate_sigma") / 1e9,
        "dp.ledger_record_s": sum(r[2] for r in rows if r[0] == "dp.MomentLedger.record"
                                  and r[1] != "dp.calibrate_sigma") / 1e9,
        "dp.log_moment_calls": len(moments),
        "dp.log_moment_ms": sum(r[3] for r in moments) / 1e6,
        "dp.log_moment_repeat_frac": rep.moments.repeats / max(rep.moments.calls, 1),
        "dp.sanitize_lot_us": med_us("dp.sanitize_lot"),
        "spdz.share_us_per_step": self_us_per_step("spdz.share"),
        "spdz.materialize_us_per_step": self_us_per_step("spdz.materialize"),
        "spdz.beaver_us_per_step": self_us_per_step("spdz.beaver_mul", "spdz.matmul_shared"),
        "spdz.trunc_shared_us_per_step": self_us_per_step("spdz.trunc_shared"),
        "spdz.reconstruct_us_per_step": self_us_per_step("spdz.reconstruct"),
        "spdz.openings_per_step": (rep.tap.openings - rep.tap_mark[1]) / steps,
        "spdz.max_err_ulps": rep.max_err * 2.0 ** 16,
        "train.leader_self_us_per_step": (rep.loop_s * 1e9 - handle_ns) / 1e3 / steps,
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    rep = Rep(args.trace)
    try:
        WORKLOADS[args.workload](rep, args.seed, args.trace)
    except Exception:
        # the operation that raised fails on top of those already tallied
        traceback.print_exc()
        print(json.dumps({"attempted": rep.tally.attempted + 1,
                          "failed": rep.tally.failed + 1}), flush=True)
        return 1
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kb += sum(r["maxrss_kb"] for r in rep.worker_reports.values())
    out = {
        "setup_s": rep.setup_s,
        "job_s": rep.job_s,
        "loop_s": rep.loop_s,
        "rows": rep.rows,
        "step_ms": rep.step_ms,
        "peak_rss_mb": rss_kb / 1024.0,
        "attempted": rep.tally.attempted,
        "failed": rep.tally.failed,
        "max_err_ulps": rep.max_err * 2.0 ** 16,
    }
    if args.trace:
        out["layers"] = layer_metrics(rep)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
