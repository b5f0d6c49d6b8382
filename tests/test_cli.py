import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from fedring.cli import main
from fedring.errors import TransportError

from test_workers import bits, fetch, local, store
from fedring.workers import SocketClient, WorkerCore, make_server


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestUsage:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as e:
            main(["--help"])
        assert e.value.code == 0

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["accountant", "--bogus"])
        assert e.value.code == 1

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 1


class TestAccountant:
    def test_reference_epsilon(self, capsys):
        code, out, _ = run_main(capsys, "accountant", "--q", "0.01",
                                "--sigma", "4", "--steps", "10000")
        assert code == 0
        assert abs(float(out.strip()) - 1.2586) < 2e-3

    def test_calibration(self, capsys):
        code, out, _ = run_main(capsys, "accountant", "--q", "0.01",
                                "--steps", "1000", "--target-eps", "2.0")
        assert code == 0
        assert 0.5 <= float(out.strip()) <= 64.0

    def test_needs_sigma_or_target(self, capsys):
        code, _, err = run_main(capsys, "accountant", "--q", "0.01", "--steps", "10")
        assert code == 1
        assert "sigma" in err

    def test_unachievable_exits_four(self, capsys):
        code, _, _ = run_main(capsys, "accountant", "--q", "0.5",
                              "--steps", "100000", "--target-eps", "0.0001")
        assert code == 4


class TestTrain:
    def test_plain_summary(self, capsys):
        code, out, _ = run_main(capsys, "train", "--dataset", "boston",
                                "--mode", "plain", "--seed", "1", "--epochs", "2")
        assert code == 0
        summary = json.loads(out)
        assert summary["schema_version"] == 1
        assert summary["metric"] == "mse"
        assert summary["mse"] < 100.0
        assert summary["wall_s"] > 0

    def test_same_seed_same_metric(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run_main(capsys, "train", "--dataset", "pima",
                                    "--seed", "3", "--epochs", "2")
            assert code == 0
            outs.append(json.loads(out)["accuracy"])
        assert outs[0] == outs[1]

    def test_unknown_dataset_exits_one(self, capsys):
        code, _, err = run_main(capsys, "train", "--dataset", "nosuch")
        assert code == 1
        assert "nosuch" in err

    def test_eps_without_dp_exits_one(self, capsys):
        code, _, _ = run_main(capsys, "train", "--dataset", "boston", "--eps", "2")
        assert code == 1

    def test_dp_run_and_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, out, _ = run_main(capsys, "train", "--dataset", "boston",
                                "--dp", "--sigma", "2.5", "--phases", "50",
                                "--seed", "1", "--trace-out", str(trace))
        assert code == 0
        summary = json.loads(out)
        assert summary["dp"] is True
        assert summary["sigma"] == 2.5
        assert summary["epsilon"] > 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "step,wall_ms"  # no loss leaves a DP worker
        assert len(lines) == 51

    def test_csv_path_dataset(self, capsys):
        from fedring.data import bundled_path

        code, out, _ = run_main(capsys, "train", "--dataset", bundled_path("pima"),
                                "--kind", "pima", "--epochs", "1")
        assert code == 0
        assert json.loads(out)["dataset"] == "pima"


class TestDealer:
    def test_zero_count_exits_one(self, capsys):
        code, _, _ = run_main(capsys, "dealer", "--parties", "a,b",
                              "--endpoints", "a=127.0.0.1:1,b=127.0.0.1:2",
                              "--count", "0", "--shape", "2,2,2")
        assert code == 1

    def test_missing_endpoint_exits_one(self, capsys):
        code, _, _ = run_main(capsys, "dealer", "--parties", "a,b",
                              "--endpoints", "a=127.0.0.1:1",
                              "--count", "1", "--shape", "2,2,2")
        assert code == 1

    def test_matmul_needs_three_dims_exits_one(self, capsys):
        code, _, err = run_main(capsys, "dealer", "--parties", "a,b",
                                "--endpoints", "a=127.0.0.1:1,b=127.0.0.1:2",
                                "--kind", "matmul", "--count", "1", "--shape", "2,2")
        assert code == 1
        assert "(m, k, n)" in err

    def test_share_ids_per_triple_and_party(self, capsys):
        """Against two in-process socket workers, share_ids is shaped
        [count, n_parties], each id names an object on its party, and each
        party gains exactly `count` objects per run. A second run against
        the same workers, with the same seed, names none of the first run's
        ids."""
        cores = [WorkerCore(name, 1) for name in ("a", "b")]
        servers = [make_server("127.0.0.1", 0, core) for core in cores]
        threads = [threading.Thread(target=s.serve_forever, daemon=True) for s in servers]
        for t in threads:
            t.start()
        endpoints = ",".join(f"{core.name}={s.server_address[0]}:{s.server_address[1]}"
                             for core, s in zip(cores, servers))
        runs = []
        try:
            for _ in range(2):
                runs.append(run_main(capsys, "dealer", "--parties", "a,b",
                                     "--endpoints", endpoints, "--kind", "matmul",
                                     "--shape", "2,3,2", "--count", "3", "--seed", "4"))
        finally:
            for s in servers:
                s.shutdown()
                s.server_close()
            for t in threads:
                t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert [code for code, _, _ in runs] == [0, 0]
        first, second = (json.loads(out)["share_ids"] for _, out, _ in runs)
        assert [len(row) for row in first] == [len(row) for row in second] == [2, 2, 2]
        assert not {oid for row in first for oid in row} & {oid for row in second for oid in row}
        assert [core.object_count() for core in cores] == [6, 6]
        for core, column in zip(cores, zip(*first, *second)):
            for oid in column:
                assert oid < 1 << 63
                assert fetch(core, oid)


def free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


class TestWorkerProcess:
    def test_lifecycle_and_sigint(self):
        port = free_port()
        proc = subprocess.Popen(
            [sys.executable, "-m", "fedring.cli", "worker", "--id", "w1",
             "--listen", f"127.0.0.1:{port}", "--seed", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 10
            client = None
            while time.monotonic() < deadline:
                try:
                    client = SocketClient("127.0.0.1", port)
                    break
                except TransportError:
                    time.sleep(0.05)
            assert client is not None, "worker never came up"
            store(client, 1, local([1.0, 2.0]))
            assert bits(fetch(client, 1)) == bits(local([1.0, 2.0]))
            client.close()
        finally:
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=10)  # reaps the worker and closes its pipes
        assert proc.returncode == 0

    def test_listening_line_means_bound(self):
        """Once "listening" is printed, one connect with no retry succeeds;
        with port 0 the line names the port actually bound."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "fedring.cli", "worker", "--id", "w1",
             "--listen", "127.0.0.1:0", "--seed", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on 127.0.0.1:" in line
            port = int(line.rsplit(":", 1)[1])
            assert port > 0
            client = SocketClient("127.0.0.1", port)
            store(client, 1, local([3.0]))
            assert bits(fetch(client, 1)) == bits(local([3.0]))
            client.close()
        finally:
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=10)  # reaps the worker and closes its pipes
        assert proc.returncode == 0

    def test_occupied_port_exits_two(self):
        holder = socket.socket()
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        port = holder.getsockname()[1]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "fedring.cli", "worker", "--id", "w1",
                 "--listen", f"127.0.0.1:{port}"],
                capture_output=True, timeout=30,
            )
            assert proc.returncode == 2
        finally:
            holder.close()

    def test_bad_listen_exits_one(self, capsys):
        code, _, _ = run_main(capsys, "worker", "--id", "w", "--listen", "nope")
        assert code == 1


class TestPerfbenchNames:
    def test_tracer_installs(self):
        """perfbench traces the library by wrapping module, class and
        registry names; installing its leader-side spans fails here, not in
        a traced benchmark run, when one of those names is renamed away."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            os.path.join(root, d) for d in ("src", "perfbench")))
        proc = subprocess.run(
            [sys.executable, "-c",
             "from spans import Tracer, install_leader_side; install_leader_side(Tracer())"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("workload,expected", [
        ("mpc-infer", {"workers.msgs_per_step": 30, "spdz.openings_per_step": 8,
                       "workers.objects_end": -800, "workers.bytes_per_step": 656_920}),
        ("dp-calibrated", {"workers.msgs_per_step": 1}),
    ])
    def test_traced_run(self, workload, expected):
        """A one-second traced benchmark run passes its gates and counts the
        messages, openings, objects and bytes the protocol promises."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, cwd=root, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True
        assert result["failed"] == 0
        for name, value in expected.items():
            assert result["metrics"][name]["value"] == value, name


class TestBenchmark:
    def test_fields_and_shape(self, capsys):
        code, out, _ = run_main(capsys, "benchmark", "--seed", "1",
                                "--epochs", "1", "--phases", "20", "--runs", "1")
        assert code == 0
        report = json.loads(out)
        for key in ("virtual", "socket", "virtual_dp"):
            assert report[key]["wall_s"] > 0
            assert report[key]["per_batch_ms"] > 0
        assert report["dp_per_batch_ratio"] > 0
        assert report["socket_over_virtual"] > 0
