"""Socket worker for the benchmark: runs `fedring worker` unchanged and, when
it stops on SIGINT, prints one JSON line with its peak RSS and, with
--trace, its object count and command spans.

    python3 perfbench/worker.py --id alice --listen 127.0.0.1:7001 --seed 1 [--trace]

The leader side is perfbench/leader.py; src/ must be on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

from fedring import cli, workers

from spans import Tracer, install_worker_side


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--id", required=True)
    p.add_argument("--listen", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    tracer = Tracer(phase="job")
    cores = []
    if args.trace:
        install_worker_side(tracer)

        class RecordedCore(workers.WorkerCore):
            def __init__(self, *a, **kw):
                super().__init__(*a, **kw)
                cores.append(self)

        workers.WorkerCore = RecordedCore  # cli looks the class up here

    code = cli.main(["worker", "--id", args.id, "--listen", args.listen,
                     "--seed", args.seed])
    report = {
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "objects": sum(c.object_count() for c in cores) if cores else None,
        "spans": [[s.name, s.parent, s.dur_ns, s.self_ns] for s in tracer.spans],
    }
    print(json.dumps(report), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
