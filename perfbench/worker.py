"""One iteration of one workload, in a fresh interpreter.

``run.py`` starts this script once per iteration, so every iteration pays
the module-level caches and memory growth a command-line user pays on
every command.  The last line on stdout is the iteration's result as JSON.

    python perfbench/worker.py paper --seed 20250209 --workdir DIR \\
        --launched T [--spans SPANS_JSON] [--setup-only]
    python perfbench/worker.py served --seed 20250209 --calibrate 10

``--calibrate SECONDS`` (``served`` only) measures the request mix's
closed-loop capacity with 2 connections instead of the timed window;
``served.SHAPES`` records half of it as the open-loop rate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import durable
import paper
import served
from spans import Tracer, clock


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("paper", "served", "durable"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--shape", default="full", choices=("full", "tiny"))
    parser.add_argument("--workdir", type=Path, default=Path("."))
    parser.add_argument("--launched", type=float, default=None,
                        help="clock reading just before this process started")
    parser.add_argument("--spans", default=None,
                        help="trace the iteration and write its spans here")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--calibrate", type=float, default=0.0)
    parser.add_argument("--oracle", type=Path, default=None,
                        help="served: digest the in-process answers to the "
                             "requests keyed in this JSON list")
    args = parser.parse_args(argv)
    launched = args.launched if args.launched is not None else clock()

    if args.oracle is not None:
        keys = json.loads(args.oracle.read_text(encoding="utf-8"))
        result = served.oracle_digests(args.seed, args.shape, keys)
    elif args.workload == "served":
        result = served.run(
            args.seed, args.shape, dict(os.environ), spans_path=args.spans,
            setup_only=args.setup_only, calibrate=args.calibrate,
        )
    else:
        module = paper if args.workload == "paper" else durable
        tracer = None
        if args.spans:
            tracer = Tracer(args.workload)
            tracer.install()
        try:
            result = module.run(
                args.seed, args.shape, args.workdir, launched, tracer,
                setup_only=args.setup_only,
            )
        finally:
            if tracer is not None:
                tracer.remove()
                tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
