"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python serve_launcher.py SPANS_JSON [repro serve arguments...]``

Runs the same command-line entry point as ``python -m repro serve``, so
the gateway and ``SimulatorServer`` are built exactly as there.  On top of
the class-level wrappers in :data:`spans.TARGETS`, the gateway's own
``service.search.list`` and ``service.videos.list`` are wrapped as the
``serve.backend`` layer.  When the server stops (SIGINT) the wrappers are
removed and the spans are written to ``SPANS_JSON``.
"""

from __future__ import annotations

import sys

from spans import Tracer


def main(argv: list[str]) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    tracer = Tracer("served")
    tracer.install()
    from repro.serve import gateway as gateway_module

    build_gateway = gateway_module.build_gateway

    def traced_build_gateway(*args, **kwargs):
        gateway = build_gateway(*args, **kwargs)
        tracer.wrap_instance(gateway.service.search, "list", "serve.backend")
        tracer.wrap_instance(gateway.service.videos, "list", "serve.backend")
        return gateway

    tracer.replace_function(
        "repro.serve.gateway", "build_gateway", traced_build_gateway
    )
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        tracer.remove()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
