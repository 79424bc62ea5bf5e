"""Run ``compuniformer serve`` under the benchmark's tracer.

Usage: ``python3 perfbench/traced_serve.py SPANS_PATH serve [serve args]``

Besides the layers every traced run wraps, each sweep request becomes a
``serve.request`` root span, tagged ``hit`` or ``miss`` from the
``cached`` flags of its result event, and each hand-off to the process
pool an ``api.pool_dispatch`` span whose children are the worker's own
spans.  The spans are written to ``SPANS_PATH`` when the server exits.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracer import TRACER  # noqa: E402


def install_serve_spans() -> None:
    from repro.serve.server import SweepServer

    handle_sweep = SweepServer._handle_sweep
    run_job = SweepServer._run_job

    @functools.wraps(handle_sweep)
    async def traced_handle_sweep(self, request, send):
        with TRACER.root("serve.request") as span:

            async def tagging_send(message):
                if message.get("event") == "result":
                    runs = message["result"]["runs"]
                    span.attrs["kind"] = (
                        "hit" if all(r["cached"] for r in runs) else "miss"
                    )
                await send(message)

            await handle_sweep(self, request, tagging_send)

    @functools.wraps(run_job)
    async def traced_run_job(self, job):
        with TRACER.span("api.pool_dispatch") as span:
            run = await run_job(self, job)
        TRACER.adopt(getattr(run, "_perfbench_spans", []), span)
        return run

    SweepServer._handle_sweep = traced_handle_sweep
    SweepServer._run_job = traced_run_job


def main(argv) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    TRACER.install()
    install_serve_spans()
    from repro.cli import main as cli_main

    try:
        return cli_main(serve_args)
    finally:
        TRACER.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
