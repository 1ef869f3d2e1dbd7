"""Request server run in a child interpreter by run.py.

Served mode (default): one long-lived process, so zetarat's process caches
stay warm, answering JSON-line messages on stdin with JSON lines on stdout:

    {"op": "run", "argv": [...]}  -> {"code": int, "out": str, "s": float}
    {"op": "probe"}               -> {"s": float}
    {"op": "stats"}               -> {"rss_kib": int, "trace": dict | null}
    {"op": "reset"}               -> {}   (clears the trace aggregates)

"s" is the time zetarat.cli.main took; the program's stdout and stderr are
captured into "out".

Once mode (``--once -- ARGV``): run one request in this fresh process and
print {"code", "out", "trace"}; used for the traced pass of cold workloads.

``--trace`` installs tracing.Tracer before the first request.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

from probe import probe


def _run(argv: list[str]) -> tuple[int, str, float]:
    import zetarat.cli  # attribute looked up per call, so tracing wrappers apply

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        start = time.perf_counter()
        try:
            code = zetarat.cli.main(argv)
        except Exception:  # a crash is a failed request, as in `python -m zetarat`
            traceback.print_exc()
            code = 1
        seconds = time.perf_counter() - start
    return code, buf.getvalue(), seconds


def _tracer(enabled: bool):
    if not enabled:
        return None
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def serve(traced: bool) -> None:
    import zetarat

    tracer = _tracer(traced)
    out = sys.stdout

    def reply(obj: dict) -> None:
        out.write(json.dumps(obj) + "\n")
        out.flush()

    reply({"ready": zetarat.__file__})
    for line in sys.stdin:
        msg = json.loads(line)
        op = msg["op"]
        if op == "run":
            code, text, seconds = _run(msg["argv"])
            reply({"code": code, "out": text, "s": seconds})
        elif op == "probe":
            reply({"s": probe()})
        elif op == "stats":
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply({"rss_kib": rss, "trace": tracer.snapshot() if tracer else None})
        elif op == "reset":
            if tracer:
                tracer.reset()
            reply({})
        else:
            raise ValueError(f"unknown op {op!r}")


def once(argv: list[str], traced: bool) -> None:
    tracer = _tracer(traced)
    code, text, _ = _run(argv)
    print(json.dumps({"code": code, "out": text, "trace": tracer.snapshot() if tracer else None}))


if __name__ == "__main__":
    args = sys.argv[1:]
    traced = "--trace" in args
    if "--once" in args:
        once(args[args.index("--") + 1 :], traced)
    else:
        serve(traced)
