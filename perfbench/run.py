"""zetarat benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload certify|verify|digits --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, never from an installed copy.  The client generates a seeded request
list (workloads.py), sends each request as argv to zetarat.cli.main in a
long-lived child interpreter (certify, verify) or runs `python -m zetarat`
once per request (digits), checks every output against mpmath after the
timed region (check.py) and prints every metric by name and unit.  The last
stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.  The line before it is {"detail": ...}: raw (unadjusted) times,
error rate, tail percentile and sample counts.

Every time metric is host-adjusted: raw seconds * PROBE_REF_S / the median
of the probe times measured just before and just after the interval
(probe.py).  A probe runs before every request, in the serving process when
there is one.
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probe import PROBE_REF_S, probe  # noqa: E402
import workloads  # noqa: E402
from tracing import SPANS, TRACED, merge  # noqa: E402

PROBES_EACH_SIDE = 2  # probes before and after an interval that adjust it
SERVED_SETUPS = 7  # served set-ups measured per run; the last one serves
COLD_SETUPS = 15  # bare interpreter start + import, for the cold workload
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 120


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing source tree or dependency)."""


@dataclass
class Record:
    argv: list[str]
    code: int
    out: str
    raw_s: float
    t0: float
    t1: float


@dataclass
class Pass:
    records: list[Record] = field(default_factory=list)
    probes: list[tuple[float, float]] = field(default_factory=list)  # (time, seconds)
    setups: list[tuple[float, float]] = field(default_factory=list)  # (raw, adjusted)
    rss_kib: int = 0
    trace: dict | None = None


# ------------------------------------------------------------ host speed


def _probe_near(probes: list[tuple[float, float]], t0: float, t1: float) -> float:
    """Median of the PROBES_EACH_SIDE probe times taken last before t0 and
    first after t1 (probes are in time order)."""
    times = [t for t, _ in probes]
    before = bisect.bisect_right(times, t0)
    after = bisect.bisect_left(times, t1)
    near = probes[max(0, before - PROBES_EACH_SIDE) : before] + probes[after : after + PROBES_EACH_SIDE]
    return statistics.median(s for _, s in near)


def _client_probes(pass_: Pass, count: int) -> None:
    for _ in range(count):
        t = time.perf_counter()
        pass_.probes.append((t, probe()))


# ------------------------------------------------------------ child processes


def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class Server:
    """A serve.py child interpreter speaking JSON lines."""

    def __init__(self, env: dict[str, str], traced: bool, root: Path) -> None:
        cmd = [sys.executable, str(HERE / "serve.py")] + (["--trace"] if traced else [])
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
        )
        try:
            origin = Path(self._read()["ready"]).resolve()
            if root / "src" not in origin.parents:
                raise BenchError(f"zetarat imported from {origin}, not from {root / 'src'}")
        except BaseException:
            self.close()
            raise

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("benchmark server exited unexpectedly")
        return json.loads(line)

    def call(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _timed_setup(pass_: Pass, start) -> object:
    """Run start() between probe groups; record its raw and adjusted time."""
    _client_probes(pass_, PROBES_EACH_SIDE)
    t0 = time.perf_counter()
    handle = start()
    t1 = time.perf_counter()
    _client_probes(pass_, PROBES_EACH_SIDE)
    raw = t1 - t0
    pass_.setups.append((raw, raw * PROBE_REF_S / _probe_near(pass_.probes, t0, t1)))
    return handle


def served_pass(wl, env, root: Path, traced: bool, setups: int) -> Pass:
    """Requests to zetarat.cli.main in one long-lived interpreter."""
    pass_ = Pass()

    def start() -> Server:
        # the warm-up is set-up, not a request: its output is not checked
        server = Server(env, traced, root)
        try:
            server.call({"op": "run", "argv": list(wl.warmup)})
        except BaseException:
            server.close()
            raise
        return server

    for i in range(setups):
        server = _timed_setup(pass_, start)
        if i < setups - 1:
            server.close()
    try:
        server.call({"op": "reset"})
        for argv in wl.requests:
            pass_.probes.append((time.perf_counter(), server.call({"op": "probe"})["s"]))
            t0 = time.perf_counter()
            reply = server.call({"op": "run", "argv": list(argv)})
            t1 = time.perf_counter()
            pass_.records.append(Record(list(argv), reply["code"], reply["out"], reply["s"], t0, t1))
        for _ in range(PROBES_EACH_SIDE):
            pass_.probes.append((time.perf_counter(), server.call({"op": "probe"})["s"]))
        stats = server.call({"op": "stats"})
        pass_.rss_kib = stats["rss_kib"]
        pass_.trace = stats["trace"]
    finally:
        server.close()
    return pass_


def _run_child(cmd: list[str], env: dict[str, str]) -> tuple[int, str, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, time.perf_counter() - t0


def cold_pass(wl, env, root: Path, traced: bool, setups: int) -> Pass:
    """One fresh `python -m zetarat` process per request (caches cold)."""
    pass_ = Pass()
    code, out, _ = _run_child([sys.executable, "-c", "import zetarat; print(zetarat.__file__)"], env)
    if code != 0 or root / "src" not in Path(out.strip()).resolve().parents:
        raise BenchError(f"zetarat does not import from {root / 'src'}: {out.strip()}")
    import_cmd = [sys.executable, "-c", "import zetarat.__main__"]
    # Set-ups are spread over the run, one every few requests, so that their
    # median samples many host phases rather than the one at the start.
    setups_before = Counter(i * len(wl.requests) // setups for i in range(setups))
    for k, argv in enumerate(wl.requests):
        for _ in range(setups_before[k]):
            _timed_setup(pass_, lambda: _run_child(import_cmd, env))
        _client_probes(pass_, 1)
        if traced:
            cmd = [sys.executable, str(HERE / "serve.py"), "--once", "--trace", "--", *argv]
        else:
            cmd = [sys.executable, "-m", "zetarat", *argv]
        t0 = time.perf_counter()
        code, out, raw = _run_child(cmd, env)
        t1 = time.perf_counter()
        trace = None
        if traced and code == 0:
            doc = json.loads(out)
            code, out, trace = doc["code"], doc["out"], doc["trace"]
        pass_.records.append(Record(list(argv), code, out, raw, t0, t1))
        if trace is not None:
            pass_.trace = merge([pass_.trace, trace]) if pass_.trace else trace
    _client_probes(pass_, PROBES_EACH_SIDE)
    pass_.rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return pass_


# ------------------------------------------------------------ checks


def _alpha_beta_source():
    """alpha and beta of a digits request, from an in-process `approx` with
    the same s, n and T (outside the timed region)."""
    import contextlib
    import io

    import zetarat.cli

    cache: dict[tuple[str, ...], tuple[Fraction, Fraction]] = {}

    def alpha_beta(argv: list[str]) -> tuple[Fraction, Fraction]:
        key = tuple(argv[1 : argv.index("--digits")])  # --s p --n m
        if key not in cache:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = zetarat.cli.main(["approx", *key])
            if code != 0:
                raise BenchError(f"approx {' '.join(key)} exited {code}")
            doc = json.loads(buf.getvalue())
            cache[key] = (Fraction(doc["alpha"]), Fraction(doc["beta"]))
        return cache[key]

    return alpha_beta


def check_records(name: str, records: list[Record], root: Path) -> list[str]:
    import check

    if name == "digits":
        sys.path.insert(0, str(root / "src"))
        alpha_beta = _alpha_beta_source()
        fn = lambda argv, code, out: check.check_digits(argv, code, out, alpha_beta)  # noqa: E731
    else:
        fn = {"certify": check.check_approx, "verify": check.check_verify}[name]
    failures = []
    for r in records:
        try:
            reason = fn(r.argv, r.code, r.out)
        except (ValueError, KeyError, BenchError) as exc:  # malformed output
            reason = f"unreadable output: {exc!r}"
        if reason is not None:
            failures.append(f"{' '.join(r.argv)}: {reason}")
    return failures


# ------------------------------------------------------------ metrics


def _tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples
    beyond it, i.e. rank N - TAIL_BEYOND of N sorted values."""
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND, (len(ordered) + 1) // 2)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def _adjusted(pass_: Pass) -> list[float]:
    return [
        r.raw_s * PROBE_REF_S / _probe_near(pass_.probes, r.t0, r.t1) for r in pass_.records
    ]


def end_to_end(pass_: Pass) -> tuple[dict, dict]:
    raw = [r.raw_s for r in pass_.records]
    adj = _adjusted(pass_)
    pct, raw_tail = _tail(raw)
    _, adj_tail = _tail(adj)
    metrics = {
        "setup_s": (statistics.median(a for _, a in pass_.setups), "s"),
        "wall_s": (sum(adj), "s"),
        "request_p50_s": (statistics.median(adj), "s"),
        "request_tail_s": (adj_tail, "s"),
        "peak_rss_mib": (pass_.rss_kib / 1024, "MiB"),
    }
    detail = {
        "raw.setup_s": (statistics.median(r for r, _ in pass_.setups), "s"),
        "raw.wall_s": (sum(raw), "s"),
        "raw.request_p50_s": (statistics.median(raw), "s"),
        "raw.request_tail_s": (raw_tail, "s"),
        "request_tail_percentile": (pct, "%"),
        "requests": (len(raw), "count"),
        "setup_samples": (len(pass_.setups), "count"),
        "host.probe_s": (statistics.median(s for _, s in pass_.probes), "s"),
    }
    return metrics, detail


def _bits(x: Fraction) -> int:
    return abs(x.numerator).bit_length() + x.denominator.bit_length()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(name: str, plain: Pass, traced: Pass) -> tuple[dict, dict]:
    """(metrics, raw): per-layer metrics of the traced pass, and the raw
    (unadjusted) self times.  Self times are host-adjusted by the traced
    pass's adjusted-over-raw request time."""
    tr = traced.trace
    calls, self_s, edges = tr["calls"], tr["self_s"], tr["edges"]
    total = tr["root_s"] or 1.0
    traced_adj = _adjusted(traced)
    scale = _ratio(sum(traced_adj), sum(r.raw_s for r in traced.records))
    m: dict[str, tuple[float, str]] = {}
    raw: dict[str, tuple[float, str]] = {}
    for span in SPANS:
        m[f"{span}.calls"] = (calls[span], "count")
        m[f"{span}.self_s"] = (self_s[span] * scale, "s")
        raw[f"raw.{span}.self_s"] = (self_s[span], "s")
    for layer, fns in TRACED.items():
        m[f"{layer}.self_share"] = (sum(self_s[f"{layer}.{fn}"] for fn in fns) / total, "ratio")
    m["solver.bounds.fallback_ratio"] = (_ratio(tr["bound_fallbacks"], tr["bound_orders"]), "ratio")
    m["solver.bounds.attempts_per_order"] = (
        _ratio(edges.get("solver.certified_row_bounds>series.eval_special_series", 0), tr["bound_orders"]),
        "ratio",
    )
    renders = calls["numerics.render_decimal"] + calls["numerics.render_interval_decimal"]
    refinements = sum(
        edges.get(f"numerics.{r}>numerics.zeta_reference", 0)
        for r in ("render_decimal", "render_interval_decimal")
    )
    m["numerics.render.refinements"] = (_ratio(refinements, renders), "ratio")
    m["series.partial_fraction_sum.calls_per_decompose"] = (
        _ratio(calls["series.partial_fraction_sum"], calls["series.decompose_integral"]),
        "ratio",
    )
    sizes = {"alpha": [], "beta": [], "theta_bound": []}
    if name == "certify":
        for r in traced.records:
            if r.code == 0:
                doc = json.loads(r.out)
                for key in sizes:
                    sizes[key].append(_bits(Fraction(doc[key])))
    for key, metric in (("alpha", "alpha_bits"), ("beta", "beta_bits"), ("theta_bound", "theta_bits")):
        m[f"solver.{metric}"] = (statistics.median(sizes[key]) if sizes[key] else 0, "bits")
    m["trace.overhead_ratio"] = (_ratio(sum(traced_adj), sum(_adjusted(plain))), "ratio")
    m["host.probe_s"] = (statistics.median(s for _, s in traced.probes), "s")
    return m, raw


# ------------------------------------------------------------ entry point


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _require_checkout(root: Path) -> None:
    if not (root / "src" / "zetarat" / "__init__.py").is_file():
        raise BenchError(f"no zetarat source tree under {root / 'src'}; run from a checkout root")
    try:
        import mpmath  # noqa: F401
    except ImportError as exc:
        raise BenchError(f"mpmath is needed for the output checks: {exc}") from None


def _print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value:>14.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    root = Path.cwd().resolve()
    try:
        _require_checkout(root)
        wl = workloads.build(args.workload, args.seed, args.seconds)
        env = _child_env(root)
        run_pass = served_pass if wl.served else cold_pass
        setups = SERVED_SETUPS if wl.served else COLD_SETUPS
        plain = run_pass(wl, env, root, traced=False, setups=setups)
        passes = [plain]
        if args.trace:
            traced = run_pass(wl, env, root, traced=True, setups=1)
            passes.append(traced)
        failures = [f for p in passes for f in check_records(wl.name, p.records, root)]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(p.records) for p in passes)
    metrics, detail = end_to_end(plain)
    detail["error_rate"] = (len(failures) / attempted, "ratio")
    print(f"workload {wl.name}  seed {args.seed}  {len(wl.requests)} requests  "
          f"closed loop, 1 client, {'one long-lived process' if wl.served else 'one process per request'}")
    for f in failures[:20]:
        print(f"  FAILED {f}")
    _print_metrics("end-to-end (host-adjusted; raw.* unadjusted):", {**metrics, **detail})
    if args.trace:
        metrics, raw = per_layer(wl.name, plain, traced)
        detail.update(raw)
        _print_metrics("per-layer (traced pass; host-adjusted, raw.* unadjusted):", {**metrics, **raw})
    print(json.dumps({"detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()}}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
