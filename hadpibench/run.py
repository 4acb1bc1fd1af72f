#!/usr/bin/env python3
"""hadpi end-to-end benchmark.

    python3 hadpibench/run.py --workload synth --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (it imports `src/hadpi`).  One
process, one thread, one operation at a time (a closed loop with one
client).  The seed gives the inputs, --seconds the amount of work; every
op runs REPEATS times and every output is checked.  The last stdout line
holds the metrics:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics; --trace 1 gives the per-layer
metrics of the middle repetition, run traced, and writes its spans under
.bench_out/.  See README.md.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "nf_gens": "count",
    "spawn_p50_ms": "ms",
}

PER_LAYER = {
    # synthesis and rt2 reduction: should move synth, not translate
    "core.reduce_nums.calls": "calls/op",
    "core.reduce_nums.ms": "ms/op",
    "core.reduce_nums.passes": "count/op",
    "core.reduce_nums.useful_ratio": "ratio",
    "linalg.apply_generator_rows.calls": "calls/op",
    "linalg.apply_generator_rows.ms": "ms/op",
    "linalg.level_scan.calls": "calls/op",
    "linalg.level_scan.ms": "ms/op",
    "synthesis.synthesize.self_ms": "ms/op",
    "synthesis.syllables": "count/op",
    "synthesis.nf_growth": "ratio",
    # dense evaluation: should move translate
    "lang.sem.calls": "calls/op",
    "lang.sem.self_ms": "ms/op",
    "linalg.matmul.calls": "calls/op",
    "linalg.matmul.ms": "ms/op",
    "linalg.tensor.calls": "calls/op",
    "linalg.direct_sum.calls": "calls/op",
    "core.mat_mul_nums.calls": "calls/op",
    "core.mat_mul_nums.ms": "ms/op",
    "core.mat_mul_nums.madds": "count/op",
    "translate.t_q.ms": "ms/op",
    "translate.wsem.ms": "ms/op",
    "translate.t_h.ms": "ms/op",
    "translate.report.ms": "ms/op",
    "translate.t_q.leaves": "count/op",
    # per-call cost: should move equiv-cli and spawn time
    "cli.main.self_ms": "ms/op",
    "lang.parse_term.ms": "ms/op",
    "lang.infer_source.ms": "ms/op",
    "lang.typecheck.ms": "ms/op",
    "words.parse_word.ms": "ms/op",
    "words.apply_step.calls": "calls/op",
    "words.apply_step.ms": "ms/op",
    "words.verify_relation.calls": "calls/op",
    "words.verify_relation.ms": "ms/op",
    # verification share, all workloads
    "words.word_sem.ms": "ms/op",
    "words.word_sem.gens_per_s": "gens/s",
    # where the op time goes
    "lang.sem.share": "ratio",
    "synthesis.synthesize.share": "ratio",
    "layer.bench.self_share": "ratio",
    **{
        f"layer.{layer}.self_share": "ratio"
        for layer in ("ring", "_core", "linalg", "synthesis", "words", "lang", "translate", "cli")
    },
    "trace.op_ms": "ms/op",
    "trace.spans": "count/op",
    "trace.overhead": "ratio",
}

# Latency percentiles the tail may be reported at.  Each workload caps
# its tail at the percentile a normal run fills with >= 10 samples beyond
# it and (on equiv-cli) below the share of known failures, so the series
# stays at one percentile; a run with fewer samples steps down the grid.
# Every op runs REPEATS times, each repetition in its own seeded order;
# its latency is the median of its timings, each rescaled to the reference
# host speed (speed.py).  ROUNDS_PER_S sizes the op list from --seconds so
# that a run spends about --seconds in ops on a 2-core x86 machine with the
# pure-Python backend; the work, not the time, is then fixed for a seed.
REPEATS = 3
ROUNDS_PER_S = {"synth": 0.83, "translate": 0.2, "equiv-cli": 0.93}

PERCENTILES = (50, 75, 90, 95, 99, 99.5, 99.9)
TAIL_CAP = {"synth": 75, "translate": 75, "equiv-cli": 90}


def _env_stamp(seed: int) -> dict:
    from hadpi import _core

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    backend = _core.BACKEND
    return {
        "backend": backend,
        "HADPI_BACKEND": os.environ.get("HADPI_BACKEND", ""),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
        # runs of different backends or interpreters are different series
        "series": f"{backend}-py{sys.version_info.major}.{sys.version_info.minor}",
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class ProcessProbe:
    """Set-up and spawn samples, taken at points spread over the run.

    setup_s is the median of the times to import hadpi.cli, in this process
    and in fresh interpreters.  spawn_p50_ms is the median over a fixed
    batch of real `hadpi` subprocess calls of each call's median wall time.
    Both are rescaled to the reference host speed.
    """

    IMPORT = (
        "import time; t = time.perf_counter(); import hadpi.cli; "
        "print(time.perf_counter() - t)"
    )

    def __init__(self, workload: str, seed: int, own_import_s: float, host: speed.Speed):
        import workloads

        self.batch = workloads.spawn_batch(workload, random.Random(f"{seed}-{workload}-spawn"))
        self.host = host
        self.imports = [own_import_s * speed.REFERENCE_S / host.sample()]
        self.spawns: list[list[float]] = [[] for _ in self.batch]
        self.ok = True

    def _run(self, argv: list[str], stdin: str = ""):
        """Run a child interpreter; returns (result, seconds, speed scale),
        the scale from host speed samples taken just before and after."""
        before = self.host.sample()
        t0 = time.perf_counter()
        res = subprocess.run(
            [sys.executable, *argv], input=stdin, env=_child_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
        dt = time.perf_counter() - t0
        return res, dt, 2 * speed.REFERENCE_S / (before + self.host.sample())

    def sample(self) -> None:
        for _ in range(2):
            res, _, scale = self._run(["-c", self.IMPORT])
            res.check_returncode()
            self.imports.append(float(res.stdout) * scale)
        for (argv, stdin, check), times in zip(self.batch, self.spawns):
            res, dt, scale = self._run(["-m", "hadpi.cli", *argv], stdin)
            times.append(dt * scale)
            self.ok = self.ok and check(res.returncode, res.stdout)

    def setup_s(self) -> float:
        return statistics.median(self.imports)

    def spawn_ms(self) -> float:
        return statistics.median(statistics.median(t) for t in self.spawns) * 1e3


class Outcome:
    """What the op loop saw over all repetitions of one op list."""

    def __init__(self, ops):
        self.ops = ops
        self.times: list[list[float]] = [[] for _ in ops]  # per op, per untraced repetition
        self.failed_at: list[str | None] = [None] * len(ops)  # failure name, if any
        self.texts: list[str | None] = [None] * len(ops)  # output of the first repetition
        self.nf: list[list[str]] = [[] for _ in ops]
        self.rep_time: list[float] = []  # op time of each repetition
        self.traced_scale = 1.0  # reference speed / host speed while traced
        self.failures: dict[str, int] = {}
        self.wrong: list[str] = []
        self.unknown: list[str] = []
        self.attempted = 0
        self.failed = 0

    def fail(self, workload: str, i: int, exc: Exception) -> None:
        import workloads

        self.failed += 1
        name = "WrongOutput" if isinstance(exc, workloads.Mismatch) else type(exc).__name__
        self.failures[name] = self.failures.get(name, 0) + 1
        if self.failed_at[i] is None:
            self.failed_at[i] = name
        # ENAMETOOLONG: an inline argument over 255 bytes reached Path.is_file
        # in the CLI's input reader, a known defect
        known = (
            workload == "equiv-cli"
            and isinstance(exc, OSError)
            and exc.errno == errno.ENAMETOOLONG
        )
        if name == "WrongOutput":
            self.wrong.append(f"{self.ops[i].kind}: {exc}")
        elif not known:
            self.unknown.append(f"{self.ops[i].kind}: {exc!r}")

    def latencies(self) -> list[float]:
        """Per op: the median of its repetitions, or inf if it failed."""
        return [math.inf if f else statistics.median(t) for f, t in zip(self.failed_at, self.times)]

    def nf_texts(self) -> list[str]:
        return [t for nf in self.nf for t in nf]

    def out_texts(self) -> list[str]:
        return [t if t is not None else f"failed: {f}" for t, f in zip(self.texts, self.failed_at)]


def digest(texts: list[str]) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def plan(workload: str, seed: int, seconds: float, size: str):
    import workloads

    rounds = max(1, round(seconds * ROUNDS_PER_S[workload]))
    return workloads.WORKLOADS[workload](random.Random(f"{seed}-{workload}"), size, rounds)


def run_ops(workload: str, ops, seed: int, host: speed.Speed,
            tracer=None, traced_rep: int = -1, between=None) -> Outcome:
    """Run every op REPEATS times, each repetition in its own seeded
    order; with a tracer, repetition `traced_rep` runs traced.  `between`
    is called before each repetition and after the last.  Each op time is
    rescaled by the mean of the host speed samples just before and after."""
    import workloads

    res = Outcome(ops)
    order_rng = random.Random(f"{seed}-{workload}-order")
    for rep in range(REPEATS):
        if between is not None:
            between()
        order = list(range(len(ops)))
        order_rng.shuffle(order)
        traced = rep == traced_rep
        if traced:
            tracer.install()
        first = len(host.samples)
        host.sample()
        timed = []  # (op, seconds, index of the host sample before it)
        try:
            for i in order:
                op = ops[i]
                if host.stale():
                    host.sample()
                err = None
                t0 = time.perf_counter()
                try:
                    out = tracer.run_op(i, op.run) if traced else op.run()
                except Exception as exc:  # an escaped exception fails the op
                    err = exc
                dt = time.perf_counter() - t0
                timed.append((i, dt, len(host.samples) - 1))
                if dt > host.EVERY_S:
                    host.sample()
                res.attempted += 1
                if err is None:
                    try:
                        nf, text = op.check(out)
                        if res.texts[i] is None:
                            res.texts[i], res.nf[i] = text, nf
                        elif text != res.texts[i]:
                            raise workloads.Mismatch("output changed between repetitions")
                    except workloads.Mismatch as exc:
                        err = exc
                if err is not None:
                    res.fail(workload, i, err)
        finally:
            if traced:
                tracer.uninstall()
        host.sample()
        total = 0.0
        for i, dt, k in timed:
            t = dt * 2 * speed.REFERENCE_S / (host.samples[k] + host.samples[k + 1])
            total += t
            if not traced:
                res.times[i].append(t)
        res.rep_time.append(total)
        if traced:
            res.traced_scale = speed.REFERENCE_S / statistics.mean(host.samples[first:])
    if between is not None:
        between()
    return res


def tail(latencies: list[float], cap: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) of the highest grid percentile
    up to cap that has >= 10 samples beyond it and a finite value."""
    xs = sorted(latencies)
    n = len(xs)
    rank = math.ceil(0.5 * n)
    best = (50, xs[rank - 1], n - rank)
    for p in PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if p <= cap and n - rank >= 10 and xs[rank - 1] != math.inf:
            best = (p, xs[rank - 1], n - rank)
    return best


def end_to_end(res: Outcome, workload: str, setup_s: float, spawn_ms: float):
    import workloads

    lat = res.latencies()
    ok = sum(1 for t in lat if t != math.inf)
    p, tail_s, beyond = tail(lat, TAIL_CAP[workload])
    values = {
        "ops_per_s": ok / sum(statistics.median(t) for t in res.times),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "nf_gens": sum(workloads.gens_in(t) for t in res.nf_texts()),
        "spawn_p50_ms": spawn_ms,
    }
    return values, {"tail_percentile": p, "tail_beyond": beyond}


def per_layer(tracer, res: Outcome, traced_rep: int) -> dict:
    import tracing
    import workloads

    tot = tracer.totals()
    ops = len(res.ops)
    op_s = tot["bench.op"]["s"]
    ms = 1e3 * res.traced_scale / ops  # seconds in the traced repetition -> ms/op
    values = {}
    for name in PER_LAYER:
        base, _, stat = name.rpartition(".")
        rec = tot.get(base, {"calls": 0, "s": 0.0, "self_s": 0.0})
        if stat == "calls":
            values[name] = rec["calls"] / ops
        elif stat == "ms":
            values[name] = rec["s"] * ms
        elif stat == "self_ms":
            values[name] = rec["self_s"] * ms
    c = tracer.counts
    rn_calls = tot["core.reduce_nums"]["calls"]
    ws = tot["words.word_sem"]["s"]
    in_gens = sum(op.in_gens for op in res.ops)
    nf_gens = sum(workloads.gens_in(t) for op, nf in zip(res.ops, res.nf) if op.in_gens for t in nf)
    untraced = [t for r, t in enumerate(res.rep_time) if r != traced_rep]
    values.update({
        "core.reduce_nums.passes": c["core.reduce_nums.passes"] / ops,
        "core.reduce_nums.useful_ratio": c["core.reduce_nums.useful"] / rn_calls if rn_calls else 0.0,
        "synthesis.syllables": c["synthesis.syllables"] / ops,
        "synthesis.nf_growth": nf_gens / in_gens if in_gens else 0.0,
        "core.mat_mul_nums.madds": c["core.mat_mul_nums.madds"] / ops,
        "translate.t_q.leaves": c["translate.t_q.leaves"] / ops,
        "words.word_sem.gens_per_s": (
            c["words.word_sem.gens"] / (ws * res.traced_scale) if ws else 0.0
        ),
        "lang.sem.share": tot["lang.sem"]["s"] / op_s,
        "synthesis.synthesize.share": tot["synthesis.synthesize"]["s"] / op_s,
        "layer.bench.self_share": tot["bench.op"]["self_s"] / op_s,
        "trace.op_ms": op_s * ms,
        "trace.spans": len(tracer.start) / ops,
        "trace.overhead": res.rep_time[traced_rep] / statistics.mean(untraced),
    })
    for layer, entries in tracing.ENTRY_POINTS.items():
        spans = {span for span, _, _ in entries}
        values[f"layer.{layer}.self_share"] = sum(tot[s]["self_s"] for s in spans) / op_s
    return values


def run(workload: str, seed: int, seconds: float, trace_on: bool, size: str = "full",
        out_dir: Path | None = None, own_import_s: float = 0.0) -> tuple[dict, dict]:
    """One benchmark run; returns (report, result line)."""
    stamp = _env_stamp(seed)
    ops = plan(workload, seed, seconds, size)
    report = {"workload": workload, "size": size, "ops": len(ops), "repeats": REPEATS, **stamp}
    host = speed.Speed()
    ok = True
    if not trace_on:
        probe = ProcessProbe(workload, seed, own_import_s, host)
        res = run_ops(workload, ops, seed, host, between=probe.sample)
        values, info = end_to_end(res, workload, probe.setup_s(), probe.spawn_ms())
        units = END_TO_END
        ok = probe.ok
        report.update(info, spawn_ok=ok)
    else:
        import tracing

        # the traced repetition sits between the untraced ones it is
        # compared with
        tracer = tracing.Tracer()
        res = run_ops(workload, ops, seed, host, tracer=tracer, traced_rep=REPEATS // 2)
        values = per_layer(tracer, res, traced_rep=REPEATS // 2)
        units = PER_LAYER
        path = (out_dir or ROOT / ".bench_out") / f"spans-{workload}.bin"
        tracer.dump(path, {"workload": workload, **stamp})
        report["spans_file"] = str(path)
    report.update(
        attempted=res.attempted,
        failed=res.failed,
        fail_ratio=res.failed / res.attempted,
        failures=res.failures,
        wrong_outputs=res.wrong[:5],
        unexpected_failures=res.unknown[:5],
        nf_digest=digest(res.nf_texts()),
        out_digest=digest(res.out_texts()),
        rep_time_s=res.rep_time,
        # the host's speed during the run, as time of the reference kernel
        host_kernel_ms=statistics.median(host.samples) * 1e3,
    )
    result = {
        "correct": bool(ok and not res.wrong and not res.unknown),
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return report, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hadpi end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=["synth", "translate", "equiv-cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: small inputs, for the benchmark's own tests")
    ap.add_argument("--out-dir", type=Path, default=None, help="where spans are written")
    args = ap.parse_args(argv)

    if not (SRC / "hadpi" / "cli.py").is_file():
        print(f"error: no hadpi sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import hadpi.cli  # noqa: F401

    own_import_s = time.perf_counter() - t0

    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.size, args.out_dir, own_import_s)
    print("report " + json.dumps(report, sort_keys=True))
    for name, m in result["metrics"].items():
        extra = ""
        if name == "op_tail_ms":
            extra = f"  (p{report['tail_percentile']}, {report['tail_beyond']} beyond)"
        print(f"{args.workload:10} {name:36} {m['value']:14.6g} {m['unit']}{extra}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
