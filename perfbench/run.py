"""wittcalc benchmark: three workloads, end-to-end metrics untraced and
per-layer metrics from a separate traced run.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload q-arith --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload q-arith --seed 1 --trace 1
    python3 perfbench/run.py --workload cli --repeat 10 --seconds 20
    python3 perfbench/run.py --workload formal-lift --check-calls --seed 3

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "out"
SETUP_SAMPLES = 5
CLI_SETUP_SAMPLES = 3
INTERPRETER_SAMPLES = 5
#: the tail is the latency with this many operations beyond it
TAIL_BEYOND = 10
#: Host speed.  On the host this benchmark was tuned on, one Python loop runs
#: at two speeds that alternate every few seconds (the reference below takes
#: 4 ms or 6.8 ms).  So a run times the reference every REF_EVERY_S of timed
#: work, and scales each operation's time by REF_NOMINAL_S over the mean of
#: the reference samples just before and after it: end-to-end times read as
#: at the nominal speed.  The unscaled figures go to standard error.
REF_EVERY_S = 0.25
REF_NOMINAL_S = 0.004
WORKLOADS = ("q-arith", "formal-lift", "cli")

#: per-layer metrics the traced run prints: every call count and raised
#: count, and the self time of each function that every workload calls
SELF_MS_REPORTED = (
    "fields.canonicalize",
    "fields.sq_mul",
    "fields.basis_factors",
    "witt.lambda_power",
    "witt.witt_mul",
    "witt.make_witt",
    "witt.witt_eq",
    "cohomology.symbol_normalize",
    "cohomology.cup",
    "cohomology.sw",
    "cohomology.sw_mod",
    "etale.trace_form",
    "weyl.twist",
    "weyl.eval_aK",
    "weyl.eval_aL",
    "weyl.eval_u",
    "weyl.eval_v_prime",
    "weyl.lift_u",
    "weyl.lift_v_prime",
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# running rounds


def reference() -> float:
    """Time a fixed pure-Python loop of int arithmetic and dict updates."""
    t0 = time.perf_counter()
    acc: dict = {}
    x = 1
    for i in range(12000):
        x = (x * 1103515245 + 12345) % 2**61
        key = (x % 97, i % 13)
        acc[key] = acc.get(key, 0) + 1
    return time.perf_counter() - t0


class HostSpeed:
    """Reference samples taken through a run, between operations."""

    def __init__(self) -> None:
        self.last = reference()

    def scale(self) -> float:
        """Factor for the times measured since the previous sample."""
        now = reference()
        factor = REF_NOMINAL_S * 2 / (self.last + now)
        self.last = now
        return factor

    def scaled(self, seconds: float) -> float:
        """A time measured just now, at the nominal speed."""
        return seconds * self.scale()


def run_ops(ops, speed: HostSpeed):
    """Run the operations one at a time; returns (op, ok, result, seconds,
    scaled seconds) for each.  Reference samples fall between operations,
    outside their times, and checks are left to the caller."""
    outcomes = []
    batch = []
    pending = 0.0
    clock = time.perf_counter
    for op in ops:
        s = clock()
        try:
            result, ok = op.run(), True
        except Exception as exc:  # counted as a failed operation
            result, ok = exc, False
        dt = clock() - s
        batch.append((op, ok, result, dt))
        pending += dt
        if pending >= REF_EVERY_S or len(outcomes) + len(batch) == len(ops):
            factor = speed.scale()
            outcomes += [(*o, o[3] * factor) for o in batch]
            batch, pending = [], 0.0
    return outcomes


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.repeats = 0
        self.seconds = 0.0  # timed phase, as measured
        self.scaled_seconds = 0.0  # timed phase, at the nominal speed
        self.latencies: list[float] = []
        self.scaled_latencies: list[float] = []
        self.reported: set[str] = set()

    def add(self, outcomes) -> None:
        for op, ok, result, dt, scaled in outcomes:
            self.attempted += 1
            self.repeats += op.repeats_torsor
            self.seconds += dt
            self.scaled_seconds += scaled
            if not ok:
                self.failed += 1
                self._note(f"failed {op.kind}: {type(result).__name__}: {result}")
                continue
            self.latencies.append(dt)
            self.scaled_latencies.append(scaled)
            if not op.check(result):
                self.correct = False
                self._note(f"WRONG {op.kind}: {result!r:.300}")

    def _note(self, line: str) -> None:
        key = line.split(":")[0]
        if key not in self.reported:
            self.reported.add(key)
            print(line, file=sys.stderr)


class Workload:
    """Builds rounds of one workload; round 0 is built by setup()."""

    def __init__(self, name: str, seed: int, in_process_cli: bool = False) -> None:
        self.name = name
        self.seed = seed
        self.in_process_cli = in_process_cli
        self.workdir = OUT / f"work-{os.getpid()}"

    def setup(self):
        """Import wittcalc and build round 0 (for cli: write its payloads and
        make one call that is not counted)."""
        import workloads

        if self.name == "cli":
            self.cli = workloads.Cli(ROOT, self.in_process_cli)
            ops = self.round(0)
            ops[0].run()
            return ops
        workloads.import_program()
        return self.round(0)

    def round(self, rnd: int):
        import workloads

        if self.name == "q-arith":
            return workloads.q_arith_round(self.seed, rnd)
        if self.name == "formal-lift":
            return workloads.formal_lift_round(self.seed, rnd)
        return workloads.cli_round(self.seed, rnd, self.cli, self.workdir / f"r{rnd}")

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def measure_setup(workload: str, seed: int, speed: HostSpeed) -> float:
    """Median set-up time at the nominal speed.  Library workloads set up in
    fresh interpreters, so that the import of wittcalc is measured each time;
    cli writes its payloads and makes one call, several times in this
    process."""
    samples = []
    if workload == "cli":
        for _ in range(CLI_SETUP_SAMPLES):
            wl = Workload(workload, seed)
            t0 = time.perf_counter()
            wl.setup()
            samples.append(speed.scaled(time.perf_counter() - t0))
            wl.close()
        return statistics.median(samples)
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe-setup", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(speed.scaled(float(proc.stdout.strip().splitlines()[-1])))
    return statistics.median(samples)


def probe_setup(workload: str, seed: int) -> None:
    import oracles  # noqa: F401 -- benchmark tooling, outside the set-up time
    import workloads  # noqa: F401

    t0 = time.perf_counter()
    Workload(workload, seed).setup()
    print(time.perf_counter() - t0)


def tail_of(latencies: list[float]) -> float:
    ordered = sorted(latencies)
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    speed = HostSpeed()
    setup_s = measure_setup(workload, seed, speed)
    wl = Workload(workload, seed)
    tally = Tally()
    try:
        ops = wl.setup()
        rnd = 0
        while tally.seconds < seconds:
            if rnd:
                ops = wl.round(rnd)
            tally.add(run_ops(ops, speed))
            rnd += 1
    finally:
        wl.close()
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    lat = tally.scaled_latencies
    if len(lat) < 4 * TAIL_BEYOND:
        print(f"perfbench: only {len(lat)} operations completed; the tail is no tail", file=sys.stderr)
    completed = tally.attempted - tally.failed
    raw = tally.latencies
    print(
        f"{workload} seed {seed}: {rnd} rounds, {tally.attempted} operations in {tally.seconds:.2f} s; "
        f"tail = p{100 * (1 - TAIL_BEYOND / max(len(lat), 1)):.1f}; "
        f"{tally.repeats} operations repeat a torsor of their round; unscaled: "
        f"{completed / tally.seconds:.4f} ops/s, p50 {statistics.median(raw) * 1e3:.4f} ms, "
        f"tail {tail_of(raw) * 1e3:.4f} ms",
        file=sys.stderr,
    )
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (completed / tally.scaled_seconds, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_of(lat) * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return result(tally, metrics)


def result(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# traced run


def interpreter_ms(code: str) -> float:
    samples = []
    for _ in range(INTERPRETER_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True, timeout=60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def run_traced(workload: str, seed: int) -> dict:
    """Round 0 untraced, traced, and untraced again: per-layer counts and
    self times of the traced pass, and the tracing overhead as its time over
    the faster untraced time, both at the nominal speed."""
    from layers import FUNCTIONS, Tracer

    wl = Workload(workload, seed, in_process_cli=True)
    speed = HostSpeed()
    tally = Tally()
    tracer = Tracer()
    try:
        ops = wl.setup()
        before = sum(o[4] for o in run_ops(ops, speed))
        tracer.install()
        try:
            outcomes = run_ops(ops, speed)
        finally:
            tracer.uninstall()
        after = sum(o[4] for o in run_ops(ops, speed))
        tally.add(outcomes)
    finally:
        wl.close()
    traced_wall, untraced_wall = tally.scaled_seconds, min(before, after)
    table = tracer.metrics()
    bare = interpreter_ms("pass")
    table["cli.interpreter_ms"] = (bare, "ms")
    table["cli.import_ms"] = (interpreter_ms("import wittcalc.cli") - bare, "ms")
    table["trace_overhead"] = (traced_wall / untraced_wall, "ratio")
    OUT.mkdir(exist_ok=True)
    full = OUT / f"layers-{workload}-seed{seed}.json"
    full.write_text(json.dumps({k: {"value": v, "unit": u} for k, (v, u) in table.items()}, indent=1))
    print(f"full layer table: {full.relative_to(ROOT)}", file=sys.stderr)
    for key in FUNCTIONS:
        calls, self_ms = table[f"{key}.calls"][0], table[f"{key}.self_ms"][0]
        if calls:
            print(f"  {key:32s} {calls:9d} calls {self_ms:11.2f} ms self", file=sys.stderr)
    return result(tally, {k: table[k] for k in per_layer_names()})


def per_layer_names() -> list[str]:
    """The per-layer metrics of BENCHMARK.json, in its order."""
    from layers import FUNCTIONS, LAYERS

    return (
        [f"{key}.calls" for key in FUNCTIONS]
        + [f"{key}.self_ms" for key in SELF_MS_REPORTED]
        + [f"{module}.raised" for module in LAYERS]
        + ["cli.import_ms", "cli.interpreter_ms", "trace_overhead"]
    )


# ---------------------------------------------------------------------------
# repeat mode and the call-count check


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if proc.returncode != 0:
        fail(f"run with seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return last_json_line(proc.stdout)


def repeat(workload: str, first_seed: int, n: int, seconds: int) -> None:
    """Run n untraced runs with seeds first_seed.. and print each metric's
    median, quartiles and spread (interquartile distance over median)."""
    runs = []
    for seed in range(first_seed, first_seed + n):
        runs.append(run_child(workload, seed, seconds, 0))
        print(f"seed {seed}: {json.dumps(runs[-1])}", file=sys.stderr)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
        print(f"{name:12s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  spread {100 * (q3 - q1) / med:5.1f} %")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed share: {shares}; correct: {all(r['correct'] for r in runs)}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"repeat-{workload}.json").write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))


def check_calls(workload: str, seed: int) -> None:
    """Two traced runs with one seed must give identical call counts."""
    a, b = (run_child(workload, seed, 1, 1) for _ in range(2))
    calls = [k for k in a["metrics"] if k.endswith(".calls")]
    diff = [k for k in calls if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
    print(f"{workload} seed {seed}: {len(calls)} call counts, {len(diff)} differ {diff}")
    if diff:
        sys.exit(1)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0, help="run this many seeds and summarize")
    ap.add_argument("--check-calls", action="store_true", help="compare two traced runs")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (ROOT / "src" / "wittcalc" / "__init__.py").is_file():
        fail(f"run from the root of a wittcalc checkout; {ROOT / 'src' / 'wittcalc'} is missing")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # cohomology.is_zero iterates a set of ints and "inf": pin the order
        os.execve(sys.executable, [sys.executable, *sys.argv], dict(os.environ, PYTHONHASHSEED="0"))
    sys.path.insert(0, str(ROOT / "src"))
    # the reference samples the speed of the CPU the work runs on: keep this
    # process and its children on one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.probe_setup:
        probe_setup(args.workload, args.seed)
    elif args.repeat:
        repeat(args.workload, args.seed, args.repeat, args.seconds)
    elif args.check_calls:
        check_calls(args.workload, args.seed)
    elif args.trace:
        print(json.dumps(run_traced(args.workload, args.seed)))
    else:
        print(json.dumps(run_untraced(args.workload, args.seed, args.seconds)))


if __name__ == "__main__":
    main()
