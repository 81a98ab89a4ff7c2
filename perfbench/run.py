"""certiroot benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload planted --seed 0xACCE55 --seconds 22 --trace 0

With --trace 0 the workload runs as a closed loop with one client, in whole
passes over its corpus, for about --seconds, with no hooks installed; the
end-to-end metrics are printed. With --trace 1 it runs every call of the
corpus once without and once with hooks and prints the per-layer metrics. Every call's
output is checked (see README.md); the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import base64
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

SETUPS_PER_PASS = 4
IMPORTTIME_REPEATS = 3
OUT_DIR = workloads.ROOT / ".bench_out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
COMPILED_SOURCE = (Path(__file__).resolve().parent / "workloads.py").read_text()

# Tail percentile per workload, one of 99/95/90/75 with at least ten samples
# beyond it in a run (see min_passes), chosen so that its rank falls inside
# one instance's samples rather than between two instances of a small mix. On
# `coarse`, p95 and above fall among the five slowest of its 82 calls, each
# with about a dozen samples a run, and spread 7-10% between runs; p90 falls
# in a cluster of similar calls of about 70 ms.
TAIL_PCT = {"planted": 99, "deep": 75, "coarse": 90, "cli": 90}

END_TO_END_UNITS = {"setup_s": "s", "calls_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_tail_ms": "ms", "peak_rss_mb": "MB"}


def arithmetic_reference() -> None:
    """Pure-Python integer arithmetic on big integers (Horner steps on 170- to
    400-bit coefficients) and small ones, as certiroot's calls do."""
    coeffs = [(7 ** (60 + 3 * i)) | 1 for i in range(12)]
    acc = 0
    for x in range(1, 70):
        v = 0
        for a in coeffs:
            v = v * x + a
        acc ^= v % 1_000_003
        for j in range(40):
            acc = (acc * 31 + j) & 0xFFFFFFFF


def compile_reference() -> None:
    """Compiling a fixed source, as a set-up's import of certiroot does, and
    a CLI child's start-up and import."""
    compile(COMPILED_SOURCE, "workloads.py", "exec")


# Timed series: (reference work, its median time on the machine the baseline
# was measured on, reference times on each side of a block that set its speed).
# The reference time sets the scale of the series only; see Pace.
REFERENCES = {
    "call": (arithmetic_reference, 0.0005, 5),
    "child": (compile_reference, 0.005, 5),
    "setup": (compile_reference, 0.005, 1),
}


class Pace:
    """The machine's speed through a run, and timings taken at reference speed.

    The host's processor speed shifts by up to 1.6x for a second or more at a
    time, and by more than 10% between runs a minute apart, which no run
    length here averages out. So a fixed piece of reference work, which does
    not touch certiroot, is timed right before every timed block: arithmetic
    before each library call ("call"), and a compile before each CLI child
    ("child") and each set-up ("setup"), whose start-up and import track a
    compile better than arithmetic. A block's wall time is scaled by the
    reference's nominal time over the median of the reference times around
    it. A shift in machine speed moves the reference as much as the block and
    cancels; a change in certiroot moves only the block.
    """

    def __init__(self):
        self.refs: dict[str, list[float]] = {series: [] for series in REFERENCES}
        self.samples: dict[str, list[tuple[int, float]]] = {series: [] for series in REFERENCES}

    def tick(self, series: str) -> None:
        t0 = time.perf_counter()
        REFERENCES[series][0]()
        self.refs[series].append(time.perf_counter() - t0)

    def record(self, series: str, seconds: float) -> None:
        """A block's wall time, taken right after the series' latest tick."""
        self.samples[series].append((len(self.refs[series]) - 1, seconds))

    def wall(self, series: str) -> list[float]:
        return [seconds for _, seconds in self.samples[series]]

    def scaled(self, series: str) -> list[float]:
        """The series' times at reference speed."""
        _, nominal, window = REFERENCES[series]
        refs = self.refs[series]
        return [seconds * nominal / statistics.median(refs[max(0, i - window + 1):i + window + 1])
                for i, seconds in self.samples[series]]


def setup(name: str, seed: int, workdir: Path):
    """Import certiroot and build the workload's calls; returns the modules,
    the calls and the seconds taken."""
    gc.collect()  # an earlier set-up's modules and calls are garbage now
    t0 = time.perf_counter()
    mods = workloads.load_certiroot()
    calls = workloads.build(name, mods, seed, workdir)
    return mods, calls, time.perf_counter() - t0


class Checker:
    """Correctness of every call: no exception or failed exit, recorded
    digest, known roots within 2^-r, 6*d^2 at the certified floor, and the
    same digest as the same call's first run."""

    def __init__(self, name: str, seed: int, calls: list):
        record = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
        seeded = record.get("seeded", {}).get(name, {}).get(str(seed))
        self.recorded_seed = seeded is not None
        self.expected = dict(record.get("fixed", {}))
        if seeded is not None:
            names = [c.name for c in calls if c.seeded]
            raw = base64.b64decode(seeded)
            digests = [raw[i:i + 3].hex() for i in range(0, len(raw), 3)]
            if len(digests) == len(names):
                self.expected.update(zip(names, digests))
        self.first: dict[str, str] = {}
        self.failed = 0
        self.unrecorded = 0
        self.messages: list[str] = []

    def fail(self, call, why: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"{call.name}: {why}")

    def check(self, call, out, digest: str) -> None:
        seen = self.first.get(call.name)
        if seen is not None:
            if digest != seen:
                self.fail(call, f"digest {digest} differs from the first run's {seen}")
            return
        self.first[call.name] = digest
        expected = self.expected.get(call.name)
        if expected is None:
            if call.seeded and not self.recorded_seed:
                self.unrecorded += 1
            else:
                self.fail(call, "no recorded digest")
        elif digest != expected:
            self.fail(call, f"digest {digest} != recorded {expected}")
        for problem in call.problems(out):
            self.fail(call, problem)


def run_pass(calls, mods, checker: Checker, trace=None, pace=None,
             series="call") -> tuple[list, list]:
    """One pass over the corpus; returns per-call wall times and outputs'
    sizes. With `pace`, the series' reference is timed before each call, and
    the call's time is recorded in the series too."""
    latencies, sizes = [], []
    for call in calls:
        if pace is not None:
            pace.tick(series)
        t0 = time.perf_counter()
        try:
            out = call.run(mods, trace)
        except Exception as exc:  # a failed call is counted, not fatal
            out = exc
        latencies.append(time.perf_counter() - t0)
        if pace is not None:
            pace.record(series, latencies[-1])
        if isinstance(out, Exception):
            sizes.append(0)
            checker.fail(call, f"raised {type(out).__name__}: {out}")
            continue
        sizes.append(len(out.stdout) if hasattr(out, "stdout") else 0)
        try:
            checker.check(call, out, call.digest(out))
        except Exception as exc:  # unreadable output is a failed call
            checker.fail(call, f"check raised {type(exc).__name__}: {exc}")
    return latencies, sizes


def tail(latencies: list, pct: int) -> tuple[float, int]:
    """Nearest-rank `pct` percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    k = -(-pct * len(ordered) // 100)
    return ordered[k - 1], len(ordered) - k


def median_call(latencies: list, per_pass: int) -> float:
    """Median over the corpus of each call's median time over the passes.

    `cli` has four distinct calls and `deep` six, so the median of all
    samples falls between two calls' samples, where it moves with the
    slowest runs of one and the fastest of the other."""
    return statistics.median(statistics.median(latencies[i::per_pass])
                             for i in range(per_pass))


def min_passes(name: str, per_pass: int) -> int:
    """Passes needed for ten samples beyond the workload's tail percentile."""
    need = -(-1000 // (100 - TAIL_PCT[name]))
    return -(-need // per_pass)


def end_to_end(name, seed, workdir, mods, calls, checker, seconds):
    """Closed-loop passes over the corpus for about `seconds`. Before each
    pass the set-up is repeated SETUPS_PER_PASS times and timed, and its
    copies are discarded, so that setup_s samples the machine over the whole
    run as the calls do. Every timing is taken at reference speed (Pace)."""
    pace = Pace()
    series = "child" if name == "cli" else "call"

    def timed_pass():
        for _ in range(SETUPS_PER_PASS):
            pace.tick("setup")
            pace.record("setup", setup(name, seed, workdir)[2])
        pace.tick("setup")  # the last set-up's reference after it
        gc.collect()
        run_pass(calls, mods, checker, pace=pace, series=series)

    t0 = time.perf_counter()
    timed_pass()
    passes = max(min_passes(name, len(calls)), round(seconds / (time.perf_counter() - t0)))
    for _ in range(passes - 1):
        timed_pass()
    pace.tick(series)
    latencies = pace.scaled(series)
    wall = pace.wall(series)
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    pct = TAIL_PCT[name]
    value, beyond = tail(latencies, pct)
    metrics = {
        "setup_s": statistics.median(pace.scaled("setup")),
        "calls_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": median_call(latencies, len(calls)) * 1000,
        "latency_tail_ms": value * 1000,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    notes = {"latency_tail_ms": f"p{pct} of {len(latencies)} calls, {beyond} beyond",
             "calls_per_s": f"{passes} passes of {len(calls)} calls;"
                            f" wall clock {len(wall) / sum(wall):.4g}",
             "latency_p50_ms": f"wall clock {median_call(wall, len(calls)) * 1000:.4g}",
             "setup_s": f"median of {len(pace.samples['setup'])} set-ups;"
                        f" wall clock {statistics.median(pace.wall('setup')):.4g}",
             "references": ", ".join(
                 f"{series} {statistics.median(refs) * 1000:.4g} ms"
                 f" (nominal {REFERENCES[series][1] * 1000:.4g})"
                 for series, refs in pace.refs.items() if refs)}
    result = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    return len(latencies), result, notes


def import_ms() -> float:
    """Median cumulative `import certiroot` time from `python -X importtime`."""
    env = dict(os.environ, PYTHONPATH=str(workloads.SRC))
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import certiroot"],
                              env=env, capture_output=True, text=True, check=True)
        for line in proc.stderr.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "certiroot":
                samples.append(int(fields[1]) / 1000)
    return statistics.median(samples)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in (workloads.SRC / "certiroot").rglob("*.py"))


def traced(name, mods, calls, checker, workdir, seed):
    """Each call once without and once with hooks, alternating which goes
    first, so that drift in machine speed and warm-up after the first run
    fall on both sides of trace.overhead_frac alike."""
    trace = tracer.Tracer(workdir)
    plain, with_hooks, sizes = [], [], []

    def hooked(call):
        trace.install(mods)
        try:
            latencies, out_sizes = run_pass([call], mods, checker, trace)
        finally:
            trace.uninstall()
        with_hooks.extend(latencies)
        sizes.extend(out_sizes)

    for i, call in enumerate(calls):
        if i % 2:
            hooked(call)
        plain.extend(run_pass([call], mods, checker)[0])
        if not i % 2:
            hooked(call)
    extra = {
        "cli.import_ms": import_ms(),
        "cli.report_bytes": sum(sizes),
        "trace.overhead_frac": sum(with_hooks) / sum(plain) - 1,
        "src.lines": src_lines(),
    }
    trace.dump(OUT_DIR / f"trace-{name}-{seed}.json")
    return 2 * len(calls), tracer.layer_metrics(trace.spans, trace.missing, extra), {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        try:
            mods, calls, _ = setup(args.workload, args.seed, workdir)
        except workloads.MissingProgram as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        checker = Checker(args.workload, args.seed, calls)
        if args.trace:
            attempted, metrics, notes = traced(args.workload, mods, calls, checker, workdir,
                                               args.seed)
        else:
            attempted, metrics, notes = end_to_end(args.workload, args.seed, workdir, mods,
                                                   calls, checker, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in checker.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, m in metrics.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:32s} {value:>14s} {m['unit']}{note}")
    for key in notes.keys() - metrics.keys():
        print(f"  {key}: {notes[key]}")
    print(f"  {'failed_frac':32s} {checker.failed / attempted:>14.6g} 1"
          f"  ({checker.failed} of {attempted} calls)")
    if checker.unrecorded:
        print(f"  no digests recorded for seed {args.seed}: {checker.unrecorded} seeded calls"
              " checked by known roots and the 6*d^2 bound only")
    print(json.dumps({"correct": checker.failed == 0, "attempted": attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
