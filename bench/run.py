"""End-to-end and per-layer benchmark of the tracelattice command line.

    python3 bench/run.py --workload family-sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

Run from anywhere; it works on the checkout that contains this directory
and imports tracelattice from its src/ only. One client runs one CLI
invocation at a time, each in a fresh interpreter (a closed loop), with
TRACE_LATTICE_THREADS unset unless --threads is given, bytecode cached
under .bench_out/, and every process pinned to one CPU. A run repeats whole
rounds of its workload's operation list while another round still fits in
--seconds (at least one round); every output is checked by checks.py and
its sha256 must repeat exactly.

Times are scaled by the host's speed: speed.py's probe runs about every
1.5 seconds, between operations, and each process's time is multiplied by
the reference probe time over the mean of the probes near it (Clock), so
the figures read in seconds at the reference speed and a slow spell of a
shared host moves them less than it moves raw time.

--trace 0 reports the end-to-end metrics:
  setup_s        interpreter start + import + CLI parser (`--help`),
                 scaled, median of samples taken after every probe (at
                 least 15)
  wall_s         wall time of one round: each operation's scaled time,
                 median over the rounds, summed
  cpu_s          user+sys CPU of the operation processes, taken the same way
  lattices_per_s certified results of a round over wall_s
  peak_rss_mb    highest peak RSS (VmHWM) of any CLI process of the run
--trace 1 alternates untraced rounds with rounds run under tracer.py and
reports per-layer metrics (span times are not scaled), plus
trace.overhead_s (traced minus untraced wall_s) and host.slowdown (mean
probe time over the reference). Traced and untraced outputs must be
byte-identical.

The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; problems go to stderr.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import checks
import speed
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
SPANS_DIR = OUT_DIR / "spans"
PROBE_OUTPUT = speed.expected_output()
# setup samples are taken after every speed probe, and at least this many
SETUP_MIN = 15
# least wall time between two host-speed probes
CHECKPOINT_S = 1.5
# probes within this many seconds of a process scale its time
WINDOW_S = 3.0
# a run must end within 180 s; no single round should come near this
DEADLINE_S = 170.0

# (module of src/tracelattice, metric prefix); metric names cannot start
# with "_"
LAYERS = (
    ("cli", "cli"),
    ("serialize", "serialize"),
    ("a3_factory", "a3_factory"),
    ("conic_points", "conic_points"),
    ("shanks_field", "shanks_field"),
    ("cyclotomic_ideals", "cyclotomic_ideals"),
    ("quadratic_a2", "quadratic_a2"),
    ("orders_ideals", "orders_ideals"),
    ("lattice_core", "lattice_core"),
    ("exact_linalg", "exact_linalg"),
    ("_intfactor", "intfactor"),
    ("_parallel", "parallel"),
)
PREFIX = dict(LAYERS)

# (traced function, statistic): "s" is inclusive seconds, "calls" a count
FUNCTIONS = (
    ("lattice_core.short_vectors_gram", "s"),
    ("lattice_core.short_vectors_gram", "calls"),
    ("lattice_core.classify_gram", "calls"),
    ("lattice_core.gram_of", "s"),
    ("lattice_core.gram_of", "calls"),
    ("lattice_core.canonical_key", "s"),
    ("shanks_field.mul_coords", "calls"),
    ("exact_linalg.det", "calls"),
    ("exact_linalg.hnf", "calls"),
    ("exact_linalg.inverse", "calls"),
    ("exact_linalg.matmul", "calls"),
    ("orders_ideals.sqrt_different_inverse", "s"),
    ("orders_ideals.sqrt_different_inverse", "calls"),
    ("orders_ideals.maximal_order", "s"),
    ("orders_ideals.module_product", "calls"),
    ("quadratic_a2.norm_one_points", "s"),
    ("_intfactor.factor", "s"),
    ("serialize.dumps_canonical", "s"),
    ("_parallel.pmap", "s"),
)


def metric_name(function: str, stat: str) -> str:
    layer, name = function.split(".", 1)
    return f"{PREFIX[layer]}.{name}.{stat}"


END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "lattices_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for _, prefix in LAYERS:
        units[f"{prefix}.self_s"] = "s"
        units[f"{prefix}.calls"] = "count"
    for function, stat in FUNCTIONS:
        units[metric_name(function, stat)] = "s" if stat == "s" else "count"
    units.update(
        {
            "lattice_core.short_vectors_gram.vectors": "count",
            "lattice_core.classify_gram.distinct_ratio": "ratio",
            "exact_linalg.det.per_lattice": "ratio",
            "a3_factory.scan_family.yield": "ratio",
            "a3_factory.scan_family.skipped": "count",
            "trace.spans": "count",
            "trace.overhead_s": "s",
            "host.slowdown": "ratio",
        }
    )
    return units


# --- running one operation -------------------------------------------------------


class Finished(NamedTuple):
    wall: float
    cpu: float
    code: int
    stdout: bytes
    stderr: bytes
    peak_kb: int = 0


# What `python3 -m tracelattice` does, plus one step at exit: the process
# writes its VmHWM to the pipe whose fd is argv[1]. Its rusage cannot give
# this, since a child's ru_maxrss starts from the RSS of the parent that
# forked it, and the parent here is larger than most operations.
LAUNCH = """
import atexit, os, runpy, sys
fd = int(sys.argv.pop(1))
def _peak():
    with open("/proc/self/status") as status:
        kb = next((line.split()[1] for line in status if line.startswith("VmHWM:")), "0")
    os.write(fd, kb.encode())
atexit.register(_peak)
runpy.run_module("tracelattice", run_name="__main__", alter_sys=True)
"""


class Runner:
    """Starts CLI processes for one run, one at a time, under a deadline."""

    def __init__(self, threads: str | None):
        drop = ("TRACE_LATTICE_THREADS", "PYTHONDONTWRITEBYTECODE")
        env = {k: v for k, v in os.environ.items() if k not in drop}
        # bytecode is cached as for an installed package, outside src/
        env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
        if threads is not None:
            env["TRACE_LATTICE_THREADS"] = threads
        src = str(ROOT / "src")
        if env.get("PYTHONPATH"):
            src += os.pathsep + env["PYTHONPATH"]
        env["PYTHONPATH"] = src
        self.env = env
        # the operations and the speed probe share one CPU, so the probe
        # measures the speed the operations get
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.deadline = time.monotonic() + DEADLINE_S
        self.peak_kb = 0

    def cli(self, args) -> Finished:
        """`python3 -m tracelattice ARGS`, started through LAUNCH so that the
        process reports its own peak RSS; the largest goes into peak_kb."""
        read_fd, write_fd = os.pipe()
        with open(read_fd, "rb", buffering=0) as peak:
            done = self.run(["-c", LAUNCH, str(write_fd), *args], peak, (write_fd,))
        if done.peak_kb:
            self.peak_kb = max(self.peak_kb, done.peak_kb)
        return done

    def run(self, argv: list[str], peak=None, pass_fds=()) -> Finished:
        """Run one process to its end; its CPU time is its own rusage
        (os.wait4). `peak` is the read end of a pipe the process writes its
        peak RSS to."""
        if self.deadline - time.monotonic() <= 0:
            raise TimeoutError("the run passed its deadline")
        t0 = time.perf_counter()
        try:
            proc = subprocess.Popen(
                [sys.executable, *argv],
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                pass_fds=pass_fds,
            )
        finally:
            for fd in pass_fds:  # the child holds its own copies
                os.close(fd)
        try:
            pipes = [proc.stdout, proc.stderr] + ([peak] if peak else [])
            out = self._drain(pipes, argv)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        peak_kb = int(out[2]) if peak and out[2].strip().isdigit() else 0
        return Finished(wall, cpu, proc.returncode, out[0], out[1], peak_kb)

    def _drain(self, pipes, argv) -> list[bytes]:
        """Read every pipe to its end, within the deadline."""
        chunks = {pipe: [] for pipe in pipes}
        with selectors.DefaultSelector() as sel:
            for pipe in pipes:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                left = self.deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError(f"{argv[:4]} did not finish before the deadline")
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
        return [b"".join(chunks[pipe]) for pipe in pipes]


# --- accounting ------------------------------------------------------------------


class Ledger:
    """Attempted and failed operations, output checks, and the sha256 of
    every operation's stdout (repeats must be byte-identical, so an output
    is checked once and its repeats are compared by digest)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.digests: dict[str, tuple[str, int]] = {}

    def record(self, op, done: Finished, label: str) -> int:
        """Account one finished operation; returns its certified results."""
        self.attempted += 1
        problems = []
        if done.code != 0:
            problems.append(f"exit code {done.code}")
        if b"Traceback" in done.stderr:
            problems.append("traceback on stderr")
        count = 0
        wrong = []
        if not problems:
            digest = hashlib.sha256(done.stdout).hexdigest()
            if op.key in self.digests:
                first, count = self.digests[op.key]
                if first != digest:
                    wrong.append("stdout differs from an earlier run of the same operation")
            else:
                try:
                    doc = json.loads(done.stdout)
                except ValueError as exc:
                    wrong.append(f"stdout is not JSON: {exc}")
                else:
                    wrong += checks.check(op, doc)
                    count = checks.certified(doc)
                if not wrong:
                    self.digests[op.key] = (digest, count)
        if wrong:
            self.correct = False
        problems += wrong
        if problems:
            self.failed += 1
            short = op.key if len(op.key) < 120 else op.key[:117] + "..."
            for p in problems[:5]:
                sys.stderr.write(f"FAILED [{label}] {short}: {p}\n")
            if done.stderr:
                sys.stderr.write(done.stderr.decode(errors="replace")[-2000:] + "\n")
            return 0
        return count


class Sample(NamedTuple):
    end: float  # perf_counter() when the process had ended
    wall: float
    cpu: float


class Clock:
    """Host-speed probes (speed.py): one at the start, then one at a
    checkpoint at least CHECKPOINT_S after the last, between operations.

    A process's time is scaled by the reference probe time over the mean of
    the probes that ran within WINDOW_S of it: for a long operation those
    are the probes just before and after it, for short ones a few around
    them, which averages out the probe's own noise. The mean, not the
    median, because a process is slowed by the share of its run the host
    takes from it, and the mean probe time estimates that share."""

    def __init__(self, runner: Runner, ledger: Ledger):
        self.runner = runner
        self.ledger = ledger
        self.probes: list[Sample] = []
        self.probe()

    def probe(self) -> None:
        done = self.runner.run(["-c", speed.CODE])
        if done.code != 0 or done.stdout != PROBE_OUTPUT:
            self.ledger.correct = False
            sys.stderr.write(f"FAILED speed probe: exit {done.code}, {done.stdout[:80]!r}\n")
        self.probes.append(Sample(time.perf_counter(), done.wall, done.cpu))

    def due(self) -> bool:
        return time.perf_counter() - self.probes[-1].end >= CHECKPOINT_S

    def scaled(self, sample: Sample, field: str) -> float:
        """The sample's wall or cpu time at the reference speed."""
        lo, hi = sample.end - sample.wall - WINDOW_S, sample.end + WINDOW_S
        near = [getattr(p, field) for p in self.probes if lo <= p.end <= hi]
        ref = speed.REF_WALL_S if field == "wall" else speed.REF_CPU_S
        return getattr(sample, field) * ref / statistics.fmean(near)

    def slowdown(self) -> float:
        return statistics.fmean(p.wall for p in self.probes) / speed.REF_WALL_S


class Round(NamedTuple):
    samples: list[Sample]  # per operation, in list order
    lattices: int
    elapsed: float  # the round's duration without first-time output checks
    layers: "LayerTotals | None"


def run_round(ops, runner: Runner, ledger: Ledger, clock: Clock, traced: bool, setup=None) -> Round:
    """One pass over the operations. With a `setup` list, a setup sample is
    taken after each probe, so the samples spread over the whole run."""
    t0 = time.perf_counter()
    samples = []
    lattices = 0
    checking = 0.0
    agg = LayerTotals() if traced else None
    for k, op in enumerate(ops):
        if clock.due():
            clock.probe()
            if setup is not None:
                setup.append(setup_sample(runner, ledger))
        if traced:
            spans = SPANS_DIR / f"spans-{os.getpid()}-{k}.jsonl"
            try:
                done = runner.run([str(BENCH / "tracer.py"), str(spans), "--", *op.argv])
                if spans.exists():
                    agg.add(tracer.summarize(str(spans)))
            finally:
                spans.unlink(missing_ok=True)
        else:
            done = runner.cli(op.argv)
        samples.append(Sample(time.perf_counter(), done.wall, done.cpu))
        c0 = time.perf_counter()
        lattices += ledger.record(op, done, "traced" if traced else "untraced")
        checking += time.perf_counter() - c0
    return Round(samples, lattices, time.perf_counter() - t0 - checking, agg)


def round_time(rounds: list[Round], clock: Clock, field: str) -> float:
    """Sum over operations of each operation's median over the rounds of
    its scaled time, so a slow spell of the machine that hits a few
    operations of one round drops out of their medians."""
    columns = zip(*(r.samples for r in rounds))
    return sum(statistics.median(clock.scaled(s, field) for s in c) for c in columns)


# --- per-layer totals from spans -------------------------------------------------


class LayerTotals:
    """Sums per-process span summaries over one traced round."""

    def __init__(self):
        self.funcs: dict[str, list] = {}
        self.layers: dict[str, list] = {}
        self.spans = 0
        self.classify_distinct = 0
        self.vectors = 0
        self.members = self.skipped = self.points = 0

    def add(self, summary: dict) -> None:
        self.spans += summary["spans"]
        for name, f in summary["funcs"].items():
            acc = self.funcs.setdefault(name, [0, 0])
            acc[0] += f["calls"]
            acc[1] += f["ns"]
        for name, layer in summary["layers"].items():
            acc = self.layers.setdefault(name, [0, 0])
            acc[0] += layer["calls"]
            acc[1] += layer["self_ns"]
        funcs = summary["funcs"]
        if "lattice_core.classify_gram" in funcs:
            # distinct inputs per process: what a per-command cache could save
            keys = funcs["lattice_core.classify_gram"]["extras"]
            self.classify_distinct += len(set(keys))
        if "lattice_core.short_vectors_gram" in funcs:
            self.vectors += sum(funcs["lattice_core.short_vectors_gram"]["extras"])
        for members, skipped in funcs.get("a3_factory.scan_family", {}).get("extras", []):
            self.members += members
            self.skipped += skipped
        self.points += summary["scan_points"]

    def calls(self, function: str) -> int:
        return self.funcs.get(function, [0, 0])[0]

    def metrics(self) -> dict[str, float]:
        out = {}
        for module, prefix in LAYERS:
            calls, self_ns = self.layers.get(module, [0, 0])
            out[f"{prefix}.self_s"] = self_ns / 1e9
            out[f"{prefix}.calls"] = calls
        for function, stat in FUNCTIONS:
            calls, ns = self.funcs.get(function, [0, 0])
            out[metric_name(function, stat)] = ns / 1e9 if stat == "s" else calls
        classify = self.calls("lattice_core.classify_gram")
        gram_of = self.calls("lattice_core.gram_of")
        out["lattice_core.short_vectors_gram.vectors"] = self.vectors
        out["lattice_core.classify_gram.distinct_ratio"] = (
            self.classify_distinct / classify if classify else 0.0
        )
        out["exact_linalg.det.per_lattice"] = (
            self.calls("exact_linalg.det") / gram_of if gram_of else 0.0
        )
        out["a3_factory.scan_family.yield"] = (
            self.members / self.points if self.points else 0.0
        )
        out["a3_factory.scan_family.skipped"] = self.skipped
        out["trace.spans"] = self.spans
        return out


# --- a run -----------------------------------------------------------------------


def check_checkout(runner: Runner) -> str | None:
    """The CLI must come from this checkout's src/, not from anywhere else."""
    if not (ROOT / "src" / "tracelattice" / "cli.py").is_file():
        return f"no src/tracelattice/cli.py under {ROOT}"
    probe = runner.run(["-c", "import tracelattice; print(tracelattice.__file__)"])
    where = probe.stdout.decode().strip()
    if probe.code != 0 or not Path(where).resolve().is_relative_to(ROOT / "src"):
        found = where or probe.stderr.decode(errors="replace")
        return f"tracelattice is not importable from {ROOT / 'src'}: {found}"
    return None


def setup_sample(runner: Runner, ledger: Ledger) -> Sample:
    done = runner.cli(["--help"])
    if done.code != 0 or b"usage" not in done.stdout:
        ledger.correct = False
        sys.stderr.write(f"FAILED setup: `--help` exited {done.code}\n")
    return Sample(time.perf_counter(), done.wall, done.cpu)


def untraced_run(ops, runner, ledger, seconds) -> dict:
    setup_sample(runner, ledger)  # the first start also compiles bytecode
    clock = Clock(runner, ledger)
    setup: list[Sample] = []
    start = time.perf_counter()
    rounds = [run_round(ops, runner, ledger, clock, traced=False, setup=setup)]
    while time.perf_counter() - start + rounds[-1].elapsed <= seconds:
        rounds.append(run_round(ops, runner, ledger, clock, traced=False, setup=setup))
    while len(setup) < SETUP_MIN:
        setup.append(setup_sample(runner, ledger))
    clock.probe()
    sys.stderr.write(
        f"# host slowdown {clock.slowdown():.4f} (mean of {len(clock.probes)} probes), "
        f"{len(rounds)} rounds\n"
    )
    wall = round_time(rounds, clock, "wall")
    return {
        "setup_s": statistics.median(clock.scaled(s, "wall") for s in setup),
        "wall_s": wall,
        "cpu_s": round_time(rounds, clock, "cpu"),
        "lattices_per_s": statistics.median(r.lattices for r in rounds) / wall,
        "peak_rss_mb": runner.peak_kb / 1024,
    }


def traced_run(ops, runner, ledger, seconds) -> dict:
    SPANS_DIR.mkdir(parents=True, exist_ok=True)
    clock = Clock(runner, ledger)
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_round(ops, runner, ledger, clock, traced=False))
        traced.append(run_round(ops, runner, ledger, clock, traced=True))
        pair = plain[-1].elapsed + traced[-1].elapsed
        if time.perf_counter() - start + pair > seconds:
            break
    clock.probe()
    per_round = [r.layers.metrics() for r in traced]
    out = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    out["trace.overhead_s"] = round_time(traced, clock, "wall") - round_time(plain, clock, "wall")
    out["host.slowdown"] = clock.slowdown()
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, threads) -> dict:
    runner = Runner(threads)
    problem = check_checkout(runner)
    if problem:
        raise SystemExit(f"bench/run.py: {problem}")
    ops = workloads.build(workload, seed)
    ledger = Ledger()
    if trace:
        values, units = traced_run(ops, runner, ledger, seconds), per_layer_units()
    else:
        values, units = untraced_run(ops, runner, ledger, seconds), END_TO_END_UNITS
    assert set(values) == set(units), set(values) ^ set(units)
    return {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def report(workload: str, trace: bool, result: dict) -> None:
    mode = "traced" if trace else "untraced"
    print(
        f"# {workload} ({mode}): attempted {result['attempted']}, "
        f"failed {result['failed']}, correct {str(result['correct']).lower()}"
    )
    for name, m in result["metrics"].items():
        print(f"{workload:<20} {name:<48} {m['value']:>16.6f} {m['unit']}")


def _terminate(signum, frame):
    # unwinding through subprocess.run kills and reaps the running operation
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="tracelattice CLI benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--threads",
        default=None,
        help="set TRACE_LATTICE_THREADS for the operations (default: unset)",
    )
    args = parser.parse_args(argv)
    try:
        if args.workload != "all":
            result = run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace), args.threads
            )
            report(args.workload, bool(args.trace), result)
            print(json.dumps(result))
            return 0
        combined = {}
        for workload in workloads.WORKLOADS:
            for trace in (False, True):
                result = run_workload(
                    workload, args.seed, args.seconds, trace, args.threads
                )
                report(workload, trace, result)
                mode = "traced" if trace else "untraced"
                combined.setdefault(workload, {})[mode] = result
        print(json.dumps(combined))
        return 0
    except TimeoutError as exc:
        sys.stderr.write(f"bench/run.py: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
