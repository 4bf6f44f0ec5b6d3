"""Benchmark of the maxorder package, driven from outside it.

    python3 bench/run.py --workload verdict-stream --seed 0 --seconds 30 --trace 0

One client runs the workload's operations in a closed loop, one call at
a time in this process (the ``cli`` workload: one child process at a
time), for ``--seconds``, after a second of operations that are checked
but not timed. Inputs come from ``--seed`` alone, and no
input is used twice in the timed loop. Every result is checked; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics with no tracing installed.
``--trace 1`` reports the per-layer metrics. In-process workloads
alternate blocks of untraced operations with a replay of the same inputs
under the span recorder of ``tracing.py``, which also gives the tracing
overhead; the ``cli`` workload reads the split of each operation from
its child process.

The package is imported from ``src/`` next to this directory; without
it the run exits with status 2 and prints no result.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
from collections import defaultdict, deque
from itertools import islice
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
GOLDEN = os.path.join(HERE, "golden.json")
DEFAULT_SEED = 0
# setup_s is the median of at least this many full set-ups, spread over at least this long
SETUP_REPEATS = 9
SETUP_SECONDS = 2.0
BLOCK_SECONDS = 1.0  # untraced time per block of a traced run
WARMUP_SECONDS = 1.0  # checked but untimed operations before the timed loop
SHOWN_FAILURES = 5

sys.path.insert(0, HERE)
from tracing import METRICS, MissingLayer, Recorder  # noqa: E402
from workloads import WORKLOADS, HarnessError  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_package(workload):
    """A fresh import of the package from src/, as a user's process does it."""
    for name in [m for m in sys.modules if m == "maxorder" or m.startswith("maxorder.")]:
        del sys.modules[name]
    pkg = importlib.import_module("maxorder")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "maxorder"):
        raise HarnessError(f"imported maxorder from {pkg.__file__}, not from {SRC}")
    if not workload.in_process:
        importlib.import_module("maxorder.cli")
    return pkg


def set_up(workload, seed):
    """Import, base construction and the first inputs, several times; the median.

    Returns the package, the median set-up time in seconds, the inputs
    generated during set-up and the stream that yields the rest.
    """
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        pkg = items = stream = None
        gc.collect()
        t0 = perf_counter()
        pkg = import_package(workload)
        workload.setup(pkg)
        stream = workload.stream(random.Random(f"{workload.name}:{seed}"))
        items = list(islice(stream, workload.setup_items))
        times.append(perf_counter() - t0)
    return pkg, statistics.median(times), items, stream


class Tally:
    """Runs operations one at a time and checks each result, untimed.

    Input k is the k-th item of the workload's stream. Every call gets a
    seed that no other call of the run gets, so a replay of an input
    checks that its result does not depend on the seed.
    """

    def __init__(self, workload, seed, items, stream):
        self.w = workload
        self.seed = seed
        self.pending = deque(items)
        self.stream = stream
        self.drawn = 0
        self.first = {}  # input index -> invariant result, for the inputs the digest covers
        self.attempted = 0
        self.failures = []
        self.before_op = None
        self.call = workload.call

    def draw(self):
        """The next input and its index; inputs after the set-up ones are generated now."""
        item = self.pending.popleft() if self.pending else next(self.stream)
        self.drawn += 1
        return self.drawn - 1, item

    def op(self, k, item, expect=None):
        """One operation on input k; returns its latency in seconds and its invariant result.

        ``expect`` is the invariant result of an earlier run of the same input.
        """
        seed = self.attempted
        if self.before_op is not None:
            self.before_op()
        self.attempted += 1
        t0 = perf_counter()
        try:
            res = self.call(item, seed)
        except Exception as exc:  # an unexpected exception is a failed operation
            dt = perf_counter() - t0
            self.fail(k, item, f"{type(exc).__name__}: {exc}")
            return dt, None
        dt = perf_counter() - t0
        try:
            inv, errs = self.w.inspect(item, res)
        except Exception as exc:
            inv, errs = None, [f"result could not be checked: {type(exc).__name__}: {exc}"]
        if not errs and expect is not None and inv != expect:
            errs = ["result differs from an earlier run of the same input with another seed"]
        if errs:
            self.fail(k, item, "; ".join(errs))
        elif expect is None and k < self.w.digest_items:
            self.first[k] = inv
        return dt, inv

    def fail(self, k, item, msg):
        self.failures.append(
            f"{self.w.name} seed={self.seed} input={k}: {msg}; reproduce: {self.w.describe(item)}"
        )

    def warm_up(self, seconds):
        """Operations for ``seconds``, checked but not timed."""
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            self.op(*self.draw())

    def loop(self, seconds, keep=False):
        """Closed loop over fresh inputs for ``seconds``.

        Returns the latencies and, with ``keep``, the (index, input,
        invariant result) of each operation, for a replay.
        """
        lat, kept = [], []
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            k, item = self.draw()
            dt, inv = self.op(k, item)
            lat.append(dt)
            if keep:
                kept.append((k, item, inv))
        return lat, kept

    def digest(self):
        """sha256 of the invariant results of the first inputs (run now if not yet run)."""
        while self.drawn < self.w.digest_items:
            self.op(*self.draw())
        blob = json.dumps([self.first.get(k) for k in range(self.w.digest_items)],
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def percentile(sorted_values, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(workload, setup_s, lat):
    lat = sorted(lat)
    tail, beyond = percentile(lat, workload.tail_percentile)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * tail,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    notes = {
        "op_tail_ms": f"p{workload.tail_percentile:g} of {len(lat)} samples, {beyond} beyond it",
        "peak_rss_mb": "this process" if workload.in_process else "largest child process",
    }
    if beyond < 10:
        print(f"warning: only {beyond} samples beyond the tail percentile", file=sys.stderr)
    return {k: (values[k], unit, notes.get(k, "")) for k, unit in END_TO_END}


def traced_in_process(workload, pkg, tally, seconds):
    """Blocks of operations run untraced, each replayed at once with tracing on.

    Pairing each block with its replay keeps drift in machine speed out
    of the overhead; the traced run takes about ``seconds`` untraced plus
    the traced replays, half of it each.
    """
    rec = Recorder()
    untraced, traced = [], []
    while sum(untraced) < seconds / 2:
        lat, block = tally.loop(BLOCK_SECONDS, keep=True)
        undo = rec.install(pkg)
        tally.before_op = rec.begin_op
        try:
            traced += [tally.op(k, item, expect=inv)[0] for k, item, inv in block]
        finally:
            tally.before_op = None
            rec.uninstall(undo)
        untraced += lat
    n = len(traced)
    layers = rec.metrics(n)
    u, t = n / sum(untraced), n / sum(traced)
    layers.update({
        "trace.ops": n,
        "trace.untraced_ops_per_s": u,
        "trace.traced_ops_per_s": t,
        "trace.overhead_pct": 100 * (u / t - 1),
    })
    return layers, rec.fired()


def traced_cli(workload, tally, seconds):
    """The split of each ``cli`` operation, read from its child, and a bare interpreter per operation.

    The work runs in child processes, out of the recorder's reach, so
    nothing is replayed and there is no tracing overhead to report.
    """
    split = defaultdict(list)  # command -> [(start, import, command) seconds]
    bare = []

    def call(item, seed):
        proc = workload.call_split(item, seed)
        split[item.command].append(proc.split)
        return proc

    tally.call = call
    tally.before_op = lambda: bare.append(workload.bare_interpreter())
    try:
        lat, _ = tally.loop(seconds)
    finally:
        tally.call = workload.call
        tally.before_op = None
    layers = {
        "cli.interpreter_ms": 1000 * statistics.median(bare),
        "cli.import_ms": 1000 * statistics.median(s[1] for runs in split.values() for s in runs),
        "trace.ops": len(lat),
    }
    for cmd, runs in split.items():
        layers[f"cli.command_ms.{cmd}"] = 1000 * statistics.median(s[2] for s in runs)
    bad = {k: v for k, v in layers.items() if k.startswith("cli.") and not v > 0}
    if bad:
        raise HarnessError(f"cli split is not positive: {bad}")
    return layers, {"cli.interpreter", "cli.import"} | {f"cli.command.{cmd}" for cmd in split}


def traced(workload, pkg, tally, seconds):
    if workload.in_process:
        layers, fired = traced_in_process(workload, pkg, tally, seconds)
    else:
        layers, fired = traced_cli(workload, tally, seconds)
    missing = [s for s in workload.expected_spans if s not in fired]
    stray = sorted(s for s in fired if s.startswith(workload.forbidden_spans))
    if missing or stray:
        raise MissingLayer(f"expected spans that never fired: {missing}; spans that must not fire: {stray}")
    units = {name: unit for name, unit, _ in METRICS}
    return {name: (layers.get(name, 0.0), units[name], "") for name in units}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true",
                        help=f"record this run's digest as the golden one (seed {DEFAULT_SEED} only)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "maxorder", "__init__.py")):
        print(f"error: no package at {SRC}/maxorder; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    try:
        pkg, setup_s, items, stream = set_up(workload, args.seed)
        # the set-up inputs are the benchmark's data: keep the collector from rescanning them
        gc.collect()
        gc.freeze()
        tally = Tally(workload, args.seed, items, stream)
        del items
        tally.warm_up(WARMUP_SECONDS)
        if args.trace:
            metrics = traced(workload, pkg, tally, args.seconds)
        else:
            metrics = end_to_end(workload, setup_s, tally.loop(args.seconds)[0])
        digest = tally.digest()
    except (HarnessError, MissingLayer) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    golden_ok = True
    if args.seed == DEFAULT_SEED:
        golden = {}
        if os.path.exists(GOLDEN):
            with open(GOLDEN) as fh:
                golden = json.load(fh)
        if args.update_golden:
            golden[workload.name] = digest
            with open(GOLDEN, "w") as fh:
                json.dump(golden, fh, indent=2, sort_keys=True)
                fh.write("\n")
        golden_ok = golden.get(workload.name) == digest
        if not golden_ok:
            print(f"golden digest mismatch for {workload.name}: {digest}", file=sys.stderr)
    for line in tally.failures[:SHOWN_FAILURES]:
        print(line, file=sys.stderr)

    failed = len(tally.failures)
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:36} {value:14.6g} {unit:8} {note}")
    golden_note = ("ok" if golden_ok else "MISMATCH") if args.seed == DEFAULT_SEED else "not checked at this seed"
    print(f"  {'failed_ratio':36} {failed / tally.attempted:14.6g} {'ratio':8} "
          f"{failed} of {tally.attempted} ops; golden digest {golden_note}")
    print(json.dumps({
        "correct": failed == 0 and golden_ok,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
