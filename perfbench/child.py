"""One benchmark workload, run in a fresh process by ``run.py``.

Usage (normally only through run.py, from the repository root with
``src`` on PYTHONPATH):

    python3 perfbench/child.py --workload NAME --seed N --seconds S
        [--trace 0|1] [--size full|smoke] [--max-passes K] [--setup-only]

The process times its own set-up (``import qhilb`` to ready), then runs
passes over the workload's jobs until the next pass would end after
``--seconds`` of wall time; at least one pass always runs.  Each job's
output is checked after its timed interval.  stdout carries one JSON line
for run.py.

Every reported time is read from a ``speedclock.SpeedClock``: CPU seconds
at the benchmark's reference machine speed, so that the shared machine's
changing speed does not show as a change of the program.  The raw CPU and
wall time and the machine's median slowdown are reported next to them.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import os
import random
import resource
import statistics
import sys
from fractions import Fraction

from speedclock import SpeedClock

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")
OUT_DIR = os.path.join(HERE, "out")

STREAM_C_MAX = 4
STREAM_LENGTH = {"full": 1000, "smoke": 60}
STREAM_REASK_SHARE = 0.30
STREAM_PURE_T4_SHARE = 0.03


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

class Job:
    """One unit of a pass: ``run_job`` times it, ``checks`` judge its output.

    kind "cli" runs qhilb.cli.main on ``arg`` with stdout captured;
    "basis" computes all 105 basis products at c_max ``arg`` on one engine;
    "two_point" runs Engine(c_max=arg).derive_two_point_table().
    """

    def __init__(self, name, kind, arg, checks, exit_code=0):
        self.name = name
        self.kind = kind
        self.arg = arg
        self.checks = checks
        self.exit_code = exit_code


def _hyper(*extra):
    return ["--cmax", "4", "--format", "csv", "hyper"] + list(extra)


JOBS = {
    "hyper-columns": {
        "full": [
            Job("hyper_3_2_l2", "cli",
                ["--enable-bidegree-vanishing"] + _hyper("--d1", "3", "--d2", "2", "--l", "2"),
                [("csv_counts", ["96", "16", "0", "0", "0"])]),
            Job("hyper_2_2_l1", "cli", _hyper("--d1", "2", "--d2", "2", "--l", "1"),
                [("frozen", None)], exit_code=2),
        ],
        "smoke": [
            Job("smoke_hyper_1_1_l1", "cli", _hyper("--d1", "1", "--d2", "1", "--l", "1"),
                [("csv_counts", ["0", "0"])]),
            Job("smoke_hyper_1_2_l0", "cli", _hyper("--d1", "1", "--d2", "2", "--l", "0"),
                [("frozen", None)], exit_code=2),
        ],
    },
    "quantum-ring": {
        "full": [
            Job("verify_c4", "cli", ["--cmax", "4", "verify", "--all"], [("verify", 4)]),
            Job("verify_c6", "cli", ["--cmax", "6", "verify", "--all"], [("verify", 6)]),
            Job("basis_products_c6", "basis", 6, [("frozen", None)]),
            Job("two_point_c6", "two_point", 6, [("golden_two_point", None), ("frozen", None)]),
        ],
        "smoke": [
            Job("smoke_verify_c1", "cli", ["--cmax", "1", "verify", "--all"], [("verify", 1)]),
            Job("smoke_basis_products_c1", "basis", 1, [("frozen", None)]),
            Job("smoke_two_point_c2", "two_point", 2, [("golden_two_point", None), ("frozen", None)]),
        ],
    },
}

WORKLOADS = ("hyper-columns", "quantum-ring", "invariant-stream")
SETUP_C_MAX = {"hyper-columns": 4, "quantum-ring": 6, "invariant-stream": STREAM_C_MAX}


def run_job(qhilb, job):
    """Execute one job (the timed part); returns (raw result, exit code, engine).

    The raw result is the captured stdout for "cli", the list of products
    for "basis" and the table for "two_point"; ``render`` turns it into text.
    """
    if job.kind == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = qhilb.cli.main(job.arg)
        return buf.getvalue(), code, None
    engine = qhilb.gw_engine.Engine(c_max=job.arg)
    if job.kind == "basis":
        ring = qhilb.quantum.SmallQuantum(engine)
        n = qhilb.chow.BASIS_SIZE
        return [ring.basis_product(i, j) for i in range(n) for j in range(i, n)], 0, engine
    if job.kind == "two_point":
        return engine.derive_two_point_table(), 0, engine
    raise ValueError("unknown job kind %r" % job.kind)


def render(qhilb, job, raw):
    """The job's output as text.  Two-point rows are "a,b,c | i j | value"
    for classes with c >= 3 only: the rows with c <= 2 are checked against
    the test suite's golden instead."""
    if job.kind == "cli":
        return raw
    names = qhilb.chow.BASIS_NAMES
    if job.kind == "basis":
        pairs = [(i, j) for i in range(len(names)) for j in range(i, len(names))]
        return "".join("%s*%s = %s\n" % (names[i], names[j], product)
                       for (i, j), product in zip(pairs, raw))
    Unknown = qhilb.gw_engine.Unknown
    lines = []
    for (beta, ins), value in sorted(raw.items()):
        if beta[2] <= 2:
            continue
        shown = "UNKNOWN" if isinstance(value, Unknown) else qhilb.coeffring.rat_str(value)
        lines.append("%d,%d,%d | %s | %s" % (beta + (" ".join(map(str, ins)), shown)))
    return "\n".join(lines) + "\n"


class EngineCapture:
    """Keeps the engine each CLI call builds, to read its counters after
    the job.  Without ``cli.build_engine`` the counters show as absent."""

    def __init__(self, cli):
        self.engines = []
        self.original = getattr(cli, "build_engine", None)
        if self.original is not None:
            cli.build_engine = self._build

    def _build(self, *args, **kwargs):
        engine = self.original(*args, **kwargs)
        self.engines.append(engine)
        return engine

    def take(self):
        engines, self.engines = self.engines, []
        return engines


COUNTERS = ("wdvv_instances", "solver_instances")


def read_counters(engines):
    """Summed Engine.stats counters; a counter any engine lacks is left out."""
    out = {}
    if not engines:
        return out
    for name in COUNTERS:
        total = 0
        for engine in engines:
            try:
                value = engine.stats[name]
            except (AttributeError, KeyError, TypeError):
                break
            if not isinstance(value, int):
                break
            total += value
        else:
            out[name] = total
    return out


# ---------------------------------------------------------------------------
# Output checks: each takes (job, rendered output, raw result, parameter,
# frozen outputs) and returns None when the output is right, else a message
# ---------------------------------------------------------------------------

def check_csv_counts(job, output, raw, want, frozen):
    rows = list(csv.reader(io.StringIO(output)))
    if not rows or rows[0] != ["d1", "d2", "l", "h", "count", "provenance"]:
        return "bad CSV header"
    got = [row[4] for row in rows[1:]]
    if got != want:
        return "counts %r, want %r" % (got, want)
    hs = [row[3] for row in rows[1:]]
    if hs != [str(h) for h in range(len(want))]:
        return "genera %r" % hs
    return None


def check_verify(job, output, raw, c_max, frozen):
    lines = output.splitlines()
    want_tail = "17/17 relations pass at c_max=%d" % c_max
    if not lines or lines[-1] != want_tail:
        return "last line %r, want %r" % (lines[-1:] or "", want_tail)
    passes = [l for l in lines[:-1] if l.endswith(": pass")]
    if len(passes) != 17 or len(lines) != 18:
        return "%d relation lines pass, want 17" % len(passes)
    return None


def _golden_two_point():
    """tests/data/two_point_table.golden (classes with c <= 2), read only."""
    path = os.path.join("tests", "data", "two_point_table.golden")
    table = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            beta_s, ins_s, val_s, _ = (p.strip() for p in line.split("|"))
            table[(tuple(int(t) for t in beta_s.split(",")),
                   tuple(int(t) for t in ins_s.split()))] = Fraction(val_s)
    return table


def check_golden_two_point(job, output, raw, param, frozen):
    golden = _golden_two_point()
    low = {k: v for k, v in raw.items() if k[0][2] <= 2}
    if set(low) != set(golden):
        return "c <= 2 keys differ from the golden: %d vs %d" % (len(low), len(golden))
    bad = [k for k, v in golden.items() if low[k] != v]
    if bad:
        return "%d c <= 2 values differ from the golden, first %r" % (len(bad), bad[0])
    return None


def check_frozen(job, output, raw, param, frozen):
    want = frozen["outputs"].get(job.name)
    if want is None:
        return "no frozen output for %s" % job.name
    if output != want:
        return "output differs from the frozen expected output"
    return None


CHECKS = {
    "csv_counts": check_csv_counts,
    "verify": check_verify,
    "golden_two_point": check_golden_two_point,
    "frozen": check_frozen,
}


def load_frozen():
    with open(os.path.join(EXPECTED_DIR, "outputs.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# The invariant stream
# ---------------------------------------------------------------------------

def stream_pool(codim):
    """Every dimension-consistent key with a + b <= 2, c <= STREAM_C_MAX and
    one to five insertions from T1..T13, in a fixed order."""
    pool = []
    for a in range(3):
        for b in range(3 - a):
            for c in range(STREAM_C_MAX + 1):
                if (a, b, c) == (0, 0, 0):
                    continue
                for n in range(1, 6):
                    need = 2 * a + 2 * b + 1 + n
                    for ins in itertools.combinations_with_replacement(range(1, 14), n):
                        if sum(codim[i] for i in ins) == need:
                            pool.append(((a, b, c), ins))
    return pool


def load_pool_values():
    with open(os.path.join(EXPECTED_DIR, "stream_pool_c4.txt")) as fh:
        return [line.rstrip("\n") for line in fh if not line.startswith("#")]


def stream_quotas(pool, fresh):
    """Pool indices by stratum (beta, number of insertions) and how many
    fresh queries each stratum gets: its share of the pool, rounded by
    largest remainder.  The quotas are the same for every seed, so the
    seed changes which keys are asked and in what order, not the mix."""
    strata = {}
    for idx, (beta, ins) in enumerate(pool):
        strata.setdefault((beta, len(ins)), []).append(idx)
    shares = {key: fresh * len(idxs) / len(pool) for key, idxs in strata.items()}
    quotas = {key: int(share) for key, share in shares.items()}
    by_remainder = sorted(shares, key=lambda key: (quotas[key] - shares[key], key))
    for key in by_remainder[:fresh - sum(quotas.values())]:
        quotas[key] += 1
    return strata, quotas


def make_stream(pool, seed, pass_index, length):
    """Seeded queries as (pool index, beta, insertion list, is re-ask).

    30% re-ask an earlier query with its insertions permuted, 3% are pure
    T4^5 powers at a + b = 2 (Unknown without seeds), and the rest are
    drawn without repeats from each stratum of the pool by its quota.
    """
    rng = random.Random("%d:%d" % (seed, pass_index))
    pure_t4 = [i for i, (beta, ins) in enumerate(pool)
               if set(ins) == {4} and beta[0] + beta[1] == 2]
    n_reask = round(length * STREAM_REASK_SHARE)
    n_pure_t4 = round(length * STREAM_PURE_T4_SHARE)
    strata, quotas = stream_quotas(pool, length - n_reask - n_pure_t4)
    fresh = [idx for key in sorted(strata) for idx in rng.sample(strata[key], quotas[key])]
    fresh += [rng.choice(pure_t4) for _ in range(n_pure_t4)]
    rng.shuffle(fresh)
    fresh = iter(fresh)
    reask_at = set(rng.sample(range(1, length), n_reask))
    queries = []
    for pos in range(length):
        if pos in reask_at:
            idx = rng.choice(queries)[0]
            ins = list(pool[idx][1])
            rng.shuffle(ins)
            queries.append((idx, pool[idx][0], ins, True))
        else:
            idx = next(fresh)
            queries.append((idx, pool[idx][0], list(pool[idx][1]), False))
    return queries


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class Interval:
    """One timed interval on a SpeedClock: ``end()`` gives its CPU time at
    the reference speed, its raw CPU time and its raw wall time."""

    def __init__(self, clock):
        self.clock = clock
        self.start = (clock.now(), clock.cpu(), clock.raw())

    def end(self):
        clock = self.clock
        return (clock.now() - self.start[0], clock.cpu() - self.start[1],
                clock.raw() - self.start[2])


class Pass:
    def __init__(self):
        self.cpu = 0.0
        self.raw_cpu = 0.0
        self.raw_wall = 0.0
        self.latencies = []
        self.attempted = 0
        self.failures = []
        self.counters = {}
        self.notes = {}

    def add(self, cpu, raw_cpu, raw_wall):
        self.cpu += cpu
        self.raw_cpu += raw_cpu
        self.raw_wall += raw_wall
        return cpu


def fixed_jobs_pass(qhilb, workload, size, seed, pass_index, capture, frozen, clock, tracer):
    jobs = list(JOBS[workload][size])
    random.Random("%d:%d" % (seed, pass_index)).shuffle(jobs)
    result = Pass()
    for job in jobs:
        result.attempted += 1
        span = tracer.span("job:" + job.name) if tracer else contextlib.nullcontext()
        capture.take()
        interval = Interval(clock)
        try:
            with span:
                raw, code, engine = run_job(qhilb, job)
        except Exception as exc:  # a crashing job is a failed operation
            result.add(*interval.end())
            result.failures.append("%s: %s: %s" % (job.name, type(exc).__name__, exc))
            continue
        result.latencies.append(result.add(*interval.end()))
        engines = [engine] if engine is not None else capture.take()
        result.counters[job.name] = read_counters(engines)
        problems = []
        if code != job.exit_code:
            problems.append("exit code %r, want %r" % (code, job.exit_code))
        try:
            output = render(qhilb, job, raw)
            for check, param in job.checks:
                msg = CHECKS[check](job, output, raw, param, frozen)
                if msg:
                    problems.append(msg)
        except Exception as exc:  # output the checks cannot read is wrong output
            problems.append("%s: %s" % (type(exc).__name__, exc))
        if problems:
            result.failures.append("%s: %s" % (job.name, "; ".join(problems)))
    return result


def stream_pass(qhilb, size, seed, pass_index, pool, values, clock, tracer):
    queries = make_stream(pool, seed, pass_index, STREAM_LENGTH[size])
    engine = qhilb.gw_engine.Engine(c_max=STREAM_C_MAX)
    answers = []
    latencies = []
    now = clock.now
    span = tracer.span("job:stream") if tracer else contextlib.nullcontext()
    interval = Interval(clock)
    with span:
        for _, beta, ins, _ in queries:
            q0 = now()
            try:
                answers.append(engine.invariant(beta, ins))
            except Exception as exc:  # a crashing query is a failed operation
                answers.append(exc)
            latencies.append(now() - q0)
    result = Pass()
    result.add(*interval.end())
    result.latencies = latencies
    result.attempted = len(queries)
    result.counters["stream#%d" % pass_index] = read_counters([engine])
    Unknown = qhilb.gw_engine.Unknown
    rat_str = qhilb.coeffring.rat_str
    seen = set()
    reasks = unknowns = 0
    for (idx, beta, ins, _), got in zip(queries, answers):
        reasks += idx in seen
        seen.add(idx)
        if isinstance(got, Exception):
            result.failures.append("query %r %r: %s: %s" % (beta, ins, type(got).__name__, got))
            continue
        shown = "UNKNOWN" if isinstance(got, Unknown) else rat_str(got)
        unknowns += shown == "UNKNOWN"
        if shown != values[idx]:
            result.failures.append("query %r %r: got %s, want %s" % (beta, ins, shown, values[idx]))
    result.notes = {"reask_share": reasks / len(queries), "unknown_share": unknowns / len(queries)}
    return result


def counter_report(passes, baseline):
    """One line per job: its counters, whether they repeated across passes
    and whether they match the frozen baseline."""
    lines = []
    for job in dict.fromkeys(job for p in passes for job in p.counters):
        seen = [p.counters[job] for p in passes if job in p.counters]
        first = seen[0]
        line = "%s %s" % (job, " ".join("%s=%d" % kv for kv in sorted(first.items())) or "absent")
        if any(counts != first for counts in seen[1:]):
            line += " NOT REPEATED across passes: %r" % seen
        want = baseline.get(job)
        if want is not None:
            line += " (baseline %s)" % ("match" if first == want else "DIFFERS: %r" % want)
        lines.append(line)
    return lines


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--max-passes", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    clock = SpeedClock().start()
    try:
        return run(args, clock)
    finally:
        clock.stop()


def run(args, clock):
    now = clock.now
    t_setup = now()
    import qhilb
    import qhilb.cli
    from qhilb import chow, gw_engine, quantum
    gw_engine.Engine(c_max=SETUP_C_MAX[args.workload])
    t_chow = now()
    chow.cup_table_lines()
    chow.pairing()
    chow.dual_groups()
    chow_init = now() - t_chow
    relations_s = 0.0
    if args.workload == "quantum-ring":
        t_rel = now()
        quantum.load_relations()
        relations_s = now() - t_rel
    setup_s = now() - t_setup

    src = os.path.realpath(os.path.join("src", "qhilb"))
    if os.path.dirname(os.path.realpath(qhilb.__file__)) != src:
        print("error: imported qhilb from %s, not %s" % (qhilb.__file__, src), file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(now)
        tracer.install()
    capture = EngineCapture(qhilb.cli)
    if args.workload == "invariant-stream":
        pool = stream_pool(chow.CODIM)
        values = load_pool_values()
        if len(values) != len(pool):
            print("error: %d frozen stream values for %d pool keys" % (len(values), len(pool)),
                  file=sys.stderr)
            return 2
        baseline = {}
    else:
        frozen = load_frozen()
        baseline = frozen["counters"]

    passes = []
    measured = 0.0
    while True:
        k = len(passes)
        if args.workload == "invariant-stream":
            p = stream_pass(qhilb, args.size, args.seed, k, pool, values, clock, tracer)
        else:
            p = fixed_jobs_pass(qhilb, args.workload, args.size, args.seed, k,
                                capture, frozen, clock, tracer)
        passes.append(p)
        measured += p.raw_wall
        if args.max_passes and len(passes) >= args.max_passes:
            break
        if measured + measured / len(passes) > args.seconds:
            break

    latencies = [x for p in passes for x in p.latencies]
    result = {
        "passes": len(passes),
        "attempted": sum(p.attempted for p in passes),
        "failures": [f for p in passes for f in p.failures],
        "setup_s": setup_s,
        "cpu_s": statistics.median(p.cpu for p in passes),
        "raw_cpu_s": statistics.median(p.raw_cpu for p in passes),
        "raw_wall_s": statistics.median(p.raw_wall for p in passes),
        "slowdown_p50": statistics.median(clock.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "query_n": len(latencies),
        "query_p50_ms": 1000.0 * statistics.median(latencies) if latencies else None,
        "query_p99_ms": 1000.0 * percentile(latencies, 99) if latencies else None,
        "counters": [p.counters for p in passes],
        "counter_report": counter_report(passes, baseline),
        "notes": [p.notes for p in passes],
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        for name in COUNTERS:
            vals = [c.get(name) for p in passes for c in p.counters.values()]
            if vals and all(isinstance(v, int) for v in vals):
                layers["gw_engine." + name] = sum(vals)
        layers["chow.init_s"] = chow_init
        if "quantum.load_relations.s" in layers:
            layers["quantum.load_relations.s"] += relations_s
        result["layers"] = layers
        result["absent"] = tracer.absent
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
        tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                           "counters": result["counters"], "cpu_s": result["cpu_s"]})
        result["trace_file"] = os.path.relpath(path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
