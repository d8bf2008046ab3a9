"""qhilb benchmark: three workloads, end-to-end timings and per-layer counts.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|smoke]

Workloads (see BENCHMARK.json and perfbench/README.md):

  hyper-columns     the deep WDVV reduction behind two hyperelliptic columns
  quantum-ring      the two-point solver and small quantum product
  invariant-stream  a seeded stream of ~1,000 Engine.invariant queries on
                    one engine, as a library caller issues them

With ``--trace 0`` the command runs several set-up-only child processes and
then one workload child that measures for ``--seconds``, and prints the
end-to-end metrics.  With ``--trace 1`` it runs one untraced and one traced
pass of the workload, each in its own child, and prints the per-layer
metrics and the tracing overhead.  Children run one at a time, each a
fresh single-threaded Python process with ``src`` on PYTHONPATH.

Every output is checked; a wrong output, exit code or exception counts as
a failed operation.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SETUP_RUNS = 7
TIME_LIMIT_S = 170.0


def load_metric_names():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class ChildFailed(RuntimeError):
    pass


def run_child(args, deadline, extra=()):
    """Run child.py once and return its final JSON line."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cmd = [sys.executable, CHILD, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size] + list(extra)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time before %s" % " ".join(extra))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise ChildFailed("child timed out: %s" % " ".join(cmd[1:]))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed("child exited %d: %s" % (proc.returncode, " ".join(cmd[1:])))
    return json.loads(lines[-1])


def report_child(tag, res):
    print("%s: %d pass(es), cpu_s %.4f (raw: cpu %.4f s, wall %.4f s; machine slowdown"
          " median %.3f), %d op(s), %d failed"
          % (tag, res["passes"], res["cpu_s"], res["raw_cpu_s"], res["raw_wall_s"],
             res["slowdown_p50"], res["attempted"], len(res["failures"])))
    for failure in res["failures"]:
        print("  FAILED %s" % failure)
    notes = [note for note in res["notes"] if note]
    if notes:
        print("  stream: reask_share %.4f, unknown_share %.4f (mean of %d streams)"
              % (statistics.mean(n["reask_share"] for n in notes),
                 statistics.mean(n["unknown_share"] for n in notes), len(notes)))
    for line in res["counter_report"]:
        print("  counters %s" % line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny jobs that only check the wiring")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join("src", "qhilb", "__init__.py")):
        print("error: run from the root of a qhilb checkout (src/qhilb is missing)",
              file=sys.stderr)
        return 2
    end_to_end, per_layer = load_metric_names()

    try:
        if args.trace:
            plain = run_child(args, deadline, ["--max-passes", "1"])
            traced = run_child(args, deadline, ["--max-passes", "1", "--trace", "1"])
            children = [("untraced", plain), ("traced", traced)]
            values = dict(traced["layers"])
            values["trace_overhead_frac"] = traced["cpu_s"] / plain["cpu_s"] - 1.0
            units = per_layer
        else:
            setups = [run_child(args, deadline, ["--setup-only"])["setup_s"]
                      for _ in range(SETUP_RUNS - 1)]
            main_res = run_child(args, deadline)
            children = [("workload", main_res)]
            setups.append(main_res["setup_s"])
            values = {name: main_res[name] for name in end_to_end if name in main_res}
            values["setup_s"] = statistics.median(setups)
            print("setup_s samples: %s" % " ".join("%.4f" % s for s in setups))
            print("query latency samples: %d" % main_res["query_n"])
            units = end_to_end
    except ChildFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    attempted = sum(res["attempted"] for _, res in children)
    failed = sum(len(res["failures"]) for _, res in children)
    for tag, res in children:
        report_child(tag, res)
    print("failed_frac: %d/%d = %.4f" % (failed, attempted, failed / attempted if attempted else 1.0))
    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None:
            print("absent: %s" % name)
            continue
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
