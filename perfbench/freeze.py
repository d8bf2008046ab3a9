"""Regenerate the benchmark's frozen expected outputs in perfbench/expected/.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/freeze.py

Everything written here is engine-derived: it is what the engine printed
when the file was frozen, not an independent reference.  The independent
checks (the (3,2) l=2 counts, tests/data/two_point_table.golden, 17/17
relations) live in child.py and are not frozen.  Refreeze only when an
intended change to the engine's output has been reviewed; the benchmark
counts every difference from these files as a failed operation.
"""

from __future__ import annotations

import json
import os
import sys

import child

ORIGIN = ("engine-derived: outputs of the qhilb engine itself, frozen by "
          "perfbench/freeze.py; not an independent reference")


def main():
    import qhilb
    import qhilb.cli
    from qhilb import chow
    from qhilb.coeffring import rat_str
    from qhilb.gw_engine import Engine, Unknown

    capture = child.EngineCapture(qhilb.cli)
    outputs, counters = {}, {}
    for sizes in child.JOBS.values():
        for jobs in sizes.values():
            for job in jobs:
                capture.take()
                raw, code, engine = child.run_job(qhilb, job)
                if code != job.exit_code:
                    sys.exit("%s exited %r, want %r" % (job.name, code, job.exit_code))
                if any(check == "frozen" for check, _ in job.checks):
                    outputs[job.name] = child.render(qhilb, job, raw)
                engines = [engine] if engine is not None else capture.take()
                counters[job.name] = child.read_counters(engines)
                print("%s: %s" % (job.name, counters[job.name]))
    with open(os.path.join(child.EXPECTED_DIR, "outputs.json"), "w") as fh:
        json.dump({"origin": ORIGIN, "outputs": outputs, "counters": counters},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")

    engine = Engine(c_max=child.STREAM_C_MAX)
    pool = child.stream_pool(chow.CODIM)
    with open(os.path.join(child.EXPECTED_DIR, "stream_pool_c4.txt"), "w") as fh:
        fh.write("# %s\n" % ORIGIN)
        fh.write("# One invariant per line (UNKNOWN for an Unknown) for the %d keys of\n"
                 "# child.stream_pool, in its order, from one Engine(c_max=%d).\n"
                 % (len(pool), child.STREAM_C_MAX))
        for beta, ins in pool:
            value = engine.invariant(beta, ins)
            fh.write("%s\n" % ("UNKNOWN" if isinstance(value, Unknown) else rat_str(value)))


if __name__ == "__main__":
    main()
