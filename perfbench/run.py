"""Benchmark of viprcert: time to verdict on seeded certificate workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is used from `src/`
and is not installed.  Each workload is a pool of generated certificates
(see workloads below and `gen.py`), mixing valid certificates with forged
ones whose first failure is known by construction.

With `--trace 0` the real command line, `python -m viprcert.cli`, runs as
a child process with default flags in a closed loop with one client: each
invocation starts when the previous one has ended, until `--seconds` have
passed.  Every verdict is checked; a wrong exit code, verdict or failure
location, a crash, a timeout or exit 3 counts as a failed invocation.
With `--trace 1` a separate in-process run times each module's public
functions instead (see `layers.py`).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it are a
readable report, including the run environment.  Everything the run
writes goes under `.perfbench-work/` in the checkout, and the per-run
directory is removed at exit.
"""

import sys

from harness import main

if __name__ == "__main__":
    sys.exit(main())
