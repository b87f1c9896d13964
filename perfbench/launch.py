"""Run one command in a fresh process; report its wall time and rusage.

    python3 -S perfbench/launch.py REPORT -- CMD [ARG ...]

Writes ``exit_code wall_s cpu_s maxrss_kib`` to ``REPORT``. The
benchmark starts every measured process through this small interpreter
rather than directly: on Linux, exec folds the RSS high-water mark of
the address space it replaces into the new program's ``ru_maxrss``, so
a child spawned by the benchmark itself would report the benchmark's
own peak memory whenever that is larger.
"""

import os
import sys
import time


def main() -> int:
    report, cmd = sys.argv[1], sys.argv[3:]
    start = time.perf_counter()
    pid = os.posix_spawnp(cmd[0], cmd, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(report, "w") as fh:
        fh.write(
            f"{os.waitstatus_to_exitcode(status)} {wall!r} "
            f"{usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss}\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
