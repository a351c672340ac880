"""Run a command as a grandchild; report its start time, exit code and peak RSS.

    python bench/launch.py REPORT COMMAND...

On Linux a process inherits its parent's resident size into ``ru_maxrss``
when it execs (the kernel records the memory image it replaces). The
benchmark parent holds the generated inputs and numpy, so a child it starts
directly would report at least the parent's size. This launcher is a small
fresh interpreter: it forks COMMAND itself, waits for it and writes
``<CLOCK_MONOTONIC at fork> <exit code> <ru_maxrss kB>`` to REPORT.
"""

import os
import sys
import time


def main(report: str, argv: list) -> int:
    t0 = time.monotonic()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(argv[0], argv)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    with open(report, "w", encoding="utf-8") as fh:
        fh.write(f"{t0!r} {code} {usage.ru_maxrss}\n")
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
