"""Runs one demandhmm CLI command and records its own peak resident set.

    python3 perfbench/command.py HWM_PATH CLI_ARGS...

behaves as ``python -m demandhmm.cli CLI_ARGS...`` (same exit code and
output) and, on the way out, writes this process's ``VmHWM`` from
``/proc/self/status`` to HWM_PATH, in kB.

The peak that ``wait4`` reports for a child is not its own: Linux carries
the high-water mark of the address space the child replaced on ``exec``
into it, and ``subprocess`` starts children with ``vfork``, so that is the
benchmark process's peak. ``VmHWM`` covers the command's address space only.
"""

import atexit
import os
import runpy
import sys


def _write_hwm(path):
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(path, "w") as fh:
        fh.write(kb + "\n")


atexit.register(_write_hwm, sys.argv.pop(1))
sys.path[0] = os.getcwd()     # as with ``python -m``, not this file's directory
runpy.run_module("demandhmm.cli", run_name="__main__", alter_sys=True)
