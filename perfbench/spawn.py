"""Runs the benchmark's child processes and reports their time and memory.

Linux records in a process's peak resident memory the memory of the process
it was forked from, so a child forked by run.py, which holds the checks'
data, would report the size of run.py.  This small process is
started before that data exists and forks every child instead.

Protocol: one JSON argv per line on stdin; for each, one JSON line
{"rc", "wall", "rss_mb", "bytes"} followed by that many bytes of the
child's standard output.  Children's standard error goes to this process's.
"""

import json
import os
import subprocess
import sys
import time


def main():
    out = sys.stdout.buffer
    for line in sys.stdin.buffer:
        argv = json.loads(line)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE)
        data = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        head = {"rc": proc.returncode, "wall": wall, "rss_mb": usage.ru_maxrss / 1024,
                "bytes": len(data)}
        out.write(json.dumps(head).encode() + b"\n" + data)
        out.flush()


if __name__ == "__main__":
    main()
