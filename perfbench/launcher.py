"""Start the measured commands from a small process and report their cost.

A child's peak RSS as the kernel reports it includes the memory image of
the process that forked it, so commands must not be forked from
``run.py``, which holds numpy and the reference results. ``run.py``
starts this process first and sends it one JSON line per command,
``{"argv": [...], "log": path}``; it answers with one line,
``{"wall": s, "rss_mb": MB, "code": n}``, and exits when its input ends.
A command still running after ``TIMEOUT_S`` is killed, so a hung program
fails the run instead of stalling it.
"""

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 100


def main() -> None:
    for line in sys.stdin:
        job = json.loads(line)
        with open(job["log"], "w", encoding="utf-8") as handle:
            start = time.perf_counter()
            process = subprocess.Popen(job["argv"], stdout=handle, stderr=subprocess.STDOUT)
            timer = threading.Timer(TIMEOUT_S, process.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(process.pid, 0)
                wall = time.perf_counter() - start
            finally:
                timer.cancel()
        process.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss of a reaped child covers its own reaped children (pool workers)
        answer = {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": process.returncode}
        print(json.dumps(answer), flush=True)


if __name__ == "__main__":
    main()
