"""Start benchmark commands from a small process and report their usage.

usage: python3 -S perfbench/launcher.py    (driven by run.py over pipes)

At exec, Linux folds the RSS high-water mark of the process that forked a
child into the child's ru_maxrss. Forked from the benchmark itself, every
command would report at least the benchmark's own RSS; forked from this
bare interpreter, the floor sits well below any quadrics command.

Protocol: one JSON request per stdin line,
    {"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}
and one JSON reply per stdout line,
    {"code": exit code, "wall": s, "cpu": user+sys s, "maxrss_kb": KB}.
Each command runs in its own session, is timed with os.wait4 and has its
whole process group killed when it outlives the timeout. The launcher
exits when stdin closes.
"""

import json
import os
import signal
import sys
import time

running = []


def kill_group(signum, frame):
    for pid in running:
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def run(request):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out = os.open(request["stdout"], flags, 0o644)
    err = os.open(request["stderr"], flags, 0o644)
    argv = request["argv"]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.setsid()
            os.dup2(out, 1)
            os.dup2(err, 2)
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    running.append(pid)
    os.close(out)
    os.close(err)
    signal.setitimer(signal.ITIMER_REAL, request["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        running.remove(pid)
    wall = time.perf_counter() - start
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def main():
    signal.signal(signal.SIGALRM, kill_group)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
