"""Start bosonqec processes from a process that stays small.

    python3 bench/spawner.py TMP_DIR

Reads one JSON request per stdin line, ``{"cmd": [...], "timeout": s}``,
runs the command with this process's working directory and environment,
writes its stdout and stderr to ``TMP_DIR/stdout`` and ``TMP_DIR/stderr``,
and answers with one JSON line ``{"wall_s", "rss_kb", "exit", "killed"}``.
Exits at end of input.

A child's peak RSS from ``wait4`` is at least its parent's peak RSS,
because the child starts in a copy of its parent's memory before it
execs.  run.py parses large reports, so its children are
started from here, where the peak stays far below that of any bosonqec
process.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def spawn(cmd: list[str], tmp_dir: str, timeout: float, cwd=None, env=None):
    """Run ``cmd``; return wall time, peak RSS (KiB), exit code and killed flag.

    The child is reaped with ``wait4`` for its own rusage.  A timer
    kills it after ``timeout``; ``waitid(WNOWAIT)`` leaves the exited
    child unreaped until the timer can no longer fire, so the kill
    never reaches a reused pid.
    """
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    with open(os.path.join(tmp_dir, "stdout"), "wb") as out, \
            open(os.path.join(tmp_dir, "stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)

        def kill() -> None:
            with lock:
                if not state["exited"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            # interrupted while the child runs; it is not reaped yet
            with lock:
                state["exited"] = True
            timer.cancel()
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        wall = time.perf_counter() - start
        with lock:
            killed = state["killed"]
            state["exited"] = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode, killed


def read_outputs(tmp_dir: str) -> tuple[str, str]:
    texts = []
    for name in ("stdout", "stderr"):
        with open(os.path.join(tmp_dir, name), encoding="utf-8", errors="replace") as fh:
            texts.append(fh.read())
    return texts[0], texts[1]


def main(argv: list[str]) -> int:
    # SIGTERM from run.py kills the running child before exiting
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    tmp_dir = argv[0]
    for line in sys.stdin:
        request = json.loads(line)
        wall, rss, code, killed = spawn(request["cmd"], tmp_dir, request["timeout"])
        reply = {"wall_s": wall, "rss_kb": rss, "exit": code, "killed": killed}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
