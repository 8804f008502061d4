"""Process handling for the end-to-end benchmark: spawning the dcolor CLI,
the serve daemon and the probe with a clean environment, timing them from
exec to exit, and reading each child's peak RSS from wait4.

Every child is registered until it has been waited for, so kill_all() can
stop whatever is still running when the benchmark fails or times out.
"""

import contextlib
import json
import os
import socket
import time
from dataclasses import dataclass


@dataclass
class Finished:
    """One child process that ran to exit."""
    wall_s: float      # exec to exit, as seen by the parent
    code: int          # exit code (negative: killed by that signal)
    peak_rss_mib: float
    stdout_path: str
    stderr_path: str

    def stdout(self):
        with open(self.stdout_path, encoding="utf-8", errors="replace") as f:
            return f.read()

    def label(self, what):
        """`what`, followed by the end of stderr when the child failed."""
        if self.code == 0:
            return what
        with open(self.stderr_path, encoding="utf-8", errors="replace") as f:
            tail = " | ".join(f.read().strip().splitlines()[-3:])
        return f"{what} (exit {self.code}: {tail})"


class Harness:
    """Runs the built binaries inside one work directory."""

    def __init__(self, build_dir, work_dir, sim_threads):
        self.dcolor = os.path.join(build_dir, "tools", "dcolor")
        self.probe = os.path.join(build_dir, "perfbench_probe")
        self.work_dir = work_dir
        self.sim_threads = sim_threads
        self._children = set()  # pids not yet reaped
        self._serial = 0
        # DCOLOR_* variables (tracing, checking, engine or SIMD pins) would
        # change what is measured, so children never inherit them.
        self._env = {k: v for k, v in os.environ.items()
                     if not k.startswith("DCOLOR_")}

    def path(self, name):
        return os.path.join(self.work_dir, name)

    def unique_path(self, stem, suffix):
        self._serial += 1
        return self.path(f"{stem}.{self._serial}{suffix}")

    def env(self, sim_threads=None):
        env = dict(self._env)
        env["DCOLOR_SIM_THREADS"] = str(sim_threads or self.sim_threads)
        return env

    def spawn(self, argv, sim_threads=None, tag="proc"):
        """Starts argv with stdout and stderr in files of the work dir;
        returns (pid, stdout_path, stderr_path)."""
        out = self.unique_path(tag, ".out")
        err = out[:-len(".out")] + ".err"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
        pid = os.posix_spawn(argv[0], argv, self.env(sim_threads),
                             file_actions=actions)
        self._children.add(pid)
        return pid, out, err

    def wait(self, pid):
        """Blocks until pid exits; returns (exit code, peak RSS in MiB)."""
        _, status, usage = os.wait4(pid, 0)
        self._children.discard(pid)
        return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0

    @contextlib.contextmanager
    def pinned(self, cpus):
        """Children spawned inside the block may run on `cpus` only: they
        inherit the affinity this process holds while it spawns them."""
        saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)
        try:
            yield
        finally:
            os.sched_setaffinity(0, saved)

    def run(self, argv, sim_threads=None, tag="proc"):
        """Runs argv to exit, timed from just before exec to reaping."""
        start = time.perf_counter()
        pid, out, err = self.spawn(argv, sim_threads, tag)
        code, rss = self.wait(pid)
        return Finished(time.perf_counter() - start, code, rss, out, err)

    def kill_all(self):
        """SIGKILLs and reaps every child that is still registered."""
        for pid in list(self._children):
            try:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            self._children.discard(pid)

    # ---- helpers for the probe and the serve daemon ----------------------

    def probe_json(self, mode, args, sim_threads=None):
        """Runs perfbench_probe --mode=<mode>; returns (Finished, parsed
        JSON or None when the probe failed)."""
        out = self.unique_path(f"probe-{mode}", ".json")
        done = self.run([self.probe, f"--mode={mode}", f"--json={out}",
                         *args], sim_threads, tag=f"probe-{mode}")
        if done.code != 0 or not os.path.exists(out):
            return done, None
        with open(out, encoding="utf-8") as f:
            data = json.load(f)
        os.remove(out)
        return done, data

    def start_daemon(self, workers, timeout_s=60):
        """Starts `dcolor --cmd=serve` on an ephemeral port; returns
        (pid, port) once the daemon has written its port file."""
        port_file = self.unique_path("port", ".txt")
        pid, _, err = self.spawn([self.dcolor, "--cmd=serve",
                                  f"--workers={workers}", "--port=0",
                                  f"--port-file={port_file}"], tag="serve")
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            try:
                with open(port_file, encoding="utf-8") as f:
                    text = f.read()
                if text.endswith("\n"):
                    os.remove(port_file)
                    return pid, int(text)
            except FileNotFoundError:
                pass
            if os.waitpid(pid, os.WNOHANG)[0] == pid:
                self._children.discard(pid)
                with open(err, encoding="utf-8", errors="replace") as f:
                    raise RuntimeError(f"serve daemon exited at start: "
                                       f"{f.read().strip()}")
            time.sleep(0.001)
        raise RuntimeError("serve daemon wrote no port file")

    def stop_daemon(self, pid, port):
        """Sends {"op":"shutdown"} and reaps the daemon; returns (exit
        code, peak RSS in MiB)."""
        with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
            s.sendall(b'{"op":"shutdown"}\n')
            s.recv(4096)
        return self.wait(pid)
