"""Start, probe and stop one ``repro serve`` daemon as a subprocess."""

from __future__ import annotations

import http.client
import json
import re
import subprocess
import time

_SERVING = re.compile(rb"serving on http://[^:]+:(\d+)")


class DaemonError(RuntimeError):
    pass


class Daemon:
    """One daemon process.  ``start()`` returns the set-up time: from the
    spawn until ``GET /readyz`` answers 200."""

    def __init__(self, argv: list[str], env: dict, cwd: str, log_path: str) -> None:
        self.argv = argv
        self.env = env
        self.cwd = cwd
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self._log = None

    def start(self, timeout: float = 60.0) -> float:
        self._log = open(self.log_path, "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, cwd=self.cwd, env=self.env,
            stdout=self._log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        )
        deadline = t0 + timeout
        while self.port is None:
            self._check_alive(deadline)
            with open(self.log_path, "rb") as fh:
                match = _SERVING.search(fh.read())
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.002)
        while True:
            self._check_alive(deadline)
            try:
                status, _ = self.request("GET", "/readyz", timeout=1.0)
            except OSError:
                status = 0
            if status == 200:
                return time.perf_counter() - t0
            time.sleep(0.002)

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise DaemonError(
                f"daemon exited with {self.proc.returncode}; log: {self.log_path}"
            )
        if time.perf_counter() > deadline:
            raise DaemonError(f"daemon not ready in time; log: {self.log_path}")

    def request(self, method: str, path: str, body=None, timeout: float = 60.0):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            data = None if body is None else json.dumps(body).encode()
            headers = {} if data is None else {"Content-Type": "application/json"}
            conn.request(method, path, body=data, headers=headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def get_json(self, path: str) -> dict:
        status, raw = self.request("GET", path)
        if status != 200:
            raise DaemonError(f"GET {path} answered {status}")
        return json.loads(raw)

    def peak_rss_mb(self) -> float:
        """Peak resident set size of the daemon process so far."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise DaemonError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful drain through ``POST /shutdown``; killed if it hangs."""
        if self.proc is None:
            return
        try:
            if self.proc.poll() is None and self.port is not None:
                try:
                    self.request("POST", "/shutdown", timeout=5.0)
                except OSError:
                    pass
                try:
                    self.proc.wait(timeout)
                except subprocess.TimeoutExpired:
                    pass
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(10)
        finally:
            if self._log is not None:
                self._log.close()
                self._log = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()

