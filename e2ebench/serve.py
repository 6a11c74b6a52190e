"""The serve-mixed workload: ``repro-map serve`` driven over loopback HTTP.

The server runs as a subprocess (``python -m repro serve --port 0``), so its
event loop, worker thread and memory are its own.  Two client threads form
a closed loop: each sends its next request only after its previous reply,
one connection per request (the server closes each connection).  Times are
scaled by host speed, measured between segments of the stream.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
from checker import routed_digest

CLIENTS = 2
#: Requests per segment of the stream (see :func:`drive`).
SEGMENT = 7
START_TIMEOUT_S = 60
DRAIN_TIMEOUT_S = 30
_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


class Server:
    """One ``repro-map serve`` subprocess bound to an ephemeral loopback port."""

    def __init__(self, src: Path, workdir: Path, cache_dir: Path, max_entries: int,
                 trace_out: Path | None = None):
        workdir.mkdir(parents=True, exist_ok=True)
        command = [
            sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1",
            "--cache-dir", str(cache_dir), "--cache-max-entries", str(max_entries),
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(src), env.get("PYTHONPATH")) if part
        )
        self._stdout_path = workdir / "server.out"
        self._stdout = open(self._stdout_path, "w")
        self._stderr = open(workdir / "server.err", "w")
        self.process = subprocess.Popen(
            command, stdout=self._stdout, stderr=self._stderr, env=env, cwd=str(workdir)
        )
        try:
            self.port = self._wait_for_port()
        except BaseException:
            self.stop()
            raise

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _LISTENING.search(self._stdout_path.read_text())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with code {self.process.returncode}")
            time.sleep(0.005)
        raise RuntimeError("server did not start listening in time")

    def call(self, method: str, path: str, body: bytes | None = None) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def metrics(self) -> dict:
        status, raw = self.call("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
        return json.loads(raw)

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark (``VmHWM``)."""
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        """Drain the server and wait for it to exit (kill it if it hangs)."""
        try:
            if self.process.poll() is None:
                try:
                    self.call("POST", "/admin/drain")
                except OSError:
                    pass
                try:
                    self.process.wait(timeout=DRAIN_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
        finally:
            self._stdout.close()
            self._stderr.close()


def drive(server: Server, bodies: list) -> tuple[list, list]:
    """Send ``bodies`` in order through a closed loop of :data:`CLIENTS` clients.

    The stream runs in segments of :data:`SEGMENT` requests.  Between
    segments both clients have their replies and the server is idle, so the
    host-speed kernel runs there, on a CPU nothing else wants, and each
    segment's times are scaled by the kernel runs on either side of it.

    Returns ``(replies, segments)``.  ``replies[i]`` is ``(seconds, scale,
    status, cached, outcome)`` for ``bodies[i]``, where ``outcome`` holds the
    routed digest, swaps and depth of a 200 reply; when the exchange failed
    or its reply could not be decoded, status and cached are ``None`` and
    ``outcome`` names the exception.  ``segments`` holds ``(wall seconds, scale)`` per segment.
    Replies are decoded after the stream, so the clients do no work while
    their requests are timed.
    """
    exchanges: list = [None] * len(bodies)
    scales: list = [None] * len(bodies)
    segments = []
    kernel = hostspeed.calibrate()
    for first in range(0, len(bodies), SEGMENT):
        indices = range(first, min(first + SEGMENT, len(bodies)))
        wall = _segment(server, bodies, indices, exchanges)
        after = hostspeed.calibrate()
        factor = hostspeed.scale(kernel, after)
        scales[first:first + SEGMENT] = [factor] * len(indices)
        segments.append((wall, factor))
        kernel = after
    replies = [_reply(*exchange, factor) for exchange, factor in zip(exchanges, scales)]
    return replies, segments


def _segment(server: Server, bodies: list, indices: range, exchanges: list) -> float:
    """Run ``bodies[i]`` for ``i`` in ``indices``; fill ``exchanges[i]`` with
    ``(seconds, status, raw body)`` (status ``None`` and the exception's repr
    if the exchange failed).  Returns the segment's wall seconds."""
    cursor = iter(indices)
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            begin = time.perf_counter()
            try:
                status, raw = server.call("POST", "/v1/compile", bodies[index])
            except Exception as exc:  # any client-side failure is a failed request
                status, raw = None, repr(exc)
            exchanges[index] = (time.perf_counter() - begin, status, raw)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start


def _reply(seconds: float, status: int | None, raw, factor: float) -> tuple:
    """One entry of :func:`drive`'s replies, from an exchange of :func:`_segment`."""
    if status is not None:
        try:
            return (seconds, factor, status, *_reply_fields(status, raw))
        except Exception as exc:  # a reply the client cannot decode is a failed request
            raw = repr(exc)
    return (seconds, factor, None, None, raw)


def _reply_fields(status: int, raw: bytes) -> tuple:
    if status != 200:
        return None, None
    body = json.loads(raw)
    result = body["result"]
    routing = result["routing"]
    return body["cached"], {
        "digest": routed_digest(routing["routed_circuit"]["qasm"], routing["initial_layout"]),
        "swaps": result["metrics"]["swaps"],
        "depth": result["metrics"]["routed_depth"],
    }
