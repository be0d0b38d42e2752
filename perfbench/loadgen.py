"""HTTP load generator: keep-alive connections, open and closed loops.

Open loop: request ``i`` is due at ``start + i / rate`` whatever happened
to earlier requests; latency is timed from the due time, so a stall is
charged to every request it delays.  The rate is a constant of the
benchmark, never derived from a measurement of the program.

Closed loop: each connection sends its next request as soon as the
previous response arrives.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass

#: socket timeout of every connection, seconds
TIMEOUT_S = 60.0


@dataclass
class Sample:
    """One request as the client saw it (perf_counter seconds)."""

    index: int
    due: float
    sent: float
    done: float
    status: int
    body: bytes
    late: float = 0.0  # generator lateness: sent - max(due, connection free)

    @property
    def latency(self) -> float:
        return self.done - self.due


class Connection:
    """One keep-alive HTTP/1.1 connection to the pool."""

    def __init__(self, host: str, port: int):
        self._host, self._port = host, port
        self._http = self._open()

    def _open(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self._host, self._port, timeout=TIMEOUT_S)

    def post(self, body: bytes) -> tuple[int, bytes]:
        """POST /predict; a transport error reconnects and returns status 0."""
        try:
            self._http.request(
                "POST",
                "/predict",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = self._http.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as error:
            self._http.close()
            self._http = self._open()
            return 0, repr(error).encode()

    def close(self) -> None:
        self._http.close()


def open_loop(
    connections: list[Connection],
    body_of,
    rate: float,
    seconds: float,
) -> list[Sample]:
    """Requests due at a constant *rate* for *seconds*, one thread per
    connection; a request waits for a free connection after its due time."""
    start = time.perf_counter() + 0.05
    count = int(rate * seconds)
    lock = threading.Lock()
    next_index = [0]
    samples: list[Sample] = []

    def sender(connection: Connection) -> None:
        while True:
            with lock:
                index = next_index[0]
                next_index[0] += 1
            if index >= count:
                return
            free = time.perf_counter()
            due = start + index / rate
            body = body_of(index)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status, payload = connection.post(body)
            done = time.perf_counter()
            sample = Sample(
                index, due, sent, done, status, payload,
                late=sent - max(due, free),
            )
            with lock:
                samples.append(sample)

    _run_threads(sender, connections)
    samples.sort(key=lambda sample: sample.index)
    return samples


def closed_loop(
    connections: list[Connection], body_of, seconds: float
) -> tuple[list[Sample], float]:
    """Back-to-back requests on every connection for *seconds*.

    Returns the samples and the elapsed time from start to the last
    response.
    """
    start = time.perf_counter()
    stop = start + seconds
    lock = threading.Lock()
    next_index = [0]
    samples: list[Sample] = []

    def sender(connection: Connection) -> None:
        while time.perf_counter() < stop:
            with lock:
                index = next_index[0]
                next_index[0] += 1
            body = body_of(index)
            sent = time.perf_counter()
            status, payload = connection.post(body)
            sample = Sample(index, sent, sent, time.perf_counter(), status, payload)
            with lock:
                samples.append(sample)

    _run_threads(sender, connections)
    samples.sort(key=lambda sample: sample.index)
    elapsed = max((s.done for s in samples), default=stop) - start
    return samples, elapsed


def _run_threads(target, connections: list[Connection]) -> None:
    threads = [
        threading.Thread(target=target, args=(connection,), daemon=True)
        for connection in connections
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=170.0)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")
