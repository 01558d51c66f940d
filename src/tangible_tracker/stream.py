"""TCP fan-out of newline-delimited records, served on the caller's thread.

The listener and every client socket are non-blocking, and no thread is
started. ``publish`` first accepts the clients that are waiting, then adds
the line to each client's pending bytes and sends what the socket takes at
once; it never waits on the network. A client whose send fails, or whose
pending bytes exceed the limit, is closed and dropped, so the tracking loop
keeps pace. Every client socket asks the kernel for a fixed 64 KiB send
buffer, so the limit applies near ``MAX_BUFFERED`` bytes of backlog rather
than after the megabytes a self-sized buffer would take first. Nagle's
algorithm is off on every client socket, so a record leaves when it is
published rather than after the client's (possibly delayed) ACK of the
last one. A server is not for concurrent use: call it from one thread at
a time.
"""

from __future__ import annotations

import logging
import selectors
import socket
import time

log = logging.getLogger(__name__)

MAX_BUFFERED = 1 << 20  # pending bytes per client before it is dropped
SEND_BUFFER = 64 << 10  # SO_SNDBUF of every client socket
FLUSH_SECONDS = 2.0  # close() waits at most this long for all clients together


def _send(conn: socket.socket, pending: bytearray) -> bool:
    """Send what the socket takes now; False when the client is gone."""
    try:
        del pending[:conn.send(pending)]
    except BlockingIOError:
        pass
    except OSError:
        return False
    return True


class StreamServer:
    """Accepts clients and fans published lines out to all of them.

    A client receives every record published after it was accepted, in
    order and with no gaps, unless it is dropped for falling behind.
    Clients that connect are accepted by the next ``publish`` or
    ``client_count``.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen()
        self._listener.setblocking(False)
        self._clients: dict[socket.socket, bytearray] = {}

    @property
    def address(self) -> tuple[str, int]:
        name = self._listener.getsockname()
        return name[0], name[1]

    def _accept(self) -> None:
        while True:
            try:
                conn, peer = self._listener.accept()
            except OSError:  # none waiting, or the listener is closed
                return
            conn.setblocking(False)
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, SEND_BUFFER)
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            log.info("stream client connected: %s:%s", *peer[:2])
            self._clients[conn] = bytearray()

    def publish(self, line: bytes) -> None:
        """Send one already-terminated line to every connected client, as
        far as each socket takes it now; drop the clients whose send fails
        or whose pending bytes exceed the limit."""
        self._accept()
        dropped = []
        for conn, pending in self._clients.items():
            pending += line
            if not _send(conn, pending) or len(pending) > MAX_BUFFERED:
                dropped.append(conn)
        for conn in dropped:
            conn.close()
            del self._clients[conn]
        if dropped:
            log.info("dropped %d slow stream client(s)", len(dropped))

    def client_count(self) -> int:
        self._accept()
        return len(self._clients)

    def close(self) -> None:
        """Stop accepting, send what the clients have pending for at most
        FLUSH_SECONDS in all, then disconnect every client."""
        self._accept()  # a client still waiting gets an end of stream, not a reset
        self._listener.close()
        deadline = time.monotonic() + FLUSH_SECONDS
        with selectors.DefaultSelector() as waiting:
            for conn, pending in self._clients.items():
                if pending:
                    waiting.register(conn, selectors.EVENT_WRITE, pending)
            while waiting.get_map() and (left := deadline - time.monotonic()) > 0:
                for key, _ in waiting.select(left):
                    if not _send(key.fileobj, key.data) or not key.data:
                        waiting.unregister(key.fileobj)
        for conn in self._clients:
            conn.close()
        self._clients.clear()
