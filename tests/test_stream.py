import gc
import socket
import statistics
import subprocess
import sys
import threading
import time
import warnings

import pytest

from tangible_tracker import stream
from tangible_tracker.stream import MAX_BUFFERED, StreamServer


def connect(server: StreamServer) -> socket.socket:
    sock = socket.create_connection(server.address, timeout=5)
    deadline = time.time() + 5
    while server.client_count() == 0 and time.time() < deadline:
        time.sleep(0.005)
    return sock


def wait_clients(server: StreamServer, n: int):
    deadline = time.time() + 5
    while server.client_count() < n and time.time() < deadline:
        time.sleep(0.005)
    assert server.client_count() >= n


def read_all_lines(sock: socket.socket) -> list[bytes]:
    chunks = []
    sock.settimeout(5)
    try:
        while True:
            data = sock.recv(4096)
            if not data:
                break
            chunks.append(data)
    except TimeoutError:
        pass
    return b"".join(chunks).split(b"\n")[:-1]


def test_clients_get_gapless_suffixes_from_join_point():
    server = StreamServer()
    try:
        for i in range(5):
            server.publish(b"rec %d\n" % i)
        a = connect(server)
        wait_clients(server, 1)
        for i in range(5, 10):
            server.publish(b"rec %d\n" % i)
        b = connect(server)
        wait_clients(server, 2)
        for i in range(10, 15):
            server.publish(b"rec %d\n" % i)
    finally:
        server.close()
    lines_a = read_all_lines(a)
    lines_b = read_all_lines(b)
    a.close()
    b.close()
    assert lines_a == [b"rec %d" % i for i in range(5, 15)]
    assert lines_b == [b"rec %d" % i for i in range(10, 15)]
    # identical suffix: b's records are the tail of a's
    assert lines_a[-len(lines_b):] == lines_b


def test_slow_client_is_dropped_not_blocking(monkeypatch):
    monkeypatch.setattr(stream, "MAX_BUFFERED", 256)
    server = StreamServer()
    try:
        slow = connect(server)
        wait_clients(server, 1)
        payload = b"x" * 120 + b"\n"
        start = time.time()
        for _ in range(20000):
            server.publish(payload)
        elapsed = time.time() - start
        assert elapsed < 5.0  # publisher never stalls on the dead client
        deadline = time.time() + 5
        while server.client_count() > 0 and time.time() < deadline:
            time.sleep(0.01)
        assert server.client_count() == 0
        slow.settimeout(5)
        while True:  # the server eventually hangs up on the slow reader
            if slow.recv(65536) == b"":
                break
        slow.close()
    finally:
        server.close()


def test_close_flushes_queued_records():
    server = StreamServer()
    sock = connect(server)
    wait_clients(server, 1)
    for i in range(50):
        server.publish(b"line %04d\n" % i)
    server.close()
    lines = read_all_lines(sock)
    sock.close()
    assert lines == [b"line %04d" % i for i in range(50)]


def stalled_client(server: StreamServer) -> socket.socket:
    """A client with a 4 KiB receive window that never reads."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.connect(server.address)
    return sock


# connects to the port in argv[1], reads to the end and writes what it got
READER = """
import socket, sys
sock = socket.create_connection(("127.0.0.1", int(sys.argv[1])), timeout=30)
chunks = []
while data := sock.recv(1 << 16):
    chunks.append(data)
sys.stdout.buffer.write(b"".join(chunks))
"""


def test_reading_client_gets_a_burst_in_full():
    records = [b"rec %05d " % i + b"r" * 224 + b"\n" for i in range(20000)]
    server = StreamServer()
    reader = subprocess.Popen([sys.executable, "-c", READER, str(server.address[1])],
                              stdout=subprocess.PIPE)
    try:
        wait_clients(server, 1)
        for record in records:
            server.publish(record)
        assert server.client_count() == 1  # kept pace, not dropped
    finally:
        server.close()
        received, _ = reader.communicate(timeout=30)
    assert reader.returncode == 0
    assert received == b"".join(records)  # 4.7 MB, every record in order


def test_never_reading_client_is_dropped_near_the_limit():
    server = StreamServer()
    sock = stalled_client(server)
    try:
        wait_clients(server, 1)
        line = b"s" * 234 + b"\n"
        published = 0
        while server.client_count() and published < 8 * MAX_BUFFERED:
            server.publish(line)
            published += len(line)
            if published % (64 * len(line)) == 0:
                time.sleep(0.001)  # about the pace of a tracking loop
        assert server.client_count() == 0
        # the kernel holds only a small, fixed share on top of the limit
        assert published < MAX_BUFFERED + (512 << 10)
    finally:
        server.close()
        sock.close()


def test_server_starts_no_thread():
    before = threading.active_count()
    server = StreamServer()
    socks = [socket.create_connection(server.address, timeout=5) for _ in range(3)]
    wait_clients(server, 3)
    for i in range(100):
        server.publish(b"rec %d\n" % i)
    during = threading.active_count()
    server.close()
    for sock in socks:
        assert len(read_all_lines(sock)) == 100
        sock.close()
    assert during == before
    assert threading.active_count() == before


def test_failed_bind_closes_the_listener():
    # a port another server holds: the refused listener is closed, not left
    # for the collector to find open
    holder = StreamServer()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(OSError):
                StreamServer(*holder.address)
            gc.collect()
    finally:
        holder.close()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)], caught


def test_close_waits_one_deadline_for_all_stalled_clients(monkeypatch):
    monkeypatch.setattr(stream, "FLUSH_SECONDS", 0.5)
    server = StreamServer()
    socks = [stalled_client(server) for _ in range(3)]
    try:
        wait_clients(server, 3)
        line = b"p" * 1023 + b"\n"
        for _ in range(512):  # 512 KiB: more than the kernel holds, under the limit
            server.publish(line)
        assert server.client_count() == 3
        start = time.monotonic()
        server.close()
        elapsed = time.monotonic() - start
    finally:
        server.close()
        for sock in socks:
            sock.close()
    # one shared deadline: three stalled clients waited for in turn take 1.5 s
    assert 0.5 <= elapsed < 1.2


def test_client_sockets_send_without_nagle():
    server = StreamServer()
    sock = connect(server)
    try:
        (conn,) = server._clients
        assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1
    finally:
        server.close()
        sock.close()


# a client that delays its ACKs, as a remote device may: with Nagle's
# algorithm on, each small record waits for the ACK of the one before
@pytest.mark.skipif(not hasattr(socket, "TCP_QUICKACK"), reason="needs TCP_QUICKACK")
def test_delayed_ack_client_gets_records_when_published():
    server = StreamServer()
    sock = connect(server)
    sock.settimeout(5)
    latencies = []

    def read(count):
        pending = b""
        while len(latencies) < count:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 0)
            data = sock.recv(4096)
            if not data:
                return
            arrived = time.monotonic_ns()
            *lines, pending = (pending + data).split(b"\n")
            latencies.extend(arrived - int(line) for line in lines)

    reader = threading.Thread(target=read, args=(100,))
    reader.start()
    try:
        for _ in range(100):
            server.publish(b"%d\n" % time.monotonic_ns())
            time.sleep(0.01)
    finally:
        reader.join(5)
        server.close()
        sock.close()
    assert len(latencies) == 100
    assert statistics.median(latencies) < 5e6
