"""A minimal single-threaded HTTP client on asyncio streams.

The serving stack's handler speaks HTTP/1.0 and closes the connection
after each response, so one request is: connect, send, read to EOF.
Every connection of a load comes from one event loop in one thread;
the number of requests in flight at once is the number of connections.
"""

from __future__ import annotations

import asyncio
from time import perf_counter


class Response:
    __slots__ = ("status", "body", "start", "seconds", "port")

    def __init__(self, status: int, body: bytes, start: float, seconds: float,
                 port: int | None = None) -> None:
        self.status = status
        self.body = body
        self.start = start  # perf_counter() at connect: the server's clock too
        self.seconds = seconds
        self.port = port  # the client's local port: the server sees it as client_address


async def request(port: int, method: str, path: str, body: bytes = b"",
                  while_waiting=None) -> Response:
    """One request; ``seconds`` runs from connect to the last response byte.

    ``while_waiting()`` runs once the request is sent, while the server
    works on it: a closed-loop client prepares its next request there
    instead of between requests. A refused or broken connection comes
    back as status 0, so the caller counts it as a failed operation
    instead of aborting the load.
    """
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n").encode()
    start = perf_counter()
    local = None
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        local = writer.get_extra_info("sockname")[1]
        try:
            writer.write(head + body)
            await writer.drain()
            if while_waiting is not None:
                while_waiting()
            data = await reader.read()
        finally:
            writer.close()
    except OSError:
        return Response(0, b"", start, perf_counter() - start, local)
    seconds = perf_counter() - start
    split = data.find(b"\r\n\r\n")
    if not data.startswith(b"HTTP/") or split < 0:
        return Response(0, data, start, seconds, local)
    return Response(int(data[9:12]), data[split + 4:], start, seconds, local)
