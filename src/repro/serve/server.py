"""Asyncio server loop: TCP and stdio transports, control ops, CLI glue.

Each connection reads NDJSON lines and spawns one task per request, so
a single client that writes several lines before reading responses
still gets its same-instance queries coalesced by the dispatcher.
At most :data:`MAX_IN_FLIGHT` requests per connection are pending at
once; past that the loop stops reading until one is answered, so a
client that writes without reading stalls on TCP backpressure instead
of growing the server's task set.
Responses are written under a per-connection lock and matched by
``id`` (they may arrive out of order). A TCP request line longer than
:data:`MAX_LINE_BYTES` is answered with one ``too-large`` error and
skipped through its newline; the connection keeps serving.
"""

from __future__ import annotations

import asyncio
import contextlib
import sys

from ..errors import ReproError
from .dispatcher import MicroBatchDispatcher
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    QUERY_OPS,
    Request,
    encode_response,
    error_response,
    ok_response,
    parse_request,
)
from .registry import InstanceRegistry

__all__ = ["QueryServer", "run_cli", "MAX_IN_FLIGHT", "MAX_LINE_BYTES"]

#: Longest accepted TCP request line in bytes, newline excluded:
#: asyncio's default stream limit (64 KiB), passed explicitly to the
#: listener.
MAX_LINE_BYTES: int = 2**16

#: Pending requests per connection before the read loop pauses; well
#: above the default ``--max-batch`` so batching never waits on it.
MAX_IN_FLIGHT: int = 256


async def _skip_line(reader) -> bool:
    """Discard input through the next newline; ``False`` on EOF first."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return True
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError:
            return False


async def _throttle(tasks: "set[asyncio.Task]") -> None:
    """Wait until fewer than :data:`MAX_IN_FLIGHT` of ``tasks`` are pending."""
    while len(tasks) >= MAX_IN_FLIGHT:
        await asyncio.wait(tasks, return_when=asyncio.FIRST_COMPLETED)


class QueryServer:
    """One registry + one dispatcher behind a TCP or stdio transport."""

    def __init__(
        self,
        registry: InstanceRegistry,
        *,
        window: float = 0.002,
        max_batch: int = 64,
        default_version: str = "sum",
    ) -> None:
        self.registry = registry
        self.dispatcher = MicroBatchDispatcher(
            registry,
            window=window,
            max_batch=max_batch,
            default_version=default_version,
        )
        self._shutdown = asyncio.Event()
        self._server: "asyncio.base_events.Server | None" = None
        self._conn_tasks: "set[asyncio.Task]" = set()

    # -- request handling ---------------------------------------------

    async def handle_line(self, line: "str | bytes") -> dict:
        """Parse and answer one raw request line (never raises)."""
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            return error_response(None, exc.code, str(exc))
        return await self.handle_request(request)

    async def handle_request(self, request: Request) -> dict:
        if request.op == "ping":
            return ok_response(
                request.id, {"pong": True, "protocol": PROTOCOL_VERSION}
            )
        if request.op == "instances":
            return ok_response(
                request.id,
                {"default": self.registry.default, "instances": self.registry.info()},
            )
        if request.op == "stats":
            return ok_response(
                request.id, {"dispatcher": self.dispatcher.snapshot()}
            )
        if request.op == "shutdown":
            self._shutdown.set()
            return ok_response(request.id, {"stopping": True})
        assert request.op in QUERY_OPS
        try:
            instance = self.registry.get(request.instance)
        except KeyError:
            return error_response(
                request.id,
                "unknown-instance",
                f"unknown instance {request.instance!r}; "
                f"serving: {', '.join(self.registry.names())}",
            )
        return await self.dispatcher.submit(instance, request)

    # -- TCP transport ------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> "tuple[str, int]":
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_LINE_BYTES
        )
        sock = self._server.sockets[0].getsockname()
        return sock[0], sock[1]

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` request (or :meth:`stop`) arrives."""
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Idle connections block in readline() forever; cancel them so a
        # shutdown request actually terminates the serve loop.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks), return_exceptions=True)
        await self.dispatcher.close()

    async def _handle_connection(self, reader, writer) -> None:
        me = asyncio.current_task()
        if me is not None:
            self._conn_tasks.add(me)
        write_lock = asyncio.Lock()
        tasks: "set[asyncio.Task]" = set()

        async def send(response: dict) -> None:
            async with write_lock:
                writer.write(encode_response(response))
                with contextlib.suppress(ConnectionError):
                    await writer.drain()

        async def respond(line: bytes) -> None:
            await send(await self.handle_line(line))

        try:
            while not self._shutdown.is_set():
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # EOF: a final unterminated line
                except asyncio.LimitOverrunError:
                    await send(
                        error_response(
                            None,
                            "too-large",
                            f"request line exceeds {MAX_LINE_BYTES} bytes",
                        )
                    )
                    if not await _skip_line(reader):
                        break
                    continue
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(respond(line))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                await _throttle(tasks)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._conn_tasks.discard(me)
            # In-flight responses still finish on a normal EOF; after a
            # cancellation the first await below re-raises, which we
            # swallow so the task ends cleanly instead of as "cancelled".
            if tasks:
                try:
                    await asyncio.gather(*tasks, return_exceptions=True)
                except asyncio.CancelledError:
                    pass
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def run_tcp(self, host: str, port: int, *, announce: bool = True) -> None:
        host, port = await self.start(host, port)
        if announce:
            print(
                f"serving {len(self.registry.names())} instance(s) "
                f"on {host}:{port}",
                flush=True,
            )
        await self.serve_until_shutdown()

    # -- stdio transport ----------------------------------------------

    async def run_stdio(self) -> None:
        """NDJSON over stdin/stdout (``repro-bbncg serve --stdio``)."""
        loop = asyncio.get_running_loop()
        write_lock = asyncio.Lock()
        tasks: "set[asyncio.Task]" = set()

        async def respond(line: str) -> None:
            response = await self.handle_line(line)
            async with write_lock:
                sys.stdout.write(encode_response(response).decode("utf-8"))
                sys.stdout.flush()

        stop_wait = asyncio.ensure_future(self._shutdown.wait())
        try:
            while not self._shutdown.is_set():
                read = loop.run_in_executor(None, sys.stdin.readline)
                done, _ = await asyncio.wait(
                    {read, stop_wait}, return_when=asyncio.FIRST_COMPLETED
                )
                if read not in done:
                    break  # shutdown requested; the blocked reader thread
                    # dies with the process.
                line = read.result()
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(respond(line))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                await _throttle(tasks)
        finally:
            stop_wait.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            await self.dispatcher.close()


def run_cli(args) -> int:
    """Back the ``repro-bbncg serve`` subcommand; returns an exit code."""
    specs = args.instances or ["fig1"]
    try:
        registry = InstanceRegistry.from_specs(specs)
    except ReproError as exc:
        print(f"!! serve failed to build instances: {exc}", file=sys.stderr)
        return 1
    server = QueryServer(
        registry,
        window=args.batch_window_ms / 1000.0,
        max_batch=args.max_batch,
        default_version=args.version,
    )
    try:
        if args.stdio:
            asyncio.run(server.run_stdio())
        else:
            asyncio.run(server.run_tcp(args.host, args.port))
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        pass
    return 0
