"""Steering-as-a-service: the asyncio evaluation server.

``repro serve`` binds :class:`~repro.server.app.EvalServer` — a
stdlib-only HTTP/1.1 service whose request path is a memoization
ladder (ETag revalidation, response cache, single-flight coalescing,
trace-cache replay, simulation last).  A miss that reaches the bottom
runs on the one executor, :class:`~repro.server.executor.EvalExecutor`:
a one-task process-pool run per evaluation, ``--max-workers`` at a
time.  ``repro loadtest`` drives :mod:`repro.server.loadgen` against
it.  See ``docs/server.md``.
"""

from .app import EvalServer, ServerConfig, run_server, serve_main
from .executor import EvalExecutor, ExecutionError, evaluate_request
from .protocol import (EvalRequest, ProtocolError, etag_for, parse_request,
                       request_key)

__all__ = [
    "EvalExecutor",
    "EvalRequest",
    "EvalServer",
    "ExecutionError",
    "ProtocolError",
    "ServerConfig",
    "etag_for",
    "evaluate_request",
    "parse_request",
    "request_key",
    "run_server",
    "serve_main",
]
