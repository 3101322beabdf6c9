"""The stdlib HTTP/JSON layer over the store: queries *and* the run queue.

Read routes (``GET``, all ``application/json``):

``/health``
    Liveness only: the process is up and answering.  Stays 200 during a
    drain -- orchestrators should restart on /health, route on /ready.
``/ready``
    Readiness: the store answers, every supervisor's heartbeat is
    fresh, and the service is not draining; otherwise 503.
``/v1/scenarios``, ``/v1/scenarios/<ref>``
    Stored scenario listing / detail (identity, stages, artifact states).
``/v1/query/cheapest|frontier|regions|whatif``
    Planner queries answered from stored artifacts (see
    :mod:`repro.store.queries`); never touch the evaluator.
``/v1/runs``
    Queue listing (``?state=queued|leased|running|done|failed|cancelled``)
    plus per-state counts.
``/v1/runs/<id>``
    One job: state, attempts, lease, error record, result summary.

Write routes (``POST``):

``/v1/runs``
    Idempotent enqueue.  Body: ``{"scenario": {...},
    "idempotency_key": "...", "max_attempts": 3}``; returns 202 with the
    job id (200 when the idempotency key deduped to an existing job).
    When the queued backlog is at ``max_queued`` the request is shed
    with 429 + ``Retry-After`` -- the depth bound is checked inside the
    enqueue transaction, so it can never be overshot by a race.
``/v1/runs/<id>/cancel``
    Cancel: immediate while queued; recorded (and honored at the next
    supervisor transition) while leased/running.

Errors are JSON: 400 for malformed parameters/bodies, 404 for unknown
scenarios/jobs/routes, 503 for stale artifacts and not-ready, 429 for
load shedding.  Status selection is *typed* -- every
:class:`~repro.store.queries.QueryError` subclass carries its
``http_status`` -- never matched on message text.

The server is a :class:`~http.server.ThreadingHTTPServer` with a
per-request socket timeout; the store's sqlite handle is internally
locked, so concurrent queries and enqueues are safe.  Client
disconnects mid-response (``BrokenPipeError`` / ``ConnectionResetError``)
are swallowed, not stack-traced.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, Sequence
from urllib.parse import parse_qs, urlparse

from repro.engine.scenario import Scenario
from repro.service.jobs import JobQueue, QueueFull, UnknownJob
from repro.store import queries
from repro.store.queries import QueryError
from repro.store.store import ArtifactStore
from repro.util.validate import strict_int

#: Largest accepted POST body; a scenario declaration is a few KiB.
MAX_BODY_BYTES = 1 << 20

#: A supervisor whose loop has not beaten for this long is unhealthy.
READY_HEARTBEAT_S = 30.0


def _reject_constant(name: str) -> float:
    """``json.loads`` hook: ``NaN``/``Infinity`` literals are not JSON."""
    raise ValueError(f"{name} is not a JSON number")


class _BadRequest(ValueError):
    """A malformed query parameter or request body (HTTP 400)."""


def _param(params: Dict[str, list], name: str, required: bool = False) -> Optional[str]:
    values = params.get(name)
    if not values:
        if required:
            raise _BadRequest(f"missing required query parameter {name!r}")
        return None
    return values[0]


def _float_param(
    params: Dict[str, list], name: str, required: bool = False
) -> Optional[float]:
    raw = _param(params, name, required=required)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError:
        raise _BadRequest(f"query parameter {name!r} must be a number, got {raw!r}")


def job_body(job: Dict[str, Any], include_spec: bool = False) -> Dict[str, Any]:
    """The client-facing shape of one queue row (spec omitted in lists)."""
    body = {
        "id": job["id"],
        "state": job["state"],
        "scenario_name": job["scenario_name"],
        "idempotency_key": job["idempotency_key"],
        "attempts": job["attempts"],
        "max_attempts": job["max_attempts"],
        "cancel_requested": job["cancel_requested"],
        "lease_owner": job["lease_owner"],
        "lease_expires_at": job["lease_expires_at"],
        "error": job["error"],
        "result": job["result"],
        "created_at": job["created_at"],
        "updated_at": job["updated_at"],
    }
    if include_spec:
        body["scenario"] = json.loads(job["scenario_json"])
    return body


class ServiceState:
    """Everything the handler threads share beyond the store itself."""

    def __init__(
        self,
        store: ArtifactStore,
        supervisors: Sequence[Any] = (),
        max_queued: int = 64,
        ready_heartbeat_s: float = READY_HEARTBEAT_S,
    ):
        self.store = store
        self.queue = JobQueue(store)
        self.supervisors = list(supervisors)
        self.max_queued = int(max_queued)
        self.ready_heartbeat_s = float(ready_heartbeat_s)
        self.draining = threading.Event()

    def readiness(self) -> Dict[str, Any]:
        """``{"ready": bool, ...probe detail...}`` for ``/ready``."""
        body: Dict[str, Any] = {"draining": self.draining.is_set()}
        try:
            body["scenarios"] = len(self.store.scenarios())
            body["store"] = "ok"
        except Exception as exc:
            body["store"] = f"{type(exc).__name__}: {exc}"
        stale = [
            s.worker_id
            for s in self.supervisors
            if not s.alive or s.heartbeat_age_s() > self.ready_heartbeat_s
        ]
        body["supervisors"] = len(self.supervisors)
        if stale:
            body["stale_supervisors"] = stale
        body["ready"] = (
            not self.draining.is_set() and body["store"] == "ok" and not stale
        )
        return body


class StoreQueryHandler(BaseHTTPRequestHandler):
    """One request: route, query the store or the queue, emit JSON."""

    server_version = "repro-serve/2.0"
    #: Per-request socket timeout (seconds); a stalled client cannot
    #: pin a handler thread forever.  Applied by ``setup()``.
    timeout: Optional[float] = 30.0
    #: Set by :func:`create_server`.
    service: ServiceState = None  # type: ignore[assignment]
    quiet: bool = True

    @property
    def store(self) -> ArtifactStore:
        return self.service.store

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.quiet:
            super().log_message(format, *args)

    def _send(
        self,
        status: int,
        body: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        payload = json.dumps(
            body, indent=2, sort_keys=True, allow_nan=False
        ).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError, TimeoutError):
            # The client went away (or stalled past the socket timeout)
            # mid-response; there is nobody left to answer and nothing
            # to clean up -- the connection is torn down by the server.
            self.close_connection = True

    def _dispatch(self, handler: Callable[[], None]) -> None:
        try:
            handler()
        except _BadRequest as exc:
            self._send(400, {"error": str(exc)})
        except QueryError as exc:
            # Typed statuses: unknown scenario 404, stale artifact 503,
            # other client mistakes 400 -- by class, never by message.
            self._send(exc.http_status, {"error": str(exc)})
        except UnknownJob as exc:
            self._send(404, {"error": str(exc)})
        except QueueFull as exc:
            self._send(
                429,
                {
                    "error": str(exc),
                    "depth": exc.depth,
                    "max_queued": exc.bound,
                    "retry_after_s": exc.retry_after_s,
                },
                headers={"Retry-After": str(max(1, int(exc.retry_after_s)))},
            )
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        except Exception as exc:  # never leak a stack trace as HTML
            self._send(500, {"error": f"{type(exc).__name__}: {exc}"})

    # ---- GET -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server convention)
        url = urlparse(self.path)
        params = parse_qs(url.query)

        def handle() -> None:
            handler = self._route(url.path, params)
            if handler is None:
                self._send(404, {"error": f"unknown route {url.path!r}"})
                return
            status, body = handler()
            self._send(status, body)

        self._dispatch(handle)

    def _route(self, path: str, params: Dict[str, list]):
        store = self.store
        service = self.service
        if path == "/health":
            return lambda: (200, {
                "status": "ok",
                "scenarios": len(store.scenarios()),
                "jobs": service.queue.counts(),
                "store": str(store.path),
            })
        if path == "/ready":
            def ready():
                body = service.readiness()
                return (200 if body["ready"] else 503), body
            return ready
        if path == "/v1/scenarios":
            return lambda: (200, {"scenarios": store.scenarios()})
        if path.startswith("/v1/scenarios/"):
            ref = path[len("/v1/scenarios/"):]
            return lambda: (200, queries.scenario_detail(store, ref))
        if path == "/v1/runs":
            def runs():
                state = _param(params, "state")
                try:
                    jobs = service.queue.list_jobs(state=state)
                except ValueError as exc:
                    raise _BadRequest(str(exc))
                return 200, {
                    "jobs": [job_body(j) for j in jobs],
                    "counts": service.queue.counts(),
                    "max_queued": service.max_queued,
                }
            return runs
        if path.startswith("/v1/runs/"):
            job_id = path[len("/v1/runs/"):]
            if "/" not in job_id:
                return lambda: (
                    200,
                    job_body(service.queue.get(job_id), include_spec=True),
                )
        if path == "/v1/query/cheapest":
            return lambda: (200, queries.cheapest_for_deadline(
                store,
                _param(params, "scenario", required=True),
                _float_param(params, "deadline_s", required=True),
                power_budget_w=_float_param(params, "power_budget_w"),
            ))
        if path == "/v1/query/frontier":
            return lambda: (200, queries.frontier_points(
                store,
                _param(params, "scenario", required=True),
                power_budget_w=_float_param(params, "power_budget_w"),
            ))
        if path == "/v1/query/regions":
            return lambda: (200, queries.regions_summary(
                store, _param(params, "scenario", required=True)
            ))
        if path == "/v1/query/whatif":
            return lambda: (200, queries.whatif_delta(
                store,
                _param(params, "scenario", required=True),
                _param(params, "against", required=True),
                deadline_s=_float_param(params, "deadline_s"),
            ))
        return None

    # ---- POST ----------------------------------------------------------

    def _read_body(self) -> Dict[str, Any]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise _BadRequest("Content-Length must be an integer")
        if length > MAX_BODY_BYTES:
            raise _BadRequest(
                f"request body too large ({length} > {MAX_BODY_BYTES} bytes)"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise _BadRequest("request body required")
        try:
            body = json.loads(raw, parse_constant=_reject_constant)
        except ValueError as exc:
            raise _BadRequest(f"request body is not valid JSON: {exc}")
        if not isinstance(body, dict):
            raise _BadRequest("request body must be a JSON object")
        return body

    def do_POST(self) -> None:  # noqa: N802 (http.server convention)
        url = urlparse(self.path)

        def handle() -> None:
            if url.path == "/v1/runs":
                self._enqueue_run()
                return
            if url.path.startswith("/v1/runs/") and url.path.endswith("/cancel"):
                job_id = url.path[len("/v1/runs/"):-len("/cancel")]
                job = self.service.queue.cancel(job_id)
                self._send(200, job_body(job))
                return
            self._send(404, {"error": f"unknown route {url.path!r}"})

        self._dispatch(handle)

    def _enqueue_run(self) -> None:
        service = self.service
        if service.draining.is_set():
            self._send(
                503,
                {"error": "service is draining; retry against a live replica"},
                headers={"Retry-After": "1"},
            )
            return
        body = self._read_body()
        spec = body.get("scenario")
        if not isinstance(spec, dict):
            raise _BadRequest(
                "body must carry a 'scenario' object (the declarative "
                "scenario JSON run_scenario accepts)"
            )
        try:
            scenario = Scenario.from_dict(spec)
        except (ValueError, TypeError) as exc:
            raise _BadRequest(f"invalid scenario: {exc}")
        try:
            max_attempts = strict_int(body.get("max_attempts", 3), "max_attempts")
        except ValueError as exc:
            raise _BadRequest(str(exc))
        if max_attempts < 1:
            raise _BadRequest("max_attempts must be a positive integer")
        idempotency_key = body.get("idempotency_key")
        if idempotency_key is not None and not isinstance(idempotency_key, str):
            raise _BadRequest("idempotency_key must be a string")
        job, created = service.queue.enqueue(
            scenario.to_json(),
            idempotency_key=idempotency_key,
            max_attempts=max_attempts,
            max_queued=service.max_queued,
            scenario_name=scenario.name or scenario.workload,
        )
        self._send(
            202 if created else 200,
            dict(job_body(job), created=created),
        )


def create_server(
    store: ArtifactStore,
    host: str = "127.0.0.1",
    port: int = 8734,
    quiet: bool = True,
    supervisors: Sequence[Any] = (),
    max_queued: int = 64,
    request_timeout_s: Optional[float] = 30.0,
    state: Optional[ServiceState] = None,
) -> ThreadingHTTPServer:
    """A ready-to-``serve_forever`` HTTP server bound to ``host:port``.

    ``port=0`` binds an ephemeral port (tests); read it back from
    ``server.server_address[1]``.  The returned server carries its
    :class:`ServiceState` as ``server.service`` (drain flag, queue,
    supervisor registry).
    """
    if state is None:
        state = ServiceState(
            store, supervisors=supervisors, max_queued=max_queued
        )
    handler = type(
        "BoundStoreQueryHandler",
        (StoreQueryHandler,),
        {"service": state, "quiet": quiet, "timeout": request_timeout_s},
    )
    server = ThreadingHTTPServer((host, port), handler)
    server.service = state  # type: ignore[attr-defined]
    return server


def serve(
    store_dir,
    host: str = "127.0.0.1",
    port: int = 8734,
    quiet: bool = False,
    runners: int = 1,
    max_queued: int = 64,
    lease_s: float = 30.0,
    drain_grace_s: float = 10.0,
    install_signal_handlers: bool = True,
) -> None:
    """Open the store at ``store_dir``, start ``runners`` supervisors,
    and serve queries + the run queue until interrupted.

    SIGTERM (and SIGINT) triggers a graceful drain: ``/ready`` flips to
    503 (``/health`` stays 200), supervisors stop leasing and get
    ``drain_grace_s`` to finish or checkpoint their in-flight job, held
    leases are released for the next replica, and the store is closed.
    """
    from repro.service.supervisor import Supervisor

    store = ArtifactStore(store_dir)
    supervisors = [
        Supervisor(store, worker_id=f"serve-runner-{i}", lease_s=lease_s)
        for i in range(max(0, runners))
    ]
    state = ServiceState(store, supervisors=supervisors, max_queued=max_queued)
    server = create_server(store, host=host, port=port, quiet=quiet, state=state)
    for supervisor in supervisors:
        supervisor.start()
    bound_host, bound_port = server.server_address[:2]
    print(
        f"repro serve: {len(store.scenarios())} stored scenario(s) from "
        f"{store.path} on http://{bound_host}:{bound_port} "
        f"({len(supervisors)} runner(s), max {max_queued} queued)",
        flush=True,
    )

    drained = threading.Event()

    def shutdown() -> None:
        if drained.is_set():
            return
        drained.set()
        state.draining.set()
        for supervisor in supervisors:
            supervisor.stop(grace_s=drain_grace_s)
        server.shutdown()

    def on_signal(signum, frame) -> None:
        # serve_forever() runs in this thread; shutdown() would deadlock
        # waiting for the serve loop to notice, so drain from the side.
        threading.Thread(target=shutdown, daemon=True).start()

    if install_signal_handlers:
        signal.signal(signal.SIGTERM, on_signal)
        signal.signal(signal.SIGINT, on_signal)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        shutdown()
        server.server_close()
        store.close()
