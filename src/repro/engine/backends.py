"""Pluggable execution backends: one dispatch seam for every fan-out.

Everything the engine runs in parallel -- chunked space evaluation,
streamed block sources, replication maps -- flows through one abstract
:class:`ExecutionBackend`.  A backend is *where tasks run*; the plan
(which blocks exist, in what order) and the artifacts (bit-identical
however the blocks were computed) belong to the caller.  Two
implementations ship:

``serial``
    In-process execution, one task at a time -- the zero-dependency
    reference every other backend must match bit-for-bit.
``process_pool``
    The historical ``concurrent.futures`` process pool, with the full
    resilience stack (retry, dead-worker pool replacement, timeouts,
    serial degradation).

Selection is threaded end to end: ``Scenario.backend`` /
``backend_options`` (excluded from the cache identity -- artifacts are
bit-identical across backends), ``RunContext(backend=...)``, and CLI
``--backend/--backend-option``.  Further backends plug in through
:func:`register_backend`.

Every backend passes one shared conformance suite
(``tests/engine/test_backends.py``): plan-order delivery, bit-identical
outputs, fault-plan recovery, idempotent teardown.
"""

from __future__ import annotations

import abc
import os
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
)

from repro.engine.faults import FaultInjector
from repro.engine.resilience import (
    Emit,
    ResiliencePolicy,
    iter_tasks_resilient,
)

def default_max_workers() -> int:
    """Worker count when the caller does not pin one."""
    return max(1, min(8, os.cpu_count() or 1))


def validate_workers(value: Any, name: str = "workers") -> int:
    """A positive integer worker count, or a naming ``ValueError``."""
    try:
        workers = int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{name} must be a positive integer (or None for auto-sizing), "
            f"got {value!r}"
        ) from None
    if workers < 1:
        raise ValueError(
            f"{name} must be a positive integer (or None for auto-sizing), "
            f"got {value!r}"
        )
    return workers


class ExecutionBackend(abc.ABC):
    """Where the engine's pure tasks execute.

    The contract every implementation must honor (and the conformance
    suite enforces):

    * :meth:`submit_blocks` yields ``(index, result)`` strictly in
      ascending index order, whatever the completion order -- the
      plan-order guarantee the streaming reducers and ``_concat_results``
      rely on;
    * results are **bit-identical** to in-process evaluation: a backend
      moves bytes, it never rounds them;
    * recovery follows the :class:`~repro.engine.resilience.ResiliencePolicy`:
      typed failures retry with deterministic backoff, vanished workers
      are replaced within the pool-failure budget, then execution
      degrades to in-process serial rather than failing the run;
    * :meth:`close` is idempotent and leak-free -- after it returns, no
      worker process started by this backend is still alive.
    """

    #: Registry key; subclasses override.
    name: ClassVar[str] = ""
    #: Accepted constructor options, option name -> short description.
    options: ClassVar[Mapping[str, str]] = {}

    def __init__(self) -> None:
        self._closed = False

    # ---- execution -----------------------------------------------------

    @abc.abstractmethod
    def submit_blocks(
        self,
        fn: Callable[..., Any],
        args_list: Sequence[Tuple],
        window: Optional[int] = None,
        policy: Optional[ResiliencePolicy] = None,
        injector: Optional[FaultInjector] = None,
        emit: Optional[Emit] = None,
        start_index: int = 0,
        job: Optional[Any] = None,
    ) -> Iterator[Tuple[int, Any]]:
        """Run ``fn(*args_list[i])`` for ``i >= start_index``, in order.

        At most ``window`` tasks are in flight or buffered for
        re-ordering (``None``: unbounded); ``start_index`` supports
        checkpoint resume (earlier tasks are never evaluated).  ``job``
        is an optional :class:`~repro.engine.job.SpaceJob` the backend
        must install in every process that may run a task (including
        this one, for serial degradation) *before* the task executes --
        the once-per-worker shipment of a fan-out's immutable inputs.
        """

    def run_tasks(
        self,
        fn: Callable[..., Any],
        args_list: Sequence[Tuple],
        policy: Optional[ResiliencePolicy] = None,
        injector: Optional[FaultInjector] = None,
        emit: Optional[Emit] = None,
        job: Optional[Any] = None,
    ) -> List[Any]:
        """Collect :meth:`submit_blocks` into an ordered result list."""
        return [
            result
            for _, result in self.submit_blocks(
                fn, args_list, policy=policy, injector=injector, emit=emit,
                job=job,
            )
        ]

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        policy: Optional[ResiliencePolicy] = None,
        injector: Optional[FaultInjector] = None,
        emit: Optional[Emit] = None,
    ) -> List[Any]:
        """Order-preserving map of a one-argument task over ``items``."""
        return self.run_tasks(
            fn,
            [(item,) for item in items],
            policy=policy,
            injector=injector,
            emit=emit,
        )

    # ---- capability / lifecycle ----------------------------------------

    @property
    @abc.abstractmethod
    def parallelism(self) -> int:
        """How many tasks can make progress at once (plan sizing hint)."""

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release workers.  Idempotent; safe to call twice."""
        self._closed = True

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} parallelism={self.parallelism}>"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Type[ExecutionBackend]] = {}


def register_backend(cls: Type[ExecutionBackend]) -> Type[ExecutionBackend]:
    """Register a backend class under ``cls.name`` (usable as decorator)."""
    if not cls.name:
        raise ValueError("a backend class must define a non-empty name")
    _REGISTRY[cls.name] = cls
    return cls


def backend_names() -> List[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def backend_class(name: str) -> Type[ExecutionBackend]:
    """The registered class for ``name``, or a naming ``ValueError``."""
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown execution backend {name!r}; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name]


def validate_backend_options(name: str, options: Mapping[str, Any]) -> Dict[str, Any]:
    """Check option *keys* against the backend's declared set.

    Unknown keys raise a ``ValueError`` naming the bad key and the
    accepted options (value validation happens in the constructor).
    Returns a plain dict copy.
    """
    cls = backend_class(name)
    options = dict(options or {})
    for key in options:
        if key not in cls.options:
            raise ValueError(
                f"unknown option {key!r} for backend {name!r}; "
                f"accepted: {sorted(cls.options)}"
            )
    return options


def create_backend(
    name: str,
    options: Optional[Mapping[str, Any]] = None,
    max_workers: Optional[int] = None,
) -> ExecutionBackend:
    """Instantiate backend ``name`` with validated ``options``.

    ``max_workers`` seeds the ``workers`` option where the backend
    accepts one and the options did not pin it -- how the historical
    ``--workers`` knob keeps meaning "pool width" under every backend.
    """
    cls = backend_class(name)
    opts = validate_backend_options(name, options or {})
    if max_workers is not None and "workers" in cls.options and "workers" not in opts:
        opts["workers"] = validate_workers(max_workers, name="max_workers")
    return cls(**opts)


def resolve_backend(
    backend: Optional[Any] = None,
    options: Optional[Mapping[str, Any]] = None,
    max_workers: Optional[int] = None,
) -> ExecutionBackend:
    """The backend a fan-out should run on.

    ``backend`` may be an :class:`ExecutionBackend` instance (used as
    is; the caller owns its lifecycle), a registered name, or ``None``
    -- the historical heuristic: ``process_pool`` sized by
    ``max_workers`` (``serial`` when that pins a single worker).
    """
    if isinstance(backend, ExecutionBackend):
        if options:
            raise ValueError(
                "backend options only apply when selecting by name; "
                "configure the instance instead"
            )
        return backend
    if backend is not None and not isinstance(backend, str):
        raise TypeError(
            f"backend must be an ExecutionBackend, a name, or None, "
            f"got {type(backend).__name__}"
        )
    name = backend
    if name is None:
        workers = (
            default_max_workers() if max_workers is None
            else validate_workers(max_workers, name="max_workers")
        )
        name = "serial" if workers <= 1 else "process_pool"
    return create_backend(name, options, max_workers=max_workers)


# ---------------------------------------------------------------------------
# Built-in backends
# ---------------------------------------------------------------------------


@register_backend
class SerialBackend(ExecutionBackend):
    """In-process, one task at a time: the bit-identity reference.

    Shares the resilient runner's serial path, so typed failures are
    still retried with the policy's deterministic backoff -- a fault
    plan behaves the same here as on any pool, minus the process churn.
    """

    name = "serial"
    options: ClassVar[Mapping[str, str]] = {}

    @property
    def parallelism(self) -> int:
        return 1

    def submit_blocks(
        self,
        fn: Callable[..., Any],
        args_list: Sequence[Tuple],
        window: Optional[int] = None,
        policy: Optional[ResiliencePolicy] = None,
        injector: Optional[FaultInjector] = None,
        emit: Optional[Emit] = None,
        start_index: int = 0,
        job: Optional[Any] = None,
    ) -> Iterator[Tuple[int, Any]]:
        if job is not None:
            from repro.engine.job import install_job

            install_job(job)
        return iter_tasks_resilient(
            fn,
            args_list,
            max_workers=1,
            window=window,
            policy=policy,
            injector=injector,
            emit=emit,
            start_index=start_index,
        )


@register_backend
class ProcessPoolBackend(ExecutionBackend):
    """The historical single-host process pool, lifted behind the seam.

    Execution semantics are exactly :func:`~repro.engine.resilience.iter_tasks_resilient`
    -- sliding submission window, plan-order delivery, retry/pool
    replacement/serial degradation -- with pools created per fan-out and
    torn down when it completes or is abandoned (the instance itself
    holds no processes, so ``close()`` has nothing to leak).
    """

    name = "process_pool"
    options: ClassVar[Mapping[str, str]] = {
        "workers": "pool width (positive int; default: auto-sized)",
    }

    def __init__(self, workers: Optional[int] = None) -> None:
        super().__init__()
        self.workers = (
            default_max_workers() if workers is None
            else validate_workers(workers)
        )

    @property
    def parallelism(self) -> int:
        return self.workers

    def submit_blocks(
        self,
        fn: Callable[..., Any],
        args_list: Sequence[Tuple],
        window: Optional[int] = None,
        policy: Optional[ResiliencePolicy] = None,
        injector: Optional[FaultInjector] = None,
        emit: Optional[Emit] = None,
        start_index: int = 0,
        job: Optional[Any] = None,
    ) -> Iterator[Tuple[int, Any]]:
        initializer = None
        initargs: Tuple = ()
        if job is not None:
            from repro.engine.job import install_job

            # In-process for the serial-degradation path; as the pool
            # initializer so spawned (and replacement-pool) workers get
            # the job without per-task re-pickling.  Forked workers
            # additionally inherit the registry for free.
            install_job(job)
            initializer = install_job
            initargs = (job,)
        return iter_tasks_resilient(
            fn,
            args_list,
            max_workers=self.workers,
            window=window,
            policy=policy,
            injector=injector,
            emit=emit,
            start_index=start_index,
            initializer=initializer,
            initargs=initargs,
        )
