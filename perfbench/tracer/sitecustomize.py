"""Span recorder the benchmark installs into the server it measures.

The benchmark puts this directory first on the server's ``PYTHONPATH``
for a traced run, so the interpreter imports this module at start-up —
in a solo server, a fleet router and every fleet worker alike.  When
``PERFBENCH_SPANS_DIR`` is set it imports the package, wraps the calls
into each layer's public functions listed in ``TARGETS`` with span
recorders, and at exit writes ``spans-<pid>.json`` to that directory.
Nothing in the program changes; without the variable this module does
nothing.

A span is ``[sid, parent sid, name, start ns, end ns, request key]``.
Times are ``time.perf_counter_ns`` (``CLOCK_MONOTONIC`` on Linux, the
clock the load generator reads).  The parent is the span current when
the call began: a context variable, which follows coroutines across
awaits and is private to each thread.  Work a coroutine hands to a
thread with ``loop.run_in_executor`` (request preprocessing, index
builds) keeps its caller as parent; threads fed any other way
(speculation branches, the kernel batcher, the store writer) start
parentless, which is what makes their spans off the request path.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import time

_now = time.perf_counter_ns
_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)
_ids = itertools.count(1)
_spans: list[tuple] = []

#: (module, qualified name, span name); ``Class.method`` names wrap the
#: method on the class, plain names are functions, rebound in every
#: ``repro`` module that imported them by name.
TARGETS = (
    ("repro.service.app", "ServiceApp.dispatch", "app.dispatch"),
    ("repro.service.protocol", "parse_create_payload",
     "protocol.parse_create_payload"),
    ("repro.relational.csv_io", "read_csv_text", "csv_io.read_csv_text"),
    ("repro.service.index_cache", "instance_fingerprint",
     "index_cache.instance_fingerprint"),
    ("repro.core.index_build", "IndexBuilder.build", "index_build.build"),
    ("repro.data.workloads", "builtin_instance",
     "workloads.builtin_instance"),
    ("repro.service.manager", "SessionManager.create_async",
     "manager.create_async"),
    ("repro.service.manager", "SessionManager.record_answer",
     "manager.record_answer"),
    ("repro.service.manager", "SessionManager.propose_question_async",
     "manager.propose_question_async"),
    ("repro.core.session", "InferenceSession.fork", "session.fork"),
    ("repro.core.state", "InferenceState.record", "state.record"),
    ("repro.core.strategies.base", "StatelessStrategy.propose",
     "strategies.propose"),
    ("repro.core.strategies.lookahead", "LookaheadSkylineStrategy.propose",
     "strategies.propose"),
    ("repro.core.planner", "IncrementalLookaheadPlanner.entropies",
     "planner.entropies"),
    ("repro.core.planner", "IncrementalLookaheadPlanner.advance",
     "planner.advance"),
    ("repro.core.fast_lookahead", "entropies_for_informative",
     "fast_lookahead.entropies_for_informative"),
    ("repro.core.plan_cache", "PlanCache.get", "plan_cache.get"),
    ("repro.core.plan_cache", "PlanCache.install", "plan_cache.install"),
    ("repro.service.plan_registry", "SharedPlanTier.get",
     "plan_registry.get"),
    ("repro.service.plan_registry", "SharedPlanTier.publish",
     "plan_registry.publish"),
    ("repro.service.store", "SqliteSessionStore.append_answers",
     "store.append_answers"),
    ("repro.service.store", "SqliteSessionStore.put_checkpoint",
     "store.put_checkpoint"),
    ("repro.service.events", "EventBus.publish", "events.publish"),
    ("repro.service.router", "FleetRouter.proxy", "router.proxy"),
    ("repro.service.shm_registry", "SharedIndexPlane.get_or_build",
     "shm_registry.get_or_build"),
)


def _record(sid, parent, name, start, end, key=None) -> None:
    _spans.append((sid, parent, name, start, end, key))


def _request_key(args) -> str | None:
    """``"METHOD /path"`` of ``dispatch(self, method, path, ...)`` and
    ``proxy(self, handle, method, path, ...)``."""
    strings = [a for a in args[1:4] if isinstance(a, str)]
    return f"{strings[0]} {strings[1]}" if len(strings) >= 2 else None


def _wrap(fn, name: str, keyed: bool):
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            sid, parent = next(_ids), _current.get()
            token = _current.set(sid)
            start = _now()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = _now()
                _current.reset(token)
                key = _request_key(args) if keyed else None
                _record(sid, parent, name, start, end, key)

        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid, parent = next(_ids), _current.get()
        token = _current.set(sid)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            _current.reset(token)
            key = _request_key(args) if keyed else None
            _record(sid, parent, name, start, end, key)

    return traced


def _wrap_run_in_executor(run_in_executor):
    """Run each executor job under the span that submitted it."""

    @functools.wraps(run_in_executor)
    def traced_run_in_executor(self, executor, fn, *args):
        parent = _current.get()
        if parent is None:
            return run_in_executor(self, executor, fn, *args)

        def job(*job_args):
            token = _current.set(parent)
            try:
                return fn(*job_args)
            finally:
                _current.reset(token)

        return run_in_executor(self, executor, job, *args)

    return traced_run_in_executor


def _wrap_offload(offload):
    """``SessionManager.offload(fn, *args)``: record the wait from the
    call to the job starting, and the job itself, as children of the
    caller."""

    @functools.wraps(offload)
    def traced_offload(self, fn, *args):
        parent, called = _current.get(), _now()

        def job(*job_args):
            start = _now()
            _record(next(_ids), parent, "manager.offload_wait", called, start)
            sid = next(_ids)
            token = _current.set(sid)
            try:
                return fn(*job_args)
            finally:
                end = _now()
                _current.reset(token)
                _record(sid, parent, "manager.offload_job", start, end)

        return offload(self, job, *args)

    return traced_offload


def _wrap_batcher(scheduler_cls) -> None:
    """``KernelBatchScheduler``: a job waits from ``submit`` until the
    batch that runs it starts (its result time minus its kernel)."""
    submit, execute = scheduler_cls.submit, scheduler_cls._execute

    @functools.wraps(submit)
    def traced_submit(self, *args, **kwargs):
        parent, called = _current.get(), _now()
        future = submit(self, *args, **kwargs)
        future.perfbench_submitted = (parent, called)
        return future

    @functools.wraps(execute)
    def traced_execute(self, batch):
        start = _now()
        for job in batch:
            mark = getattr(job.future, "perfbench_submitted", None)
            if mark is not None:
                _record(next(_ids), mark[0], "kernel_batch.wait", mark[1], start)
        return execute(self, batch)

    scheduler_cls.submit = traced_submit
    scheduler_cls._execute = traced_execute


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module's reference to ``original`` at
    ``replacement`` (modules bind imported functions by name)."""
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> None:
    loop_cls = importlib.import_module("asyncio.base_events").BaseEventLoop
    loop_cls.run_in_executor = _wrap_run_in_executor(loop_cls.run_in_executor)
    importlib.import_module("repro.service")
    importlib.import_module("repro.cli")
    for module_name, qualname, span_name in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        keyed = span_name in ("app.dispatch", "router.proxy")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, attr, _wrap(vars(owner)[attr], span_name, keyed))
        else:
            original = getattr(module, attr)
            _rebind(original, _wrap(original, span_name, keyed))
    manager = importlib.import_module("repro.service.manager")
    manager.SessionManager.offload = _wrap_offload(
        manager.SessionManager.offload
    )
    _wrap_batcher(importlib.import_module("repro.core.kernel_batch").KernelBatchScheduler)
    atexit.register(_dump, os.environ["PERFBENCH_SPANS_DIR"])


def _dump(directory: str) -> None:
    path = os.path.join(directory, f"spans-{os.getpid()}.json")
    with open(path + ".tmp", "w") as handle:
        json.dump({"pid": os.getpid(), "spans": list(_spans)}, handle)
    os.replace(path + ".tmp", path)


if os.environ.get("PERFBENCH_SPANS_DIR"):
    install()
