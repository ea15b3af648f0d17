"""Outside-in span tracer for the benchmark's traced runs.

The program has no spans of its own, so the tracer wraps, from outside,
the public function or method at each layer boundary listed in
``TARGETS``:

* a module-level function is replaced by identity in every ``repro.*``
  module namespace that bound it (``from .x import f`` copies the
  reference, so patching the defining module alone would miss callers)
  and in module-level registry dicts such as ``repro.sdp.solve.BACKENDS``;
* a method (``Journal.record``, ``IcpSolver.check``, the ``Task.run``
  subclasses) is replaced on its class.

Install the wrappers before the runner forks its pool: forked workers
inherit them, buffer their spans in memory and append them to
``spans-<pid>.jsonl`` in the trace directory after every task, so pooled
work is traced too. :meth:`Tracer.uninstall` puts every original back.

A span records its name, process, parent span, start and end on the
``time.perf_counter`` clock (system-wide monotonic on Linux, so worker
and parent spans share one timeline), the submission index of the task
or request it belongs to, and optional counts taken from the call's
result. :func:`aggregate` turns spans into per-name self time: a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pathlib
import sys
import time
from collections import defaultdict, namedtuple
from dataclasses import dataclass, field
from typing import Callable

from .metrics import percentile

Span = namedtuple("Span", "name pid id parent start end idx call counts")


def _cegis_counts(outcome) -> dict:
    return {"rounds": len(outcome.rounds), "cuts": outcome.cut_count}


def _ellipsoid_counts(result) -> dict:
    return {"iterations": result.iterations}


def _icp_counts(result) -> dict:
    return {"boxes": result.boxes_explored}


def _oracle_counts(record) -> dict:
    return {"checks": record.checks, "disagreements": len(record.disagreements)}


def _validate_counts(report) -> dict:
    return {"degraded": int(bool(report.degraded))}


def _int_kernel(_result) -> dict:
    return {"int": 1}


def _modular_kernel(_result) -> dict:
    return {"modular": 1}


@dataclass(frozen=True)
class Target:
    """One wrapped callable and the span its calls record."""

    module: str  # the module that defines it
    qualname: str  # "function" or "Class.method"
    span: str  # "<layer>.<what>"
    #: result -> counts added to the span
    counts: Callable | None = None
    #: span name when called inside a ``service.*`` span (the certificate
    #: store fingerprints and journals through the runner's functions)
    in_service: str | None = None
    #: recursive function: only the outermost call records a span
    outermost: bool = False
    #: "campaign" (stamps submission indices on the tasks), "task"
    #: (reads them back, flushes worker spans), "fingerprint" or "journal"
    role: str | None = None


TARGETS = (
    Target("repro.runner.core", "run_tasks", "runner.run_tasks",
           role="campaign"),
    Target("repro.runner.tasks", "Table1Task.run", "runner.task", role="task"),
    Target("repro.runner.tasks", "RevalidateTask.run", "runner.task",
           role="task"),
    Target("repro.runner.tasks", "CegisTask.run", "runner.task", role="task"),
    Target("repro.runner.tasks", "FuzzTask.run", "runner.task", role="task"),
    Target("repro.runner.journal", "task_fingerprint", "runner.fingerprint",
           in_service="service.fingerprint", role="fingerprint"),
    Target("repro.runner.journal", "Journal.record", "runner.journal_write",
           in_service="service.store_put", role="journal"),
    Target("repro.service.api", "CertificationService.submit",
           "service.request"),
    Target("repro.service.api", "CertificationService.certify_many",
           "service.request"),
    Target("repro.service.api", "CertifyTask.run", "service.compute",
           role="task"),
    Target("repro.service.store", "CertificateStore.get", "service.store_get"),
    Target("repro.service.store", "CertificateStore.put", "service.store_put"),
    Target("repro.lyapunov.synthesis", "synthesize", "lyapunov.synthesize"),
    Target("repro.lyapunov.cegis", "cegis_piecewise", "lyapunov.cegis",
           counts=_cegis_counts),
    Target("repro.lyapunov.cegis", "snap_certificate", "lyapunov.snap"),
    Target("repro.lyapunov.cegis", "verify_certificate", "lyapunov.verify"),
    Target("repro.sdp.ipm", "solve_ipm", "sdp.ipm"),
    Target("repro.sdp.shift", "solve_shift", "sdp.shift"),
    Target("repro.sdp.proj", "solve_proj", "sdp.proj"),
    Target("repro.sdp.generic", "CompiledLmiSystem.__init__", "sdp.compile"),
    Target("repro.sdp.generic", "CompiledLmiSystem.with_cuts", "sdp.compile"),
    Target("repro.sdp.generic", "solve_lmi_ellipsoid", "sdp.ellipsoid",
           counts=_ellipsoid_counts),
    Target("repro.sdp.barrier", "solve_lmi_barrier", "sdp.barrier"),
    Target("repro.sdp.problems", "screen_candidates", "sdp.screen"),
    Target("repro.validate.pipeline", "validate_candidate",
           "validate.candidate", counts=_validate_counts),
    Target("repro.exact.kernels", "int_bareiss_determinant", "exact.det",
           counts=_int_kernel),
    Target("repro.exact.kernels", "modular_determinant", "exact.det",
           counts=_modular_kernel),
    Target("repro.exact.kernels", "iter_int_leading_principal_minors",
           "exact.minors", counts=_int_kernel),
    Target("repro.exact.kernels", "modular_leading_principal_minors",
           "exact.minors", counts=_modular_kernel),
    Target("repro.exact.kernels", "int_ldlt", "exact.ldlt",
           counts=_int_kernel),
    Target("repro.exact.matrix", "RationalMatrix.from_numpy",
           "exact.rationalize"),
    Target("repro.smt.encodings", "check_positive_definite_icp",
           "smt.sphere_check"),
    Target("repro.smt.icp", "IcpSolver.check", "smt.icp_check",
           counts=_icp_counts),
    Target("repro.smt.terms", "polynomial_of", "smt.polynomial",
           outermost=True),
    Target("repro.oracle.differential", "check_system", "oracle.check_system",
           counts=_oracle_counts),
)

#: Spans that wrap a whole campaign, task or request rather than one layer.
ENVELOPE = frozenset({"runner.run_tasks", "runner.task", "service.request"})


def _bindings(obj) -> list:
    """Every ``(namespace, key)`` in a loaded ``repro.*`` module, or in a
    module-level dict, whose value is ``obj``."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is obj:
                found[(id(namespace), key)] = (namespace, key)
            elif type(value) is dict:
                for item_key, item in list(value.items()):
                    if item is obj:
                        found[(id(value), item_key)] = (value, item_key)
    return list(found.values())


def _assign(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


class _Frame:
    __slots__ = ("id", "name", "idx", "parent", "start", "counts")

    def __init__(self, span_id, name, idx, parent, start):
        self.id = span_id
        self.name = name
        self.idx = idx
        self.parent = parent
        self.start = start
        self.counts = None


class Tracer:
    """Installs the span wrappers and owns the span buffer.

    ``trace_dir`` receives the per-worker span files; use one directory
    per traced round. ``index`` is the submission index given to spans
    that belong to no runner task (the certify-stream client sets it to
    the request number before each call). Each process keeps one span
    stack, which holds because the traced paths run single-threaded.
    """

    def __init__(self, trace_dir):
        self.trace_dir = pathlib.Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.main_pid = os.getpid()
        self.index = None
        self._pid = self.main_pid
        self._spans: list[tuple] = []
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._depth: dict[str, int] = {}
        self._fp_index: dict[str, object] = {}
        self._campaigns = 0
        self._patches: list[tuple] = []
        self._wrappers: list[tuple] = []
        self._cache_info = None
        self._resolve_jobs = None

    # -- install / uninstall ------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._cache_info = importlib.import_module(
            "repro.exact.kernels").kernel_cache_info
        self._resolve_jobs = importlib.import_module(
            "repro.runner.core").resolve_jobs
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap_descriptor(original, target))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, target)
            self._wrappers.append((wrapper, original))
            for namespace, key in _bindings(original):
                self._patches.append((namespace, key, original))
                _assign(namespace, key, wrapper)

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            _assign(container, key, original)
        # A module first imported while tracing bound the wrapper itself.
        for wrapper, original in self._wrappers:
            for namespace, key in _bindings(wrapper):
                _assign(namespace, key, original)
        self._patches.clear()
        self._wrappers.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *_exc) -> None:
        self.uninstall()

    # -- wrappers -----------------------------------------------------

    def _wrap_descriptor(self, original, target):
        if isinstance(original, (classmethod, staticmethod)):
            return type(original)(self._wrap(original.__func__, target))
        return self._wrap(original, target)

    def _wrap(self, fn, target: Target):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, target)
        signature = inspect.signature(fn) if target.role == "campaign" else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._sync()
            if target.outermost and tracer._depth.get(target.span):
                return fn(*args, **kwargs)
            jobs = None
            if target.role == "campaign":
                args, kwargs, jobs = tracer._stamp(signature, args, kwargs)
            cache = (
                tracer._cache_info()
                if target.role == "task" and not tracer._stack else None
            )
            frame = tracer._enter(tracer._name(target), tracer._idx(target, args))
            if target.outermost:
                tracer._depth[target.span] = 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._finish(frame, target, None, False, jobs, cache)
                raise
            tracer._finish(frame, target, result, True, jobs, cache)
            return result

        return traced

    def _wrap_generator(self, fn, target: Target):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            call = 1
            while True:
                tracer._sync()
                frame = tracer._enter(target.span, tracer._idx(target, args))
                if call and target.counts:
                    frame.counts = target.counts(None)
                try:
                    value = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._exit(frame, call, time.perf_counter())
                call = 0
                yield value

        return traced

    # -- span bookkeeping ---------------------------------------------

    def _sync(self) -> None:
        """Start an empty buffer in a freshly forked worker."""
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._spans = []
            self._stack = []
            self._depth = {}

    def _name(self, target: Target) -> str:
        if target.in_service and any(
            frame.name.startswith("service.") for frame in self._stack
        ):
            return target.in_service
        return target.span

    def _idx(self, target: Target, args):
        """The submission index: stamped on the task, looked up by the
        journaled fingerprint, or inherited from the enclosing span."""
        idx = None
        if target.role in ("task", "fingerprint") and args:
            idx = getattr(args[0], "_bench_index", None)
        elif target.role == "journal" and len(args) > 1:
            idx = self._fp_index.get(args[1])
        if idx is not None:
            return idx
        return self._stack[-1].idx if self._stack else self.index

    def _stamp(self, signature, args, kwargs):
        """Give every task of a campaign its submission index."""
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        tasks = list(bound.arguments["tasks"])
        bound.arguments["tasks"] = tasks
        campaign = self._campaigns
        self._campaigns += 1
        for position, task in enumerate(tasks):
            try:
                task._bench_index = f"{campaign}:{position}"
            except AttributeError:  # __slots__ task: spans inherit instead
                pass
        jobs = min(self._resolve_jobs(bound.arguments["jobs"]),
                   max(1, len(tasks)))
        return bound.args, bound.kwargs, jobs

    def _enter(self, name: str, idx) -> _Frame:
        self._next_id += 1
        parent = self._stack[-1].id if self._stack else None
        frame = _Frame(self._next_id, name, idx, parent, time.perf_counter())
        self._stack.append(frame)
        return frame

    def _finish(self, frame, target, result, ok, jobs, cache) -> None:
        """Close a function span: counts from the result, the campaign's
        job count, and the kernel-cache delta of an outermost task (whose
        end also flushes a pool worker's spans to its file)."""
        end = time.perf_counter()
        if target.outermost:
            self._depth[target.span] = 0
        counts = {}
        if ok and target.counts:
            counts.update(target.counts(result))
        if ok and target.role == "fingerprint" and frame.idx is not None:
            self._fp_index[result] = frame.idx
        if jobs is not None:
            counts["jobs"] = jobs
        if cache is not None:
            after = self._cache_info()
            counts["kernel_cache_hits"] = after["hits"] - cache["hits"]
            counts["kernel_cache_misses"] = after["misses"] - cache["misses"]
        frame.counts = counts or None
        self._exit(frame, 1, end)
        if cache is not None and self._pid != self.main_pid:
            self.flush()

    def _exit(self, frame: _Frame, call: int, end: float) -> None:
        self._stack.pop()
        self._spans.append((
            frame.name, self._pid, frame.id, frame.parent, frame.start, end,
            frame.idx, call, frame.counts,
        ))

    # -- output -------------------------------------------------------

    def flush(self) -> None:
        """Append this process's buffered spans to its span file."""
        if not self._spans:
            return
        path = self.trace_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("".join(json.dumps(s) + "\n" for s in self._spans))
        self._spans = []

    def collect(self) -> list[Span]:
        """Spans of this process plus every worker's span file."""
        spans = [Span(*record) for record in self._spans]
        for path in sorted(self.trace_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                spans.extend(Span(*json.loads(line)) for line in handle)
        return spans


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

@dataclass
class Aggregate:
    self_s: float = 0.0
    total_s: float = 0.0
    calls: int = 0
    counts: dict = field(default_factory=dict)


def covered(span: Span, children) -> float:
    """Length of the union of the children's intervals inside ``span``."""
    intervals = sorted(
        (max(child.start, span.start), min(child.end, span.end))
        for child in children
    )
    total = 0.0
    low = high = None
    for start, end in intervals:
        if end <= start:
            continue
        if high is None or start > high:
            if high is not None:
                total += high - low
            low, high = start, end
        else:
            high = max(high, end)
    if high is not None:
        total += high - low
    return total


def aggregate(spans) -> dict[str, Aggregate]:
    """Self time, total time, calls and summed counts per span name."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[(span.pid, span.parent)].append(span)
    out: dict[str, Aggregate] = {}
    for span in spans:
        agg = out.setdefault(span.name, Aggregate())
        duration = span.end - span.start
        agg.self_s += duration - covered(
            span, children.get((span.pid, span.id), ())
        )
        agg.total_s += duration
        agg.calls += span.call
        for key, value in (span.counts or {}).items():
            agg.counts[key] = agg.counts.get(key, 0) + value
    return out


def layer_metrics(spans, program: dict, wall_s: float, jobs: int) -> dict:
    """Every per-layer metric of one traced round except
    ``bench.trace_overhead``, which needs the untraced rounds too.

    ``program`` holds the counters the program keeps itself: the
    campaign's ``stats`` (``CampaignStats.counters()``), the runner's
    ``task_wall_s`` list (``TimingCollector``) and the ``service``
    counters (``CertificationService.counters()``).
    """
    agg = aggregate(spans)

    def self_s(name):
        return agg[name].self_s if name in agg else 0.0

    def total_s(name):
        return agg[name].total_s if name in agg else 0.0

    def calls(name):
        return agg[name].calls if name in agg else 0

    def count(key, names=None):
        return sum(
            a.counts.get(key, 0) for name, a in agg.items()
            if names is None or name in names
        )

    capacity = sum(
        span.counts["jobs"] * (span.end - span.start)
        for span in spans if span.name == "runner.run_tasks"
    )
    task_wall = total_s("runner.task")
    task_walls = program.get("task_wall_s") or []
    stats = program.get("stats") or {}
    service = program.get("service") or {}
    requests = service.get("requests", 0)
    hits = count("kernel_cache_hits")
    lookups = hits + count("kernel_cache_misses")
    layered = sum(a.self_s for name, a in agg.items() if name not in ENVELOPE)
    return {
        "runner.dispatch_overhead_s": capacity - task_wall if capacity else 0.0,
        "runner.pool_efficiency": task_wall / capacity if capacity else 0.0,
        "runner.task_busy_s": sum(task_walls),
        "runner.task_p50_ms":
            percentile(task_walls, 50) * 1e3 if task_walls else 0.0,
        "runner.task_p90_ms":
            percentile(task_walls, 90) * 1e3 if task_walls else 0.0,
        "runner.journal_write_s": self_s("runner.journal_write"),
        "runner.journal_writes": calls("runner.journal_write"),
        "runner.fingerprint_s": self_s("runner.fingerprint"),
        "runner.retries": stats.get("retry_attempts", 0),
        "runner.requeues": stats.get("requeue_attempts", 0),
        "runner.errors": stats.get("errors", 0),
        "runner.timeouts": stats.get("timeouts", 0),
        "service.hit_ratio": (
            (service.get("memory_hits", 0) + service.get("disk_hits", 0))
            / requests if requests else 0.0
        ),
        "service.fingerprint_s": self_s("service.fingerprint"),
        "service.store_get_s": self_s("service.store_get"),
        "service.store_put_s": self_s("service.store_put"),
        "service.compute_s": total_s("service.compute"),
        "lyapunov.synthesize_s": self_s("lyapunov.synthesize"),
        "lyapunov.synthesize_calls": calls("lyapunov.synthesize"),
        "lyapunov.snap_s": self_s("lyapunov.snap"),
        "lyapunov.verify_s": self_s("lyapunov.verify"),
        "lyapunov.cegis_rounds": count("rounds", {"lyapunov.cegis"}),
        "lyapunov.cegis_cuts": count("cuts", {"lyapunov.cegis"}),
        "sdp.ipm_s": self_s("sdp.ipm"),
        "sdp.shift_s": self_s("sdp.shift"),
        "sdp.proj_s": self_s("sdp.proj"),
        "sdp.compile_s": self_s("sdp.compile"),
        "sdp.ellipsoid_s": self_s("sdp.ellipsoid"),
        "sdp.ellipsoid_iterations": count("iterations", {"sdp.ellipsoid"}),
        "sdp.barrier_s": self_s("sdp.barrier"),
        "sdp.screen_s": self_s("sdp.screen"),
        "validate.candidate_s": self_s("validate.candidate"),
        "validate.calls": calls("validate.candidate"),
        "validate.degraded": count("degraded", {"validate.candidate"}),
        "exact.det_s": self_s("exact.det"),
        "exact.minors_s": self_s("exact.minors"),
        "exact.ldlt_s": self_s("exact.ldlt"),
        "exact.int_calls": count("int"),
        "exact.modular_calls": count("modular"),
        "exact.kernel_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "exact.rationalize_s": self_s("exact.rationalize"),
        "smt.sphere_check_s": self_s("smt.sphere_check"),
        "smt.icp_check_s": self_s("smt.icp_check"),
        "smt.icp_boxes": count("boxes", {"smt.icp_check"}),
        "smt.polynomial_s": self_s("smt.polynomial"),
        "oracle.check_system_s": self_s("oracle.check_system"),
        "oracle.checks": count("checks", {"oracle.check_system"}),
        "oracle.disagreements":
            count("disagreements", {"oracle.check_system"}),
        "bench.layer_coverage": layered / (jobs * wall_s) if wall_s else 0.0,
    }


def span_table(spans) -> dict:
    """``{name: {"self_s", "total_s", "calls", **counts}}`` for the result
    file, so every span is visible, listed metric or not."""
    return {
        name: {"self_s": a.self_s, "total_s": a.total_s, "calls": a.calls,
               **a.counts}
        for name, a in sorted(aggregate(spans).items())
    }
