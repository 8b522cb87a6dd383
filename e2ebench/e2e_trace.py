"""Span tracer of the end-to-end benchmark's traced run.

Run as a script, it is a drop-in for ``python -m repro.harness``::

    python e2ebench/e2e_trace.py TRACE.json -- sweep spec.json --cache-dir DIR

It times the import of ``repro.harness.runner``, wraps the functions named
in :data:`e2e_layers.SPANS` (and, as their modules load, first-use imports
of further ``repro`` modules), runs the command, and writes every span
once, at the end, as Chrome trace-event JSON (Perfetto and
``chrome://tracing`` open it).  Wrappers return what the wrapped function
returns and let its exceptions through unchanged.  A name that no longer
resolves is listed under ``otherData.missing`` with the reason.

The module also holds the analysis the benchmark applies to a trace file:
self time per span metric, outermost call and item counts, and coverage.
"""

from __future__ import annotations

import time

_STARTED_NS = time.perf_counter_ns()

import builtins  # noqa: E402  (after the clock read: startup is part of the trace)
import functools  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Any, Callable, Iterable  # noqa: E402

from e2e_layers import CAPTURE, COUNTERS, ITEMS, SPANS  # noqa: E402

__all__ = ["Span", "Recorder", "Installer", "span_totals", "top_level_ns", "read_trace", "main"]

_ROOT = -1


@dataclass(frozen=True)
class Span:
    """One timed call: its metric, target name, interval and parent span."""

    ident: int
    parent: int
    metric: str
    name: str
    start_ns: int
    end_ns: int
    items: int = 0


class Recorder:
    """Keeps spans in memory; single-threaded, nesting by a call stack.

    Identifiers are drawn when a span opens, so a parent's identifier is
    always smaller than its children's.
    """

    def __init__(self) -> None:
        #: Span fields as plain tuples: cheaper to build on the hot path.
        self.spans: list[tuple] = []
        self.stack: list[int] = [_ROOT]
        self.ids = itertools.count()

    def timed(
        self,
        metric: str,
        name: str,
        fn: Callable[..., Any],
        items: Callable[[tuple], int] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span; return value and exceptions unchanged."""
        spans, stack, ids, clock = self.spans, self.stack, self.ids, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            ident = next(ids)
            parent = stack[-1]
            stack.append(ident)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                count = 0
                if items is not None:
                    try:
                        count = items(args)
                    except (IndexError, TypeError):
                        count = 0
                spans.append((ident, parent, metric, name, start, end, count))

        return wrapper

    def to_chrome(self, other: dict[str, Any]) -> dict[str, Any]:
        """All spans as a Chrome trace-event document (times in µs)."""
        pid = os.getpid()
        events = [
            {
                "name": name,
                "cat": metric,
                "ph": "X",
                "ts": (start - _STARTED_NS) / 1000,
                "dur": (end - start) / 1000,
                "pid": pid,
                "tid": 0,
                "args": {"id": ident, "parent": parent, "items": items},
            }
            for ident, parent, metric, name, start, end, items in sorted(self.spans)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}


def read_trace(document: dict[str, Any]) -> list[Span]:
    """The spans of a Chrome trace written by :meth:`Recorder.to_chrome`."""
    spans = []
    for event in document["traceEvents"]:
        start = round(event["ts"] * 1000)
        args = event["args"]
        spans.append(
            Span(
                args["id"], args["parent"], event["cat"], event["name"],
                start, start + round(event["dur"] * 1000), args.get("items", 0),
            )
        )
    return spans


def span_totals(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Per metric: self seconds, outermost calls and their items.

    Self time is a span's duration minus its direct children's, so a call
    re-entering its own metric (``get`` inside ``get_many``) is counted
    once.  Calls and items count only spans with no ancestor of the same
    metric: the calls made into a layer from outside it.
    """
    ordered = sorted(spans, key=lambda span: span.ident)
    child_ns: dict[int, int] = {}
    for span in ordered:
        child_ns[span.parent] = child_ns.get(span.parent, 0) + span.end_ns - span.start_ns
    above: dict[int, frozenset[str]] = {_ROOT: frozenset()}
    metric_of: dict[int, str] = {}
    totals: dict[str, dict[str, float]] = {}
    for span in ordered:
        # A parent missing from the list (a dropped span) counts as the root.
        ancestors = above.get(span.parent, frozenset())
        if span.parent in metric_of:
            ancestors = ancestors | {metric_of[span.parent]}
        above[span.ident] = ancestors
        metric_of[span.ident] = span.metric
        total = totals.setdefault(span.metric, {"self_s": 0.0, "calls": 0, "items": 0})
        total["self_s"] += (span.end_ns - span.start_ns - child_ns.get(span.ident, 0)) / 1e9
        if span.metric not in ancestors:
            total["calls"] += 1
            total["items"] += span.items
    return totals


def top_level_ns(spans: Iterable[Span]) -> int:
    """Summed duration of the spans no other span encloses."""
    return sum(span.end_ns - span.start_ns for span in spans if span.parent == _ROOT)


def _resolve(target: str) -> tuple[Any, str, Any]:
    """(owner, attribute, raw value) of a loaded ``module:qualname`` target.

    Raises KeyError when the module is not loaded yet and AttributeError
    when it is loaded but lacks the name.
    """
    module_name, qualname = target.split(":")
    owner: Any = sys.modules[module_name]
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type) and attribute in vars(owner):
        # The class's own entry, so static and class methods stay wrapped as such.
        return owner, attribute, vars(owner)[attribute]
    return owner, attribute, getattr(owner, attribute)


class Installer:
    """Installs span wrappers by name, as the modules that hold them load.

    Module-level functions are replaced in their module and in every loaded
    ``repro`` module that imported them by name; methods are replaced on
    their class.  Targets whose module has not loaded stay pending;
    :meth:`finish` imports them after the command to tell unused targets
    from missing ones.
    """

    def __init__(
        self,
        recorder: Recorder,
        spans: dict[str, tuple[str, ...]],
        items: dict[str, Callable[[tuple], int]],
        capture: dict[str, str],
    ) -> None:
        self.recorder = recorder
        self.items = items
        self.pending: dict[str, str] = {
            target: metric for metric, targets in spans.items() for target in targets
        }
        self.pending_captures = {target: label for label, target in capture.items()}
        self.captured: dict[str, list[Any]] = {label: [] for label in capture}
        self.missing: dict[str, str] = {}
        self.replaced: dict[int, Any] = {}

    def refresh(self) -> None:
        """Wrap every pending target whose module is loaded by now."""
        fresh = False
        for target, metric in list(self.pending.items()):
            try:
                owner, attribute, raw = _resolve(target)
            except KeyError:
                continue
            except AttributeError as error:
                self.missing[target] = f"{type(error).__name__}: {error}"
            else:
                self._install(owner, attribute, raw, target, metric)
                fresh = True
            del self.pending[target]
        for target, label in list(self.pending_captures.items()):
            try:
                _, _, cls = _resolve(target)
            except KeyError:
                continue
            except AttributeError as error:
                self.missing[target] = f"{type(error).__name__}: {error}"
            else:
                self._capture(cls, label)
            del self.pending_captures[target]
        if fresh:
            self._rebind()

    def _install(self, owner: Any, attribute: str, raw: Any, target: str, metric: str) -> None:
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        if not callable(fn):
            self.missing[target] = f"TypeError: {target} is not callable"
            return
        wrapper = self.recorder.timed(metric, target, fn, self.items.get(target))
        setattr(owner, attribute, kind(wrapper) if kind is not None else wrapper)
        if not isinstance(owner, type):
            self.replaced[id(fn)] = wrapper

    def _rebind(self) -> None:
        """Point names imported with ``from module import f`` at the wrappers."""
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            namespace = vars(module)
            for name, value in list(namespace.items()):
                wrapper = self.replaced.get(id(value))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is value:
                    namespace[name] = wrapper

    def _capture(self, cls: type, label: str) -> None:
        original = cls.__init__
        instances = self.captured[label]

        @functools.wraps(original)
        def init(self: Any, *args: Any, **kwargs: Any) -> None:
            original(self, *args, **kwargs)
            instances.append(self)

        cls.__init__ = init  # type: ignore[misc]

    def finish(self) -> list[str]:
        """Import what stayed pending; return the targets the command never ran."""
        unused = []
        for target in [*self.pending, *self.pending_captures]:
            module_name = target.split(":")[0]
            try:
                importlib.import_module(module_name)
                _resolve(target)
            except (ImportError, AttributeError) as error:
                self.missing[target] = f"{type(error).__name__}: {error}"
            else:
                unused.append(target)
        return unused


class ImportHook:
    """Times first-use imports of ``repro`` modules as ``import.lazy`` spans.

    Installed as ``builtins.__import__`` for the length of the command.  An
    import statement naming a ``repro`` module becomes a span only when it
    actually loaded modules; span targets in them are installed right after.
    """

    def __init__(self, recorder: Recorder, installer: Installer) -> None:
        self.original = builtins.__import__
        self.recorder = recorder
        self.installer = installer
        self.active = False

    def __call__(self, name: str, globals=None, locals=None, fromlist=(), level=0):  # noqa: A002
        if self.active or level != 0 or not name.startswith("repro"):
            return self.original(name, globals, locals, fromlist, level)
        recorder = self.recorder
        ident, parent = next(recorder.ids), recorder.stack[-1]
        recorder.stack.append(ident)
        loaded = len(sys.modules)
        self.active = True
        start = time.perf_counter_ns()
        try:
            return self.original(name, globals, locals, fromlist, level)
        finally:
            end = time.perf_counter_ns()
            recorder.stack.pop()
            self.active = False
            if len(sys.modules) != loaded:
                recorder.spans.append((ident, parent, "import.lazy", name, start, end, 0))
                self.installer.refresh()


def _counters(captured: dict[str, list[Any]], missing: dict[str, str]) -> dict[str, float]:
    """The COUNTERS of e2e_layers, summed over every captured instance."""
    def total(objects: list[Any], paths: tuple[str, ...]) -> float:
        value = 0.0
        for obj in objects:
            for path in paths:
                value += functools.reduce(getattr, path.split("."), obj)
        return value

    counters: dict[str, float] = {}
    for name, (label, numerator, denominator) in COUNTERS.items():
        objects = captured.get(label, [])
        try:
            top = total(objects, numerator)
            bottom = total(objects, denominator) if denominator else 1.0
        except AttributeError as error:
            missing[f"counter:{name}"] = f"AttributeError: {error}"
            continue
        counters[name] = top / bottom if bottom else 0.0
    return counters


def main(argv: list[str]) -> int:
    """``e2e_trace.py TRACE.json -- <repro.harness arguments>``."""
    if len(argv) < 2 or argv[1] != "--":
        print("usage: e2e_trace.py TRACE.json -- ARGS...", file=sys.stderr)
        return 2
    trace_path, command = argv[0], argv[2:]
    recorder = Recorder()
    runner = recorder.timed(
        "import.harness", "repro.harness.runner", importlib.import_module
    )("repro.harness.runner")
    installer = Installer(recorder, SPANS, ITEMS, CAPTURE)
    installer.refresh()
    hook = ImportHook(recorder, installer)
    builtins.__import__ = hook
    try:
        code = runner.main(command)
    finally:
        builtins.__import__ = hook.original
        sys.stdout.flush()
        ended = time.perf_counter_ns()
        unused = installer.finish()
        other = {
            "command": command,
            "counters": _counters(installer.captured, installer.missing),
            "missing": installer.missing,
            "unused": unused,
            "wall_ns": ended - _STARTED_NS,
        }
        with open(trace_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(recorder.to_chrome(other), separators=(",", ":")))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
