"""Span recording around public functions, and the layer ledger.

The benchmark does not touch the program: it wraps the public methods
of the live objects it built (the runtime, service, predictor, cache,
table, backend) so that each call records a span.  A span's *self* time
is its duration minus the spans it caused on the same thread, so the
self times of nested spans partition the outermost span exactly.

Part names are ``<layer>.<part>``; the layer is the repository module
the wrapped function belongs to (``compile``, ``core``, ``engine``,
``machine``, ``serve``, ``fleet``).  Time that spans cannot see from
the benchmark process — the server's event-loop scheduling, the pipe
to a fleet worker — is measured as the difference between two untraced
prefix passes over the same inputs (see ``workloads.py``).

So a ledger has two kinds of rows: span self times from the traced
deepest pass, and differences of untraced passes.  The differences
telescope from the untraced deepest pass up to the untraced end-to-end
figure, so the ledger closes exactly when the traced spans account for
the untraced deepest pass: what tracing adds and what no span covers
both show up as closure error.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

# Layers a served request passes through.  ``train`` is a set-up layer:
# it appears in the set-up ledger, never in the per-request one.
LAYERS = ("compile", "core", "engine", "machine", "serve", "fleet")

# A ledger closes when its parts add up to the untraced end-to-end
# figure within this share of it.
CLOSURE_TOLERANCE = 0.10


class SpanRecorder:
    """Self and total time per part, for every wrapped call."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self._local = threading.local()
        self._restore = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, fn, part: str):
        def timed(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)  # time spent in child spans
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = stack.pop()
                self.self_s[part] += elapsed - children
                self.total_s[part] += elapsed
                self.calls[part] += 1
                if stack:
                    stack[-1] += elapsed
        return timed

    def wrap(self, obj, method: str, part: str) -> None:
        """Record every call of ``obj.method`` as a ``part`` span."""
        self._restore.append(_restorer(obj, method))
        setattr(obj, method, self._timed(getattr(obj, method), part))

    def wrap_member(self, owner, attr: str, methods: dict) -> None:
        """Like :meth:`wrap` for a member object that has no instance
        dict (``__slots__``): ``owner.attr`` is swapped for a proxy
        whose ``methods`` (name -> part) record spans."""
        target = getattr(owner, attr)
        proxy = _Proxy(target)
        for method, part in methods.items():
            setattr(proxy, method, self._timed(getattr(target, method), part))
        setattr(owner, attr, proxy)
        self._restore.append(lambda: setattr(owner, attr, target))

    def restore(self) -> None:
        while self._restore:
            self._restore.pop()()

    def reset(self) -> None:
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()


def _restorer(obj, method: str):
    """Undo an instance-level override, keeping any earlier one."""
    own = vars(obj)
    if method in own:
        previous = own[method]
        return lambda: setattr(obj, method, previous)
    return lambda: delattr(obj, method)


class _Proxy:
    def __init__(self, target):
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


def layer_split(parts_us: dict) -> dict:
    """Sum ``<layer>.<part>`` µs/req into per-layer µs/req."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, value in parts_us.items():
        out[name.split(".", 1)[0]] += value
    return out


def closure_error(parts_total: float, end_to_end: float) -> float:
    return abs(parts_total - end_to_end) / end_to_end


def render_table(title: str, rows: dict, end_to_end: float,
                 unit: str = "us/req") -> str:
    """A phase-split table: part, value, share of the end-to-end figure."""
    width = max([len(name) for name in rows] + [len("end-to-end"), 12])
    lines = [title, f"  {'part'.ljust(width)}  {unit:>12}  {'share %':>8}"]
    for name, value in rows.items():
        share = 100.0 * value / end_to_end if end_to_end else 0.0
        lines.append(f"  {name.ljust(width)}  {value:12.2f}  {share:8.1f}")
    total = sum(rows.values())
    lines.append(f"  {'sum of parts'.ljust(width)}  {total:12.2f}  "
                 f"{100.0 * total / end_to_end if end_to_end else 0.0:8.1f}")
    lines.append(f"  {'end-to-end'.ljust(width)}  {end_to_end:12.2f}  "
                 f"{100.0:8.1f}")
    return "\n".join(lines)
