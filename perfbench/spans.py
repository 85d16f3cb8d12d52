"""Spans and counters around calls into ratassoc's layers.

The package is not changed: ``instrument`` rebinds each hooked public
function, in every ratassoc module that imported it, to a wrapper that
records a span and reads the hook's counters when the call returns, then
restores the originals.  Spans nest through a stack, so a span's parent is
the span that was open when it began.  All spans stay in memory until
``write_jsonl`` at the end of the run.
"""

from __future__ import annotations

import builtins
import importlib
import json
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator


_MISSING = object()


def current_rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


class Tracer:
    """In-memory span list.  A span is ``[name, parent index, start, end]``;
    its id is its index, and every span of one tracer shares ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []

    def begin(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else None, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = perf_counter()
        return span

    def end(self, span: list) -> None:
        span[3] = perf_counter()
        self._stack.pop()

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(value, self.peaks.get(name, value))

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time its children cover."""
        children = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent is not None:
                children[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, _, start, end), inner in zip(self.spans, children):
            out[name] += end - start - inner
        return out

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"run": self.run_id, "id": i, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")


def _wrap(tracer: Tracer, fn: Callable, name, count) -> Callable:
    def wrapper(*args, **kwargs):
        if name is None:
            result = fn(*args, **kwargs)
        else:
            span = tracer.begin(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
        if count is not None:
            count(tracer, result)
        return result

    return wrapper


def _betti_span(cpx, field="gf2", **_) -> str:
    return f"homology.betti_numbers.{field}"


def _count(name: str, measure: Callable) -> Callable:
    return lambda t, result: t.counts.update({name: measure(result)})


def _count_schedule(t: Tracer, cert) -> None:
    t.counts["collapse.steps"] += cert.n_steps
    t.counts["collapse.stages"] += len(cert.stages)
    t.peak("collapse.rss_mb", current_rss_mb())


# (module, function, span name or None for a counter only, counter)
FUNCTION_HOOKS = (
    ("lattice", "enumerate_dyck_paths", "lattice.enumerate_dyck_paths", _count("lattice.paths", len)),
    ("lattice", "facet_of", "lattice.facet_of", _count("lattice.lasers", len)),
    ("complexes", "build_hat_ass", "complexes.build_hat_ass", _count("complexes.hat_faces", lambda c: c.n_faces)),
    ("complexes", "build_ass", "complexes.build_ass", _count("complexes.ass_faces", lambda c: c.n_faces)),
    ("obstruction", "build_obstruction_graph", "obstruction.build_obstruction_graph",
     _count("obstruction.edges", lambda g: len(g.edges))),
    # each noncrossing pair the obstruction graph probes is one membership test
    ("membership", "is_face_of_ass", None, _count("obstruction.probes", lambda _: 1)),
    ("collapse", "collapse_schedule", "collapse.collapse_schedule", _count_schedule),
    ("collapse", "verify_certificate", "collapse.verify_certificate",
     _count("collapse.steps_applied", lambda report: report.steps_applied)),
    ("homology", "betti_numbers", _betti_span, None),
    # private, and the only way to see how many cells free-pair reduction leaves
    ("homology", "_reduce_cells", None, _count("homology.cells", len)),
    ("homology", "alexander_duality_check", "homology.alexander_duality_check", None),
    ("homology", "alexander_partition_check", "homology.alexander_partition_check", None),
)

# (module, class, method, span name, counter); methods are patched on the class
METHOD_HOOKS = (
    # json.dumps escapes to ASCII, so characters are bytes
    ("collapse", "CollapseCertificate", "dumps", "collapse.dumps", _count("collapse.cert_bytes", len)),
    ("collapse", "CollapseCertificate", "from_json", "collapse.from_json", None),
    ("complexes", "FHVector", "of", "complexes.f_vector", None),
)


class _JsonWithTracedLoad:
    """Stands in for ``json`` in the cli module: ``load`` is the
    certificate read (file read and parse), the rest passes through."""

    def __init__(self, load: Callable):
        self.load = load

    def __getattr__(self, name: str):
        return getattr(json, name)


class _SpanFile:
    """A file opened for writing, as one span from open to close."""

    def __init__(self, tracer: Tracer, name: str, args, kwargs):
        self.tracer, self.name, self.args, self.kwargs = tracer, name, args, kwargs

    def __enter__(self):
        self.span = self.tracer.begin(self.name)
        self.fh = builtins.open(*self.args, **self.kwargs)
        return self.fh.__enter__()

    def __exit__(self, *exc):
        try:
            return self.fh.__exit__(*exc)
        finally:
            self.tracer.end(self.span)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Record spans and counters for every hook while the block runs."""
    modules = [m for n, m in list(sys.modules.items()) if n == "ratassoc" or n.startswith("ratassoc.")]
    undo: list[tuple[object, str, object]] = []

    def rebind(owner, attr, value):
        undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    try:
        for mod, attr, name, count in FUNCTION_HOOKS:
            orig = getattr(importlib.import_module("ratassoc." + mod), attr)
            wrapper = _wrap(tracer, orig, name, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        rebind(m, key, wrapper)
        for mod, cls_name, attr, name, count in METHOD_HOOKS:
            cls = getattr(importlib.import_module("ratassoc." + mod), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                rebind(cls, attr, classmethod(_wrap(tracer, raw.__func__, name, count)))
            else:
                rebind(cls, attr, _wrap(tracer, raw, name, count))
        cli = importlib.import_module("ratassoc.cli")
        rebind(cli, "json", _JsonWithTracedLoad(_wrap(tracer, json.load, "collapse.read", None)))

        def traced_open(*args, **kwargs):
            mode = args[1] if len(args) > 1 else kwargs.get("mode", "r")
            if "w" in mode:
                return _SpanFile(tracer, "collapse.write", args, kwargs)
            return builtins.open(*args, **kwargs)

        rebind(cli, "open", traced_open)
        yield
    finally:
        for owner, attr, value in reversed(undo):
            if value is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)
