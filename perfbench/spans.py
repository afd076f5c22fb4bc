"""Outside-in span recorder for the vorspec benchmark.

Spans are recorded only by replacing names in module namespaces with timing
wrappers; nothing under src/ is edited. A name is replaced where it is
looked up at call time, e.g. ``vorspec.integrators.skew_convection`` rather
than ``vorspec.convection.skew_convection``, because ``integrators`` binds
the name at import. A name that no longer exists is listed in ``missing``
and simply yields zero calls, so later refactors that remove a call path do
not break the benchmark.

Every public ``numpy.fft`` transform is wrapped (complex and real, 1-D, 2-D
and n-D), so a switch between transform families shows up as a change of
counts instead of a blind spot. The wrappers must be installed before
``vorspec`` is imported, so that a ``from numpy.fft import ...`` inside the
package binds the wrapper too.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Optional

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
             "hfft", "ihfft")

# (module, attribute, span name). The span name's prefix before the first
# dot is the package module the work belongs to.
VORSPEC_PATCHES = (
    ("vorspec.integrators", "skew_convection", "convection.skew_convection"),
    ("vorspec.integrators", "make_state", "fields.make_state"),
    ("vorspec.integrators", "helmholtz_solve", "integrators.helmholtz_solve"),
    ("vorspec.integrators", "make_record", "diagnostics.make_record"),
    ("vorspec", "run", "integrators.run"),
    ("vorspec.bench", "run", "integrators.run"),
    ("vorspec.bench", "convergence_study", "bench.convergence_study"),
    ("vorspec.output.CsvSeriesWriter", "write", "output.csv_write"),
    ("vorspec.output", "write_pgm", "output.write_pgm"),
    ("vorspec.output", "write_raw", "output.write_raw"),
)


class Span:
    """One timed call: name, start, end (perf_counter seconds), index of
    the enclosing span (-1 at top level), and computed bytes for FFTs."""

    __slots__ = ("name", "start", "end", "parent", "nbytes")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.nbytes = 0

    def as_dict(self, run_id):
        return {"run": run_id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "bytes": self.nbytes}


class Recorder:
    """In-memory span list with a call stack for parent links.

    Spans are appended at entry, so list order is start order and a span's
    index is its identifier.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.missing: list = []
        self._stack: list = []

    def wrap(self, name: str, fn, count_bytes: bool = False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count_bytes:
                # computed, not measured: input plus output array sizes
                src = args[0] if args else kwargs.get("a")
                span.nbytes = getattr(src, "nbytes", 0) + out.nbytes
            return out

        return wrapper

    def _patch(self, owner, attr: str, name: str, count_bytes=False):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, self.wrap(name, original, count_bytes))

    def install_fft(self):
        """Wrap every public numpy.fft transform; call before importing vorspec."""
        import numpy.fft

        for attr in FFT_NAMES:
            self._patch(numpy.fft, attr, "spectral." + attr, count_bytes=True)

    def install_vorspec(self):
        for path, attr, name in VORSPEC_PATCHES:
            owner = _resolve(path)
            if owner is None:
                self.missing.append(f"{path}.{attr}")
            else:
                self._patch(owner, attr, name)

    def child_lists(self):
        """For every span, the indices of the spans directly inside it."""
        kids = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                kids[s.parent].append(i)
        return kids

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.as_dict(self.run_id)) + "\n")


def _resolve(path: str) -> Optional[object]:
    """Module or module attribute (e.g. a class) named by a dotted path."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


def self_time(spans, index: int, child_indices) -> float:
    """Duration of span ``index`` minus the time its direct children cover.

    Direct children of one span never overlap (the program is
    single-threaded), so their durations add up.
    """
    s = spans[index]
    return (s.end - s.start) - sum(spans[c].end - spans[c].start
                                   for c in child_indices)
