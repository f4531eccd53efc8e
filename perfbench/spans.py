"""Spans around the program's layer entry points, recorded from outside.

``traced(tracer)`` replaces each public name in PATCHES, in every module
that imports it, by a wrapper that records a span (name, start, end,
parent, thread) and the work counts of that call, and restores the
originals on exit.  Spans stay in memory; ``write_jsonl`` writes them
once at the end of a run.

Self time is computed on interval unions: a span's self intervals are
its interval minus the union of its children's, and a name's time is the
measure of the union over all its spans.  Spans of worker threads then
overlap without being counted twice.  A span opened on a worker thread
with nothing open on that thread gets, as parent, the span open on the
thread that started the trace (the caller waiting on the pool).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from amoebas import cli, cycres, gridsolver, lopsided, semialg
from amoebas.lopsided import TAU


class Tracer:
    """Spans and work counts of one traced iteration."""

    def __init__(self):
        self.spans = []  # (id, parent, name, thread, start, end)
        self.counts = Counter()
        self.maxima = Counter()
        self.deferred = []  # counts too costly to take inside the timed region
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        stack = self._stack()
        if self._owner is None:
            self._owner = stack
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._owner[-1]
            except IndexError:
                parent = 0
        sid = next(self._ids)
        stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, threading.get_ident(), t0, t1))

    def add(self, key, n):
        # hooks run on worker threads too; += on a Counter is not atomic
        with self._lock:
            self.counts[key] += n

    def defer(self, fn):
        self.deferred.append(fn)

    def settle(self):
        """Take the deferred counts; call outside the timed region."""
        for fn in self.deferred:
            fn(self)
        self.deferred.clear()


# -- counts taken at each wrapped call --------------------------------------


def _coeff_bits(p):
    return max(
        max(abs(part.numerator).bit_length(), part.denominator.bit_length())
        for c in p.terms.values()
        for part in (c.re, c.im)
    )


def _after_fold(tr, result, args):
    tr.add("cycres.fold_calls", 1)
    tr.add("cycres.out_terms", len(result.terms))

    def bits(t):
        t.maxima["cycres.coeff_bits"] = max(t.maxima["cycres.coeff_bits"], _coeff_bits(result))

    tr.defer(bits)


def _after_table(tr, result, args):
    tr.add("lopsided.table_terms", len(args[0]))


def _after_margins(tr, result, args):
    rows, terms = args[0].shape
    tr.add("lopsided.classify_rows", rows)
    tr.add("lopsided.value_cells", rows * terms)
    tr.add("lopsided.certified_rows", int((result[1] > TAU).sum()))


def _after_approximate(tr, records, args):
    def settle(t):
        for rec in records:
            if not rec.in_amoeba:
                t.add(f"gridsolver.certified_L{rec.level}", 1)
    tr.defer(settle)


def _file_bytes(key):
    def after(tr, result, args):
        path = args[1].name
        tr.defer(lambda t: t.add(key, os.path.getsize(path)))
    return after


def _text_bytes(key):
    def after(tr, text, args):
        tr.defer(lambda t: t.add(key, len(text.encode("utf-8"))))
    return after


def _after_raster(tr, result, args):
    tr.add("semialg.raster_samples", result.mask.size)


def _after_query(tr, result, args):
    tr.add("semialg.queries", 1)


# (owner, attribute, span name, count hook).  A name is wrapped in every
# module that binds it; cli._cmd_cres imports quick_cyclic_resultant at
# call time, so the cycres module attribute covers it.
PATCHES = [
    (cli, "main", "cli.main", None),
    (cli, "parse", "poly.parse", None),
    (cli, "format_poly", "poly.format", _text_bytes("poly.format_bytes")),
    (cycres, "quick_cyclic_resultant", "cycres.fold", _after_fold),
    (gridsolver, "quick_cyclic_resultant", "cycres.fold", _after_fold),
    (semialg, "quick_cyclic_resultant", "cycres.fold", _after_fold),
    (lopsided.TermTable, "__init__", "lopsided.table_build", _after_table),
    (lopsided.TermTable, "classify", "lopsided.classify", None),
    (lopsided.TermTable, "float_values", "lopsided.float_values", None),
    (lopsided, "peak_margins", "lopsided.margins", _after_margins),
    (semialg, "peak_margins", "lopsided.margins", _after_margins),
    (cli, "approximate_amoeba", "gridsolver.approximate", _after_approximate),
    (cli, "records_to_csv", "gridsolver.csv", _file_bytes("gridsolver.csv_bytes")),
    (semialg, "newton", "newton.hull", None),
    (cli, "semialg_description", "semialg.describe", None),
    (semialg.SemiAlgSystem, "rasterize", "semialg.raster", _after_raster),
    (semialg.SemiAlgSystem, "certify_log", "semialg.certify_log", _after_query),
    (cli, "overlay_svg", "render.svg", _text_bytes("render.svg_bytes")),
]


def _wrap(tracer, fn, name, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(tracer, result, args)
        return result

    return wrapper


@contextmanager
def traced(tracer):
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in PATCHES]
    try:
        for (owner, attr, name, hook), (_, _, fn) in zip(PATCHES, saved):
            setattr(owner, attr, _wrap(tracer, fn, name, hook))
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


# -- analysis ----------------------------------------------------------------


def _union(intervals):
    out = []
    for s, e in sorted(intervals):
        if out and s <= out[-1][1]:
            if e > out[-1][1]:
                out[-1][1] = e
        else:
            out.append([s, e])
    return out


def _measure(intervals):
    return sum(e - s for s, e in intervals)


def span_times(spans):
    """{name: (inclusive seconds, self seconds)}, both on interval unions."""
    children = {}
    for sid, parent, name, _, s, e in spans:
        children.setdefault(parent, []).append((s, e))
    incl, own = {}, {}
    for sid, _, name, _, s, e in spans:
        incl.setdefault(name, []).append((s, e))
        pieces, cursor = [], s
        for cs, ce in _union(children.get(sid, ())):
            cs, ce = max(cs, s), min(ce, e)
            if cs > cursor:
                pieces.append((cursor, cs))
            cursor = max(cursor, ce)
        if cursor < e:
            pieces.append((cursor, e))
        own.setdefault(name, []).extend(pieces)
    return {name: (_measure(_union(incl[name])), _measure(_union(own[name]))) for name in incl}


def write_jsonl(path, iterations, origin):
    """One JSON object per span; times in seconds from ``origin``."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for it, tracer in enumerate(iterations):
            for sid, parent, name, thread, s, e in tracer.spans:
                fh.write(json.dumps({
                    "iteration": it, "id": sid, "parent": parent, "name": name,
                    "thread": thread, "start": round(s - origin, 9), "end": round(e - origin, 9),
                }) + "\n")
