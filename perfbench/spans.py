"""In-memory span recorder for the traced run, and the self-time arithmetic.

The recorder wraps module attributes that the layers call through.  Each
wrapped call becomes a span (name, start, end, parent span, operation id),
except the hot leaves named in ``aggregate``: those are summed per parent
span (count, inclusive time, self time) so that hundreds of thousands of
calls do not each become an object.  Aggregated names must be leaves with
respect to spans: no spanned function may run inside them.

A span's self time is its duration minus the time its children cover: the
union of its child spans' intervals plus the time of aggregated calls made
directly from it.  Self times of one operation's spans and aggregates then
sum to the duration of the operation's root span.
"""

import functools
import time
from collections import defaultdict

clock = time.perf_counter


class Recorder:
    """Spans and aggregates of one traced process, kept until the run ends."""

    def __init__(self, aggregate=()):
        self.aggregate = frozenset(aggregate)
        # span id -> [name, start, end, parent id, op id]
        self.spans: list[list] = []
        # (parent span id, name) -> [count, inclusive s, self s, direct s]
        self.aggregates: dict[tuple, list] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.op = None
        self._stack: list[list] = []  # frames: [span id or None, covered s]
        self._installed: list[tuple] = []

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[0] is not None:
                return frame[0]
        return None

    def call(self, name, fn, args, kwargs):
        agg = name in self.aggregate
        parent = self._parent_span()
        if agg:
            frame = [None, 0.0]
        else:
            frame = [len(self.spans), 0.0]
            self.spans.append([name, 0.0, 0.0, parent, self.op])
        self._stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            self._stack.pop()
            dur = end - start
            direct = bool(self._stack) and self._stack[-1][0] is not None
            if self._stack:
                self._stack[-1][1] += dur
            if agg:
                rec = self.aggregates.get((parent, name))
                if rec is None:
                    rec = self.aggregates[(parent, name)] = [0, 0.0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if direct:
                    rec[3] += dur
            else:
                span = self.spans[frame[0]]
                span[1], span[2] = start, end

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of this name."""
        return self.call(name, fn, args, kwargs)

    def wrap(self, module, attr: str, name: str, on_return=None):
        """Replace module.attr by a recording wrapper; undone by uninstall()."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, args, kwargs)
            if on_return is not None:
                on_return(self.counters, out)
            return out

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def export(self) -> dict:
        return {
            "spans": [{"id": i, "name": s[0], "start": s[1], "end": s[2],
                       "parent": s[3], "op": s[4]} for i, s in enumerate(self.spans)],
            "aggregates": [{"parent": p, "name": n, "count": r[0], "inclusive_s": r[1],
                            "self_s": r[2], "direct_s": r[3]}
                           for (p, n), r in self.aggregates.items()],
            "counters": dict(self.counters),
        }


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict], aggregates: list[dict] = ()) -> dict:
    """Self time of every span: duration minus the time its children cover.

    Children are the spans naming it as parent (their intervals clipped to
    the parent's and merged, so overlaps count once) and the aggregated calls
    made directly from it.
    """
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            p = by_id[s["parent"]]
            children[s["parent"]].append((max(s["start"], p["start"]), min(s["end"], p["end"])))
    direct = defaultdict(float)
    for a in aggregates:
        if a["parent"] is not None:
            direct[a["parent"]] += a["direct_s"]
    return {s["id"]: (s["end"] - s["start"]) - _union_length(children[s["id"]]) - direct[s["id"]]
            for s in spans}


def op_self_sums(spans: list[dict], aggregates: list[dict], selfs: dict) -> dict:
    """Per operation: (sum of self times of its spans and aggregates, root duration)."""
    op_of = {s["id"]: s["op"] for s in spans}
    sums = defaultdict(float)
    roots = {}
    for s in spans:
        sums[s["op"]] += selfs[s["id"]]
        if s["parent"] is None:
            roots[s["op"]] = roots.get(s["op"], 0.0) + (s["end"] - s["start"])
    for a in aggregates:
        sums[op_of.get(a["parent"])] += a["self_s"]
    return {op: (sums[op], roots.get(op, 0.0)) for op in sums}
