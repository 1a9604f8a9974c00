"""Spans and call aggregates recorded from the benchmark's own files.

Coarse calls (one per unit or per run) are spans: name, start, end,
parent and unit id, kept in memory until the run ends.  High-frequency
callables (event closures, flow maps, certificate terms, Lyapunov solves,
ball samples) are wrapped and aggregated as a call count plus cumulative
time per parent node, so memory stays bounded however many calls a unit
makes.  A node's self time is its duration minus the time its direct
children cover; children run sequentially inside their parent, so self
times are nonnegative and a unit's self times sum to its duration.

Times are integer nanoseconds from ``time.perf_counter_ns``.
"""

import dataclasses
import time
from contextlib import contextmanager, nullcontext

# Certificate fields that hold callables; each becomes a "model.cert" call.
CERT_TERMS = ("V", "W", "H", "delta", "alpha", "alpha_lower", "alpha_upper", "y_of_x")


class PatchPointMissing(RuntimeError):
    """A public callable that the traced run wraps no longer exists."""


class NullTracer:
    """Tracing off: spans are no-ops and loops are passed through unchanged."""

    def span(self, name, unit=None):
        return nullcontext()

    def wrap_loop(self, sys, cert):
        return sys, cert


class Tracer:
    """Spans and aggregated calls of one traced run, plus the patches it installed."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent, unit]; parent is a span index
        self.span_child_ns = []
        self.aggs = {}  # (parent node, name) -> [count, total_ns, child_ns]
        self.stack = [None]  # active nodes: span indices (int) or aggregate keys (tuple)
        self.unit = None
        self._restore = []

    def _add_child(self, parent, ns):
        if type(parent) is int:
            self.span_child_ns[parent] += ns
        elif parent is not None:
            self.aggs[parent][2] += ns

    @contextmanager
    def span(self, name, unit=None):
        parent = self.stack[-1]
        if parent is None:
            self.unit = unit
        elif type(parent) is not int:
            raise RuntimeError(f"span {name!r} opened inside aggregated call {parent[1]!r}")
        idx = len(self.spans)
        rec = [name, time.perf_counter_ns(), None, parent, self.unit]
        self.spans.append(rec)
        self.span_child_ns.append(0)
        self.stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self.stack.pop()
            self._add_child(parent, rec[2] - rec[1])

    def wrap(self, name, fn):
        """Aggregate every call of ``fn`` under the node active at call time."""
        stack, aggs, clock = self.stack, self.aggs, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            key = (parent, name)
            rec = aggs.get(key)
            if rec is None:
                rec = aggs[key] = [0, 0, 0]
            stack.append(key)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ns = clock() - t0
                stack.pop()
                rec[0] += 1
                rec[1] += ns
                self._add_child(parent, ns)

        return traced

    def wrap_span(self, name, fn):
        """Record every call of ``fn`` as a span (for coarse calls made inside the package)."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_loop(self, sys, cert):
        """Copies of the loop and certificate whose callables are aggregated."""
        sys = dataclasses.replace(
            sys, f=self.wrap("model.fg", sys.f), g=self.wrap("model.fg", sys.g)
        )
        terms = {k: self.wrap("model.cert", getattr(cert, k)) for k in CERT_TERMS}
        return sys, dataclasses.replace(cert, **terms)

    # -- patch points ---------------------------------------------------------

    def patch(self, module, attr, wrapper):
        try:
            original = getattr(module, attr)
        except AttributeError:
            raise PatchPointMissing(f"{module.__name__}.{attr} is gone") from None
        if not callable(original):
            raise PatchPointMissing(f"{module.__name__}.{attr} is not callable")
        setattr(module, attr, wrapper(original))
        self._restore.append((module, attr, original))

    def install(self, E):
        """Wrap the package callables that the benchmark cannot reach from outside.

        All or nothing: if a patch point is missing, the patches made so far are undone.
        """
        try:
            self._install(E)
        except PatchPointMissing:
            self.uninstall()
            raise

    def _install(self, E):
        for cls, names in ((E.ClosedLoopSystem, ("f", "g")), (E.Certificate, CERT_TERMS)):
            have = {f.name for f in dataclasses.fields(cls)}
            for n in names:
                if n not in have:
                    raise PatchPointMissing(f"{cls.__name__}.{n} is gone")

        def event_function(orig):
            def traced(cert, cfg):
                h = orig(cert, cfg)
                return None if h is None else self.wrap("trigger.event", h)

            return traced

        def agg(name):
            return lambda orig: self.wrap(name, orig)

        def spanned(name):
            return lambda orig: self.wrap_span(name, orig)

        self.patch(E.hybrid, "event_function", event_function)
        self.patch(E.montecarlo, "simulate", spanned("hybrid.simulate"))
        self.patch(E.montecarlo, "sample_initial", agg("montecarlo.sample_initial"))
        self.patch(E.montecarlo, "uniform_ball", agg("sampling.uniform_ball"))
        self.patch(E.systems, "uniform_ball", agg("sampling.uniform_ball"))
        self.patch(E.systems, "assemble", agg("lti.assemble"))
        self.patch(E.systems, "design_certificate", spanned("lti.design_certificate"))
        self.patch(E.systems, "extract_assumption", agg("lti.extract_assumption"))
        self.patch(E.lti, "solve_lyapunov", agg("linalg.solve_lyapunov"))
        self.patch(E.trigger, "masp", agg("trigger.masp"))

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    # -- results --------------------------------------------------------------

    def stats(self):
        """name -> [calls, total_ns, self_ns] over spans and aggregates."""
        out = {}
        for i, (name, start, end, _parent, _unit) in enumerate(self.spans):
            s = out.setdefault(name, [0, 0, 0])
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - self.span_child_ns[i]
        for (_parent, name), (count, total, child) in self.aggs.items():
            s = out.setdefault(name, [0, 0, 0])
            s[0] += count
            s[1] += total
            s[2] += total - child
        return out


def check_tree(tr):
    """Verify the spans form a tree per unit with sound self times.

    Every span's parent is an earlier span of the same unit, every
    aggregate hangs under a span or another aggregate, no self time is
    negative, and the self times under each root sum to at most the
    root's duration.  Returns the number of roots checked.
    """
    n = len(tr.spans)
    root_of = [None] * n
    self_sum = {}
    for i, (name, start, end, parent, unit) in enumerate(tr.spans):
        if end is None or end < start:
            raise AssertionError(f"span {i} ({name}) is open or runs backwards")
        if parent is None:
            root_of[i] = i
        else:
            if not 0 <= parent < i:
                raise AssertionError(f"span {i} ({name}) has parent {parent}")
            p = tr.spans[parent]
            if not (p[1] <= start and end <= p[2]) or p[4] != unit:
                raise AssertionError(f"span {i} ({name}) escapes its parent {p[0]}")
            root_of[i] = root_of[parent]
        self_ns = end - start - tr.span_child_ns[i]
        if self_ns < 0:
            raise AssertionError(f"span {i} ({name}) has negative self time {self_ns}")
        self_sum[root_of[i]] = self_sum.get(root_of[i], 0) + self_ns

    def root(node):
        while type(node) is not int:
            if node is None:
                raise AssertionError("aggregated call outside any span")
            node = node[0]
        return root_of[node]

    for key, (count, total, child) in tr.aggs.items():
        if count < 1 or total - child < 0:
            raise AssertionError(f"aggregate {key[1]} has count {count}, self {total - child}")
        r = root(key)
        self_sum[r] = self_sum.get(r, 0) + total - child
    for r, total in self_sum.items():
        name, start, end = tr.spans[r][:3]
        if total > end - start:
            raise AssertionError(f"self times under {name} exceed its duration")
    return len(self_sum)
