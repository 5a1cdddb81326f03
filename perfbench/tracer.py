"""Span tracer that wraps entgap's layer entry points from outside the package.

``Tracer.install()`` replaces each entry point listed in ``ENTRY_POINTS``
with a timing wrapper, rebinding the name in every ``entgap`` module that
holds the original function (the defining module and every module that
imported it with ``from .x import name``).  ``uninstall()`` puts the
originals back.  Spans nest through a stack, so each span knows its parent
and a layer's self time is its duration minus its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    request: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _sdp_attrs(arguments, result, span):
    da, db = arguments["dims"]
    span.attrs.update(
        shape=(int(da), int(db)),
        n=int(da) * int(db),
        iterations=int(result.iterations),
        converged=bool(result.converged),
    )


def _seesaw_attrs(arguments, result, span):
    span.attrs["restarts"] = int(arguments["restarts"])


def _assemble_attrs(arguments, result, span):
    side = int(result.spec.dim)
    span.attrs["side"] = side
    span.attrs["dense_bytes"] = side * side * 16 if result.dense is not None else 0


def _xy_attrs(arguments, result, span):
    span.attrs["points"] = len(result)


# (module, function, span name, hook recording counts from the bound
# arguments and the result)
ENTRY_POINTS = [
    ("entgap.sdp", "solve_ppt_sdp", "sdp", _sdp_attrs),
    ("entgap.separability", "ppt_lower", "ppt_lower", None),
    ("entgap.separability", "seesaw_upper", "seesaw", _seesaw_attrs),
    ("entgap.operators", "eig", "eig", None),
    ("entgap.operators", "lanczos_ground", "lanczos", None),
    ("entgap.lattices", "assemble", "assemble", _assemble_attrs),
    ("entgap.thermo", "entanglement_gap_temperature", "thermo.gap_temperature", None),
    ("entgap.thermo", "is_gibbs_ppt", "thermo.gibbs_ppt", None),
    ("entgap.xy", "xy_gap_surface", "xy.surface", _xy_attrs),
    ("entgap.twoqubit", "random_search", "twoqubit", None),
    ("entgap.tables", "table1_report", "tables", None),
    ("entgap.tables", "table2_report", "tables", None),
    ("entgap.cli", "main", "cli", None),
]


# Every per-layer metric a traced run reports, with its unit.
PER_LAYER_UNITS = {
    "sdp.calls": "count",
    "sdp.busy_s": "s",
    "sdp.iterations": "count",
    "sdp.ms_per_iter.n4": "ms",
    "sdp.ms_per_iter.n9": "ms",
    "sdp.ms_per_iter.n16": "ms",
    "sdp.ms_per_iter.n32": "ms",
    "sdp.unconverged": "count",
    "sdp.basis_bytes": "B",
    "ppt_lower.cuts": "solves/call",
    "seesaw.calls": "count",
    "seesaw.busy_s": "s",
    "seesaw.restarts": "count",
    "seesaw.ms_per_restart": "ms",
    "separability.bracket_width": "energy",
    "eig.calls": "count",
    "eig.busy_s": "s",
    "lanczos.calls": "count",
    "lanczos.busy_s": "s",
    "lanczos.matvecs": "count",
    "lanczos.ms_per_matvec": "ms",
    "assemble.calls": "count",
    "assemble.busy_s": "s",
    "assemble.dense_bytes": "B",
    "thermo.gap_temperature.calls": "count",
    "thermo.gap_temperature.busy_s": "s",
    "thermo.gibbs_ppt.calls": "count",
    "thermo.gibbs_ppt.busy_s": "s",
    "xy.surface.busy_s": "s",
    "xy.points": "count",
    "twoqubit.self_s": "s",
    "tables.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
}


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request: int | None = None
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self._request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def begin_request(self, request_id: int):
        self._request = request_id

    def _wrap(self, fn, name, hook):
        tracer = self
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result, span)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_lanczos(self, fn):
        """Lanczos wrapper that also counts and times the operator's matvecs."""
        from entgap.operators import MatrixFreeOperator

        tracer = self

        def traced(op, *args, **kwargs):
            span = tracer._open("lanczos")
            span.attrs.update(matvecs=0, matvec_s=0.0)
            inner = op.apply

            def counted(v):
                t0 = time.perf_counter()
                out = inner(v)
                span.attrs["matvec_s"] += time.perf_counter() - t0
                span.attrs["matvecs"] += 1
                return out

            counting = MatrixFreeOperator(
                dimension=op.dimension, apply=counted, dims=op.dims
            )
            try:
                return fn(counting, *args, **kwargs)
            finally:
                tracer._close(span)

        traced.__wrapped__ = fn
        return traced

    # -- rebinding -------------------------------------------------------

    def install(self):
        """Rebind every entry point in every loaded entgap module."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        importlib.import_module("entgap")
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "entgap" or key.startswith("entgap."))
        ]
        for mod_name, fn_name, span_name, hook in ENTRY_POINTS:
            original = getattr(importlib.import_module(mod_name), fn_name)
            if span_name == "lanczos":
                wrapper = self._wrap_lanczos(original)
            else:
                wrapper = self._wrap(original, span_name, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation -----------------------------------------------------

    def self_times(self) -> dict:
        """Per span name: summed duration minus the time of direct children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        out: dict = {}
        for i, span in enumerate(self.spans):
            out[span.name] = out.get(span.name, 0.0) + span.duration - child_time[i]
        return out

    def root_time(self) -> float:
        return sum(s.duration for s in self.spans if s.parent is None)

    def _top_ppt(self, i: int) -> int | None:
        """Index of the outermost ppt_lower span enclosing span i."""
        top = None
        j = self.spans[i].parent
        while j is not None:
            if self.spans[j].name == "ppt_lower":
                top = j
            j = self.spans[j].parent
        return top

    def metrics(self) -> dict:
        """Per-layer metrics (name -> value) over every recorded span."""
        by_name: dict[str, list[Span]] = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)

        def spans(name):
            return by_name.get(name, [])

        def busy(name):
            return sum(s.duration for s in spans(name))

        sdp = spans("sdp")
        m = {
            "sdp.calls": len(sdp),
            "sdp.busy_s": busy("sdp"),
            "sdp.iterations": sum(s.attrs["iterations"] for s in sdp),
            "sdp.unconverged": sum(1 for s in sdp if not s.attrs["converged"]),
        }
        for n in (4, 9, 16, 32):
            sized = [s for s in sdp if s.attrs["n"] == n]
            iters = sum(s.attrs["iterations"] for s in sized)
            m[f"sdp.ms_per_iter.n{n}"] = (
                1e3 * sum(s.duration for s in sized) / iters if iters else 0.0
            )
        # the basis cache keeps one entry per (da, db) shape alive
        shapes = {s.attrs["shape"] for s in sdp}
        m["sdp.basis_bytes"] = sum(
            2 * (da * db) ** 2 * ((da * db) ** 2 + 1) * 16 for da, db in shapes
        )

        tops = {
            i for i, s in enumerate(self.spans)
            if s.name == "ppt_lower" and self._top_ppt(i) is None
        }
        solves = sum(
            1 for i, s in enumerate(self.spans)
            if s.name == "sdp" and self._top_ppt(i) in tops
        )
        m["ppt_lower.cuts"] = solves / len(tops) if tops else 0.0

        seesaw = spans("seesaw")
        restarts = sum(s.attrs["restarts"] for s in seesaw)
        m["seesaw.calls"] = len(seesaw)
        m["seesaw.busy_s"] = busy("seesaw")
        m["seesaw.restarts"] = restarts
        m["seesaw.ms_per_restart"] = 1e3 * busy("seesaw") / restarts if restarts else 0.0

        m["eig.calls"] = len(spans("eig"))
        m["eig.busy_s"] = busy("eig")

        lanczos = spans("lanczos")
        matvecs = sum(s.attrs["matvecs"] for s in lanczos)
        m["lanczos.calls"] = len(lanczos)
        m["lanczos.busy_s"] = busy("lanczos")
        m["lanczos.matvecs"] = matvecs
        m["lanczos.ms_per_matvec"] = (
            1e3 * sum(s.attrs["matvec_s"] for s in lanczos) / matvecs if matvecs else 0.0
        )

        assemble = spans("assemble")
        m["assemble.calls"] = len(assemble)
        m["assemble.busy_s"] = busy("assemble")
        m["assemble.dense_bytes"] = max(
            (s.attrs["dense_bytes"] for s in assemble), default=0
        )

        for name in ("thermo.gap_temperature", "thermo.gibbs_ppt"):
            m[f"{name}.calls"] = len(spans(name))
            m[f"{name}.busy_s"] = busy(name)

        m["xy.surface.busy_s"] = busy("xy.surface")
        m["xy.points"] = sum(s.attrs["points"] for s in spans("xy.surface"))

        self_s = self.self_times()
        for name in ("twoqubit", "tables", "cli"):
            m[f"{name}.self_s"] = self_s.get(name, 0.0)
        return m
