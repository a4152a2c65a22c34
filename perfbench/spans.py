"""In-memory spans and exact counts at the layer boundaries of elliptic_lab.

The tracer replaces the module attributes through which one layer calls
another (for example ``construct.solve_on_nodes``, the name ``construct``
binds to the solver) by timing wrappers, and puts the originals back when
it is closed.  Untimed and timed runs never install it; only the separate
traced pass does.  Spans are kept in memory as
``(trace, span, parent, name, start, end)`` and written out at the end.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter
from contextlib import contextmanager

# A span counts towards the layer named by its first component; "op.*" spans
# are the benchmark's own operation roots and belong to no layer.
LAYERS = ("cli", "quad", "funcs", "bvp1d", "construct", "analysis")


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.trace_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._next_id = 1

    # -- span bookkeeping -------------------------------------------------

    def _open(self) -> tuple[int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        self.spans.append((self.trace_id, span_id, parent, name, start, end))

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code (operation roots)."""
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self._close(span_id, parent, name, start, time.perf_counter())

    def current(self) -> int:
        return self._stack[-1] if self._stack else 0

    def adopt(self, spans: list, counts: dict, parent: int) -> None:
        """Merge spans recorded by a child process under the given parent span."""
        offset = self._next_id
        top = max((s[1] for s in spans), default=0)
        for _, span_id, child_parent, name, start, end in spans:
            self.spans.append((self.trace_id, span_id + offset,
                               child_parent + offset if child_parent else parent,
                               name, start, end))
        self._next_id += top + 1
        self.counts.update(counts)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, module, attr: str, name: str | None, count=None) -> None:
        """Replace module.attr by a wrapper recording a span (unless name is None)
        and calling count(counter, args, kwargs, result) after each call."""
        original = getattr(module, attr)
        tracer = self

        if name is None:
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                count(tracer.counts, args, kwargs, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                span_id, parent = tracer._open()
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(span_id, parent, name, start, time.perf_counter())
                if count is not None:
                    count(tracer.counts, args, kwargs, result)
                return result

        functools.update_wrapper(wrapper, original)
        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


# ---------------------------------------------------------------------------
# the layer boundaries
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _count_classify(c, args, kwargs, result) -> None:
    c["quad.evaluations"] += sum(rep.evaluations for rep in result.reports)
    c["quad.attempts"] += 1
    c["quad.determinate"] += int(result.determinate)


def _count_lemma(c, args, kwargs, result) -> None:
    for rep in result:
        c["quad.evaluations"] += rep.evaluations
        c["quad.attempts"] += 1
        c["quad.determinate"] += int(rep.status != "inconclusive")


def _count_cumulative(c, args, kwargs, result) -> None:
    c["quad.cumulative.calls"] += 1


def _count_phi(c, args, kwargs, result) -> None:
    c["funcs.phi_values.calls"] += 1
    c["funcs.phi_values.points"] += int(result.size)


def _count_levels(c, args, kwargs, result) -> None:
    c["bvp1d.eps_levels"] += len(_arg(args, kwargs, 6, "config").schedule())


def _count_ladder(c, args, kwargs, result) -> None:
    _count_levels(c, args, kwargs, result)
    c["construct.ladder_levels"] += 1


def _count_banded(c, args, kwargs, result) -> None:
    c["bvp1d.banded_solves"] += 1


def _count_glue(c, args, kwargs, result) -> None:
    c["construct.glue.doublings"] += int(round(math.log2(result.M)))


def _count_field(c, args, kwargs, result) -> None:
    V = _arg(args, kwargs, 0, "V")
    N = _arg(args, kwargs, 1, "problem").N
    c["analysis.field_evals"] += len(V.centers) * result.sample_count * (2 * N + 1)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross, in library modules."""
    from elliptic_lab import analysis, bvp1d, construct, funcs, quad

    tracer.wrap(quad, "classify_existence", "quad.classify", _count_classify)
    tracer.wrap(quad, "lemma_zero_check", "quad.lemma", _count_lemma)
    tracer.wrap(quad, "iterated_tail_profile", "quad.iterated_profile")
    tracer.wrap(quad._InnerCumulative, "__call__", "quad.cumulative", _count_cumulative)
    tracer.wrap(funcs, "phi_values", "funcs.phi_values", _count_phi)
    tracer.wrap(funcs, "supersolution_profile", "funcs.supersolution")
    tracer.wrap(bvp1d, "solve_on_nodes", "bvp1d.solve_on_nodes", _count_levels)
    tracer.wrap(bvp1d, "solve_banded", None, _count_banded)
    tracer.wrap(construct, "solve_on_nodes", "bvp1d.solve_on_nodes", _count_ladder)
    tracer.wrap(construct, "aitken_limit_rows", "construct.aitken")
    tracer.wrap(construct, "minimal_solution", "construct.minimal")
    tracer.wrap(construct, "family_member", "construct.family")
    tracer.wrap(construct, "exterior_ball_minimal", "construct.exterior")
    tracer.wrap(construct, "glue_supersolution", "construct.glue", _count_glue)
    tracer.wrap(construct, "superposition_field", "construct.superposition")
    tracer.wrap(analysis, "residual_field", "analysis.residual_field", _count_field)
    tracer.wrap(analysis, "residual_radial", "analysis.residual_radial")
    tracer.wrap(analysis, "asymptotics", "analysis.asymptotics")
    tracer.wrap(analysis, "kelvin_transform", "analysis.kelvin")


def install_cli(tracer: Tracer) -> None:
    """Wrap the command line's parse and write steps (cold child processes)."""
    from elliptic_lab import cli

    tracer.wrap(cli, "build_parser", "cli.parse")
    tracer.wrap(cli, "load_config", "cli.parse")
    for attr in ("write_csv_atomic", "write_manifest", "write_profile_svg"):
        tracer.wrap(cli, attr, "cli.write")


# ---------------------------------------------------------------------------
# per-layer metrics from spans and counts
# ---------------------------------------------------------------------------

BUSY = {
    "cli.parse_s": "cli.parse",
    "cli.write_s": "cli.write",
    "quad.classify.busy_s": "quad.classify",
    "quad.lemma.busy_s": "quad.lemma",
    "quad.cumulative.busy_s": "quad.cumulative",
    "funcs.phi_values.busy_s": "funcs.phi_values",
    "funcs.supersolution.busy_s": "funcs.supersolution",
    "bvp1d.solve_on_nodes.busy_s": "bvp1d.solve_on_nodes",
    "construct.minimal.busy_s": "construct.minimal",
    "construct.family.busy_s": "construct.family",
    "construct.exterior.busy_s": "construct.exterior",
    "construct.aitken.busy_s": "construct.aitken",
    "construct.glue.busy_s": "construct.glue",
    "analysis.residual_field.busy_s": "analysis.residual_field",
    "analysis.residual_radial.busy_s": "analysis.residual_radial",
    "analysis.asymptotics.busy_s": "analysis.asymptotics",
}

COUNTS = (
    "quad.evaluations",
    "quad.cumulative.calls",
    "funcs.phi_values.calls",
    "funcs.phi_values.points",
    "bvp1d.banded_solves",
    "bvp1d.eps_levels",
    "construct.ladder_levels",
    "construct.glue.doublings",
    "analysis.field_evals",
)


def layer_metrics(spans: list, counts: Counter) -> dict[str, float]:
    """Busy times, self times per layer, and counts for one traced pass.

    Busy time of a name sums its outermost spans (a span nested in one of the
    same name is not counted twice); a layer's self time is the time its spans
    cover minus the time their direct children cover.
    """
    by_id = {s[1]: s for s in spans}
    child_time: Counter = Counter()
    for _, _, parent, _, start, end in spans:
        if parent:
            child_time[parent] += end - start
    busy: Counter = Counter()
    self_time: Counter = Counter()
    for _, span_id, parent, name, start, end in spans:
        dur = end - start
        layer = name.split(".")[0]
        if layer in LAYERS:
            self_time[layer] += dur - child_time[span_id]
        ancestor = by_id.get(parent)
        nested = False
        while ancestor is not None:
            if ancestor[3] == name:
                nested = True
                break
            ancestor = by_id.get(ancestor[2])
        if not nested:
            busy[name] += dur
    out = {metric: busy[name] for metric, name in BUSY.items()}
    out.update({f"{layer}.self_s": self_time[layer] for layer in LAYERS})
    out.update({name: float(counts[name]) for name in COUNTS})
    attempts = counts["quad.attempts"]
    out["quad.determinate_frac"] = counts["quad.determinate"] / attempts if attempts else 0.0
    levels = counts["bvp1d.eps_levels"]
    out["bvp1d.solves_per_level"] = counts["bvp1d.banded_solves"] / levels if levels else 0.0
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Self import time of elliptic_lab and of scipy from ``-X importtime`` output."""
    own = scipy = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        fields = line[len("import time:"):].split("|")
        module = fields[2].strip()
        self_us = float(fields[0])
        if module.split(".")[0] == "elliptic_lab":
            own += self_us
        elif module.split(".")[0] == "scipy":
            scipy += self_us
    return {"import.self_s": own * 1e-6, "import.scipy_s": scipy * 1e-6}
