"""Spans and counts for the traced run, recorded from outside the package.

``Tracer.installed()`` replaces the public names through which one hardynum
module calls another (``cli.estimate_profile``, ``wos.uniforms``,
``function_norms.quad``, the ``distances`` method of each domain class, ...)
with wrappers that record a span: layer, call name, start, end, parent span,
task and a work count taken at the same place (points, draws, integrand
evaluations, bytes). The originals are put back on exit, so no source module
changes and untraced runs pay nothing. ``layer_metrics`` turns the spans into
the per-layer metrics; a layer's self time is its span time minus the time of
its child spans.
"""

from __future__ import annotations

import contextlib
import itertools
import warnings
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from scipy.integrate import IntegrationWarning

from hardynum import cli, function_norms, geometry, hardy_estimator, identities, wos

from workloads import tail_reach_log2


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    task: int | None
    layer: str
    name: str
    t0: float
    t1: float
    work: float
    extra: float = 0.0


def _n_samples(args, kwargs, result):
    return args[2].n_samples


def _profile_reach(args, kwargs, result):
    entries = result.entries
    return tail_reach_log2([e.r for e in entries], [e.omega for e in entries],
                           [e.stderr for e in entries])


def _points(args, kwargs, result):
    return len(args[1])


def _indices(args, kwargs, result):
    return len(args[1])


def _keys(args, kwargs, result):
    return len(args[0])


def _neval(args, kwargs, result):
    return result[2]["neval"]


def _inconclusive(args, kwargs, result):
    return float(result.classification == function_norms.CLASS_INCONCLUSIVE)


def _n_results(args, kwargs, result):
    return len(result)


def _text_bytes(args, kwargs, result):
    return len(args[1].encode("utf-8"))


def _full_output_quad(quad):
    """scipy quad that always asks for full_output, so neval can be read."""
    def call(*args, **kwargs):
        args = list(args)
        if len(args) > 4:
            args[4] = 1
        else:
            kwargs["full_output"] = 1
        return quad(*args, **kwargs)
    return call


def _caller_shaped_quad(traced):
    """Give the caller the return shape and warnings it asked for."""
    def call(*args, **kwargs):
        wanted = args[4] if len(args) > 4 else kwargs.get("full_output", 0)
        result = traced(*args, **kwargs)
        if wanted:
            return result
        if len(result) > 3:
            warnings.warn(result[3], IntegrationWarning, stacklevel=2)
        return result[:2]
    return call


# (module, attribute, layer, work) for every cross-module name the tracer
# wraps. The wos and hardy_estimator entry points are also wrapped where they
# are defined, for the benchmark's own API calls.
_MODULE_HOOKS = (
    (cli, "estimate_profile", "wos", _n_samples),
    (cli, "estimate_hm", "wos", _n_samples),
    (wos, "estimate_profile", "wos", _n_samples),
    (wos, "stream_keys", "rng", _indices),
    (wos, "uniforms", "rng", _keys),
    (cli, "estimate_hardy_number", "hardy_estimator", None),
    (hardy_estimator, "estimate_hardy_number", "hardy_estimator", None),
    (cli, "fit_decay", "membership", None),
    (cli, "classify_hardy", "membership", None),
    (cli, "classify_bergman", "membership", None),
    (cli, "exact_hm", "oracles", None),
    (identities, "exact_hm", "oracles", None),
    (function_norms, "empirical_hb", "function_norms", None),
    (function_norms, "hardy_growth_profile", "function_norms", _inconclusive),
    (function_norms, "bergman_growth_profile", "function_norms", _inconclusive),
    (identities, "run_identity_suite", "identities", _n_results),
    (cli, "write_text", "serialize", _text_bytes),
)
_QUAD_CALLERS = (function_norms, identities)


def _domain_classes():
    seen, todo = [], [geometry.Domain]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.task: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, layer: str, name: str, fn, work=None, extra=None):
        """``fn`` recording a span; ``work`` and ``extra`` read counts from
        (args, kwargs, result)."""
        spans, stack, ids = self.spans, self._stack, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append(Span(sid, parent, self.task, layer, name, t0, perf_counter(), 0.0))
                raise
            finally:
                stack.pop()
            t1 = perf_counter()
            amount = work(args, kwargs, result) if work is not None else 0.0
            more = extra(args, kwargs, result) if extra is not None else 0.0
            spans.append(Span(sid, parent, self.task, layer, name, t0, t1, amount, more))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every hook for the duration of the block."""
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            for module, attr, layer, work in _MODULE_HOOKS:
                reach = _profile_reach if attr == "estimate_profile" else None
                patch(module, attr, self.wrap(layer, attr, getattr(module, attr), work, reach))
            for module in _QUAD_CALLERS:
                caller = module.__name__.rsplit(".", 1)[-1]
                traced = self.wrap("quad", caller, _full_output_quad(module.quad), _neval)
                patch(module, "quad", _caller_shaped_quad(traced))
            for cls in _domain_classes():
                for method in ("distances", "projections"):
                    if method in cls.__dict__:
                        patch(cls, method, self.wrap("geometry", method, cls.__dict__[method], _points))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,task,layer,name,t0,t1,work,extra\n")
            for s in self.spans:
                fh.write(f"{s.id},{'' if s.parent is None else s.parent},"
                         f"{'' if s.task is None else s.task},{s.layer},{s.name},"
                         f"{s.t0!r},{s.t1!r},{s.work!r},{s.extra!r}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, n_tasks: int, traced_task_s: float,
                  untraced_task_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per task unless the unit is a rate or a ratio.

    traced_task_s / untraced_task_s are the summed wall times of the same
    tasks run with and without tracing.
    """
    spans = tracer.spans
    by_id = {s.id: s for s in spans}

    def dur(s):
        return s.t1 - s.t0

    child_s = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += dur(s)

    def select(layer, name=None):
        return [s for s in spans if s.layer == layer and (name is None or s.name == name)]

    def self_s(layer):
        return sum(dur(s) - child_s[s.id] for s in select(layer)) / n_tasks

    def parent_layer(s):
        return None if s.parent is None else by_id[s.parent].layer

    wos_spans = select("wos")
    walks = sum(s.work for s in wos_spans)
    steps = [s for s in select("geometry", "distances") if parent_layer(s) == "wos"]
    walker_steps = sum(s.work for s in steps)
    projected = sum(s.work for s in select("geometry", "projections") if parent_layer(s) == "wos")
    reaches = [s.extra for s in wos_spans if s.name == "estimate_profile"]
    draws = select("rng", "uniforms")
    dist, proj = select("geometry", "distances"), select("geometry", "projections")
    fn_quad, id_quad = select("quad", "function_norms"), select("quad", "identities")
    # area integrals nest a circle-mean quad inside the radial one: time only the outer
    quad_s = sum(dur(s) for s in fn_quad if parent_layer(s) != "quad")
    growth = [s for s in select("function_norms") if s.name.endswith("growth_profile")]
    root_s = sum(dur(s) for s in spans if s.parent is None)
    per = 1.0 / n_tasks
    return {
        "cli.self_s": (self_s("cli"), "s/task"),
        "wos.self_s": (self_s("wos"), "s/task"),
        "wos.calls": (len(wos_spans) * per, "count/task"),
        "wos.walks": (walks * per, "count/task"),
        "wos.walker_steps": (walker_steps * per, "count/task"),
        "wos.step_calls": (len(steps) * per, "count/task"),
        "wos.walkers_per_step_call": (_ratio(walker_steps, len(steps)), "count"),
        "wos.steps_per_walk": (_ratio(walker_steps, walks), "count"),
        "wos.unterminated": ((walks - projected) * per, "count/task"),
        "wos.walker_steps_per_s": (_ratio(walker_steps, sum(map(dur, wos_spans))), "1/s"),
        "wos.tail_reach_log2": (sum(reaches) / len(reaches) if reaches else 0.0, "doublings"),
        "rng.self_s": (self_s("rng"), "s/task"),
        "rng.key_calls": (len(select("rng", "stream_keys")) * per, "count/task"),
        "rng.draw_calls": (len(draws) * per, "count/task"),
        "rng.draws": (sum(s.work for s in draws) * per, "count/task"),
        "rng.draws_per_s": (_ratio(sum(s.work for s in draws), sum(map(dur, draws))), "1/s"),
        "geometry.distances_s": (sum(map(dur, dist)) * per, "s/task"),
        "geometry.distances_points": (sum(s.work for s in dist) * per, "count/task"),
        "geometry.projections_s": (sum(map(dur, proj)) * per, "s/task"),
        "geometry.projections_points": (sum(s.work for s in proj) * per, "count/task"),
        "geometry.points_per_s": (_ratio(sum(s.work for s in dist + proj),
                                         sum(map(dur, dist + proj))), "1/s"),
        "hardy_estimator.self_s": (self_s("hardy_estimator"), "s/task"),
        "hardy_estimator.calls": (len(select("hardy_estimator")) * per, "count/task"),
        "membership.self_s": (self_s("membership"), "s/task"),
        "membership.calls": (len(select("membership")) * per, "count/task"),
        "oracles.self_s": (self_s("oracles"), "s/task"),
        "oracles.calls": (len(select("oracles")) * per, "count/task"),
        "function_norms.self_s": (self_s("function_norms"), "s/task"),
        "function_norms.growth_profiles": (len(growth) * per, "count/task"),
        "function_norms.inconclusive": (sum(s.work for s in growth) * per, "count/task"),
        "function_norms.quad_calls": (len(fn_quad) * per, "count/task"),
        "function_norms.quad_neval": (sum(s.work for s in fn_quad) * per, "count/task"),
        "function_norms.quad_s": (quad_s * per, "s/task"),
        "function_norms.neval_per_s": (_ratio(sum(s.work for s in fn_quad), quad_s), "1/s"),
        "identities.self_s": (self_s("identities"), "s/task"),
        "identities.reports": (sum(s.work for s in select("identities")) * per, "count/task"),
        "identities.quad_calls": (len(id_quad) * per, "count/task"),
        "identities.quad_neval": (sum(s.work for s in id_quad) * per, "count/task"),
        "serialize.self_s": (self_s("serialize"), "s/task"),
        "serialize.bytes_written": (sum(s.work for s in select("serialize")) * per, "B/task"),
        "trace.overhead_s": ((traced_task_s - untraced_task_s) * per, "s/task"),
        "trace.unattributed_s": ((traced_task_s - root_s) * per, "s/task"),
    }
