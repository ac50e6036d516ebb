"""Spans recorded from outside the program, around calls into its layers.

``Tracer.patched()`` replaces, for the duration of a ``with`` block, the
names that ``vesselnav.navigator`` and ``vesselnav.cli`` imported from the
other modules (plus a few methods) with wrappers that record a span per
call. Spans are kept in memory: name, start, end, parent span and episode id,
plus the time covered by child spans so self time needs no second pass.
"""

from __future__ import annotations

import gzip
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, EPISODE, CHILD, INFO = range(7)

# (module attribute or Class.method, span name); every name is looked up in
# vesselnav.navigator's namespace unless it names a class method.
NAVIGATOR_CALLS = (
    ("segment_layers", "perception.segment"),
    ("thin", "perception.thin"),
    ("skeleton_points", "perception.skeleton_points"),
    ("endpoint_candidates", "perception.endpoints"),
    ("track", "perception.track"),
    ("solve", "registration.solve"),
    ("reprojection_rmse", "registration.rmse"),
    ("lift", "lifting.lift"),
    ("model_to_tree_address", "navigator.address_map"),
    ("nearest_tree_address", "navigator.address_map"),
    ("resample_centerlines", "navigator.setup.resample"),
    ("plan", "planning.plan"),
    ("on_path", "planning.on_path"),
    ("step", "simulator.step"),
)
METHOD_CALLS = (
    ("FrameRenderer", "render", "perception.render"),
    ("FrameRenderer", "__init__", "navigator.setup.renderer"),
    ("RegistrationProblem", "from_tree", "navigator.setup.from_tree"),
    ("RegistrationProblem", "with_frame", "registration.with_frame"),
    ("Navigator", "decide", "navigator.decide"),
)


def _result_info(name: str, result):
    """The count a span keeps from its call's result."""
    if name == "registration.solve":
        return (int(result.iteration), len(result.diagnostics["history"]), bool(result.converged))
    if name in ("perception.skeleton_points", "perception.endpoints"):
        return len(result)
    if name == "perception.track":
        return float(result.confidence)
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.episode = -1

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, self.episode, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[INFO] = "raised " + type(err).__name__
                raise
            finally:
                span[END] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - span[START]
            span[INFO] = _result_info(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self):
        from vesselnav import cli, navigator

        saved = []
        try:
            for attr, name in NAVIGATOR_CALLS:
                saved.append((navigator, attr, getattr(navigator, attr)))
                setattr(navigator, attr, self.wrap(name, getattr(navigator, attr)))
            for cls_name, attr, name in METHOD_CALLS:
                cls = getattr(navigator, cls_name)
                raw = cls.__dict__[attr]
                saved.append((cls, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, self.wrap(name, raw))
            saved.append((cli, "generate_phantom", cli.generate_phantom))
            cli.generate_phantom = self.wrap("vessel_model.generate_phantom", cli.generate_phantom)
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def dump(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines: a header naming the fields,
        then one array per span; times are microseconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write(json.dumps({"fields": ["name", "start_us", "end_us", "parent", "episode", "self_us", "info"]}) + "\n")
            for s in self.spans:
                f.write(
                    json.dumps(
                        [
                            s[NAME],
                            round((s[START] - t0) * 1e6, 3),
                            round((s[END] - t0) * 1e6, 3),
                            s[PARENT],
                            s[EPISODE],
                            round((s[END] - s[START] - s[CHILD]) * 1e6, 3),
                            s[INFO],
                        ]
                    )
                    + "\n"
                )


def _p(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, oracle: bool) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one traced pass. A layer that does
    not run on the workload reports 0 for its times and counts."""
    spans = tracer.spans
    by_name: dict[str, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def dur(name: str, scale: float) -> list[float]:
        return [(s[END] - s[START]) * scale for s in by_name.get(name, [])]

    # First and second thin call after each render: vessel mask, wire mask.
    thin_vessel, thin_wire = [], []
    since_render = 0
    for s in spans:
        if s[NAME] == "perception.render":
            since_render = 0
        elif s[NAME] == "perception.thin":
            (thin_vessel if since_render == 0 else thin_wire).append((s[END] - s[START]) * 1e3)
            since_render += 1

    # Loop region of each episode: from the first render (perception) or the
    # first decide (oracle) to the end of run_episode.
    first_loop = "navigator.decide" if oracle else "perception.render"
    episodes = {s[EPISODE]: s for s in by_name.get("navigator.run_episode", [])}
    setup_ms, loop_time, covered = [], 0.0, 0.0
    region_start: dict[int, float] = {}
    for s in by_name.get(first_loop, []):
        region_start.setdefault(s[EPISODE], s[START])
    for ep, span in episodes.items():
        if ep not in region_start:
            continue
        start = region_start[ep]
        setup_ms.append((start - span[START]) * 1e3)
        loop_time += span[END] - start
    index_of_episode = {i: s[EPISODE] for i, s in enumerate(spans) if s[NAME] == "navigator.run_episode"}
    for s in spans:
        ep = index_of_episode.get(s[PARENT])
        if ep is not None and ep in region_start and s[START] >= region_start[ep]:
            covered += s[END] - s[START]

    solves = by_name.get("registration.solve", [])
    solve_info = [s[INFO] for s in solves if isinstance(s[INFO], tuple)]
    outer = [i[0] for i in solve_info]
    lm = [i[1] for i in solve_info]
    solve_time = sum(s[END] - s[START] for s in solves)
    tracks = [s[INFO] for s in by_name.get("perception.track", [])]
    lifts = by_name.get("lifting.lift", [])
    address_map = [
        (s[END] - s[START]) * 1e3
        for s in by_name.get("navigator.address_map", [])
        if s[PARENT] < 0 or spans[s[PARENT]][NAME] != "navigator.address_map"
    ]
    decides = by_name.get("navigator.decide", [])
    n_episodes = max(len(episodes), 1)

    return {
        "perception.render_ms_p50": (_p(dur("perception.render", 1e3), 50), "ms"),
        "perception.segment_ms_p50": (_p(dur("perception.segment", 1e3), 50), "ms"),
        "perception.thin_vessel_ms_p50": (_p(thin_vessel, 50), "ms"),
        "perception.thin_wire_ms_p50": (_p(thin_wire, 50), "ms"),
        "perception.endpoints_ms_p50": (_p(dur("perception.endpoints", 1e3), 50), "ms"),
        "perception.skeleton_points_p50": (
            _p([s[INFO] for s in by_name.get("perception.skeleton_points", [])], 50),
            "count",
        ),
        "perception.endpoint_candidates_p50": (
            _p([s[INFO] for s in by_name.get("perception.endpoints", [])], 50),
            "count",
        ),
        "perception.track_coast_frac": (
            sum(c == 0.0 for c in tracks) / len(tracks) if tracks else 0.0,
            "fraction",
        ),
        "registration.solve_ms_p50": (_p(dur("registration.solve", 1e3), 50), "ms"),
        "registration.solve_ms_p90": (_p(dur("registration.solve", 1e3), 90), "ms"),
        "registration.outer_iters_p50": (_p(outer, 50), "count"),
        "registration.outer_iters_p90": (_p(outer, 90), "count"),
        "registration.lm_steps_p50": (_p(lm, 50), "count"),
        "registration.lm_steps_p90": (_p(lm, 90), "count"),
        "registration.converged_frac": (_mean([i[2] for i in solve_info]), "fraction"),
        "registration.share": (solve_time / loop_time if loop_time else 0.0, "fraction"),
        "lifting.lift_ms_p50": (_p(dur("lifting.lift", 1e3), 50), "ms"),
        "lifting.off_vessel_frac": (
            sum(s[INFO] == "raised OffVesselError" for s in lifts) / len(lifts) if lifts else 0.0,
            "fraction",
        ),
        "navigator.episode_setup_ms": (_p(setup_ms, 50), "ms"),
        "navigator.address_map_ms_p50": (_p(address_map, 50), "ms"),
        "navigator.decide_us_p50": (
            _p([(s[END] - s[START] - s[CHILD]) * 1e6 for s in decides], 50),
            "us",
        ),
        "navigator.glue_share": ((loop_time - covered) / loop_time if loop_time else 0.0, "fraction"),
        "planning.plan_us_p50": (_p(dur("planning.plan", 1e6), 50), "us"),
        "planning.plan_calls": (len(by_name.get("planning.plan", [])) / n_episodes, "1/episode"),
        "planning.on_path_calls_per_loop": (
            len(by_name.get("planning.on_path", [])) / len(decides) if decides else 0.0,
            "1/loop",
        ),
        "simulator.step_us_p50": (_p(dur("simulator.step", 1e6), 50), "us"),
        "vessel_model.generate_phantom_ms": (_p(dur("vessel_model.generate_phantom", 1e3), 50), "ms"),
        "cli.parse_suite_ms": (_p(dur("cli.parse_suite", 1e3), 50), "ms"),
    }


def solver_counts(tracer: Tracer) -> list[tuple]:
    """(outer iterations, accepted LM steps, converged) of every solve, in order."""
    return [s[INFO] for s in tracer.spans if s[NAME] == "registration.solve"]
