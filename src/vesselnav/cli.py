"""Batch episode runner with a text config, aligned and JSON summaries.

One config file defines the map, the camera, noise, controller parameters,
and a list of tasks; a suite is the cross product of tasks and seeds. All
output files are a pure function of (config, seeds): floats are written with
repr, nothing is timestamped, and reruns must be byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import CameraModel
from .navigator import EpisodeConfig, EpisodeReport, NavigatorParams, run_episode
from .perception import NoiseSpec, frame_view_pose
from .planning import AddressError, plan
from .simulator import ActuationNoise
from .vessel_model import PhantomSpec, VesselTree, deserialize_tree, generate_phantom

Address = tuple[int, int]


class ConfigError(ValueError):
    """Unusable suite configuration; raised before any episode runs."""


@dataclass(frozen=True)
class TaskSpec:
    name: str
    start: Address
    dest: Address
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    tree: VesselTree
    tasks: tuple[TaskSpec, ...]
    episode: EpisodeConfig
    outdir: Path


@dataclass
class TaskResult:
    task: TaskSpec
    reports: list[EpisodeReport]

    @property
    def successes(self) -> int:
        return sum(r.success for r in self.reports)

    def successful_loops(self) -> list[int]:
        return [r.loops for r in self.reports if r.success]

    def loops_mean(self) -> float | None:
        loops = self.successful_loops()
        return float(np.mean(loops)) if loops else None

    def loops_std(self) -> float | None:
        loops = self.successful_loops()
        if not loops:
            return None
        if len(loops) < 2:
            return 0.0
        return float(np.std(loops, ddof=1))


def parse_address(text: str) -> Address:
    try:
        branch, _, index = text.strip().partition(":")
        return (int(branch), int(index))
    except ValueError:
        raise ConfigError(f"address {text!r} is not branch:index") from None


def _format_address(addr: Address) -> str:
    return f"{addr[0]}:{addr[1]}"


def _get(section, key, conv, default):
    if key not in section:
        return default
    raw = section[key]
    try:
        if conv is bool:
            lowered = raw.strip().lower()
            if lowered not in ("true", "false"):
                raise ValueError
            return lowered == "true"
        return conv(raw)
    except ValueError:
        raise ConfigError(f"[{section.name}] {key} = {raw!r} is not a {conv.__name__}") from None


def _given(section, **convs) -> dict:
    """The keys the section sets, converted; the callee's defaults fill the rest."""
    return {key: _get(section, key, conv, None) for key, conv in convs.items() if key in section}


def _build(section_name: str, factory, *args, **kwargs):
    """``factory(*args, **kwargs)``, its ValueError reported against the section."""
    try:
        return factory(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"[{section_name}] {err}") from None


def load_tree(cfg: configparser.ConfigParser, map_override: str | None = None) -> VesselTree:
    if map_override is None and cfg.has_section("map"):
        if "path" not in cfg["map"]:
            raise ConfigError("[map] needs a path key")
        map_override = cfg["map"]["path"]
    if map_override is not None:
        path = Path(map_override)
        if not path.exists():
            raise ConfigError(f"map file {path} does not exist")
        return deserialize_tree(path.read_bytes())
    if cfg.has_section("phantom"):
        section = cfg["phantom"]
        spec = PhantomSpec(
            depth=_get(section, "depth", int, PhantomSpec.depth),
            branching=_get(section, "branching", int, PhantomSpec.branching),
            step_mm=_get(section, "step_mm", float, PhantomSpec.step_mm),
        )
        if "seed" not in section:
            raise ConfigError("[phantom] needs a seed key")
        return _build("phantom", generate_phantom, spec, seed=_get(section, "seed", int, 0))
    raise ConfigError("config needs a [phantom] or [map] section")


def _episode_config(cfg: configparser.ConfigParser, tip_seed: tuple[float, float] | None) -> EpisodeConfig:
    nav = cfg["navigator"] if cfg.has_section("navigator") else {}
    params = _build(
        "navigator",
        NavigatorParams,
        **_given(
            nav, reach_threshold_mm=float, replan_after_misses=int, burst_low=int, burst_high=int, back_step=int
        ),
    )
    noise = cfg["noise"] if cfg.has_section("noise") else {}
    actuation = _build("noise", ActuationNoise, **_given(noise, translation_jitter=float, rotation_failure=float))
    imaging_kind = _get(noise, "imaging", str, "none").strip().lower()
    if imaging_kind == "none":
        imaging = None
    elif imaging_kind == "gaussian":
        imaging = _build("noise", NoiseSpec, gaussian_std=_get(noise, "imaging_std", float, NoiseSpec.gaussian_std))
    else:
        raise ConfigError(f"[noise] imaging = {imaging_kind!r} is not none or gaussian")
    camera_section = cfg["camera"] if cfg.has_section("camera") else {}
    standard = CameraModel.standard()
    camera = _build(
        "camera",
        CameraModel.standard,
        focal_px=_get(camera_section, "focal_px", float, float(standard.intrinsics[0, 0])),
        image_size=(
            _get(camera_section, "width", int, standard.image_size[0]),
            _get(camera_section, "height", int, standard.image_size[1]),
        ),
        pixel_size=_get(camera_section, "pixel_size_mm", float, standard.pixel_size),
    )
    solver = cfg["solver"] if cfg.has_section("solver") else {}
    spacing_mm = _get(solver, "spacing_mm", float, EpisodeConfig.registration_spacing_mm)
    if not spacing_mm > 0.0:
        raise ConfigError(f"[solver] spacing_mm = {spacing_mm!r} must be positive")
    max_loops = _get(solver, "max_loops", int, EpisodeConfig.max_loops)
    if max_loops < 1:
        raise ConfigError(f"[solver] max_loops = {max_loops} must be at least 1")
    return EpisodeConfig(
        max_loops=max_loops,
        registration_spacing_mm=spacing_mm,
        use_oracle_perception=_get(solver, "oracle_perception", bool, EpisodeConfig.use_oracle_perception),
        actuation_noise=actuation,
        imaging_noise=imaging,
        params=params,
        view_depth_mm=_get(camera_section, "view_depth_mm", float, EpisodeConfig.view_depth_mm),
        camera=camera,
        tip_seed_px=tip_seed,
    )


def parse_suite(
    config_path: str | Path,
    seed_offset: int = 0,
    dest_override: str | None = None,
    tip_seed: tuple[float, float] | None = None,
    map_override: str | None = None,
) -> SuiteSpec:
    """Read and validate a full suite; raises ConfigError before any episode
    has run when anything is unusable (fail fast)."""
    config_path = Path(config_path)
    if not config_path.exists():
        raise ConfigError(f"config file {config_path} does not exist")
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cfg.read_string(config_path.read_text())
    except configparser.Error as err:
        raise ConfigError(f"config does not parse: {err}") from None

    tree = load_tree(cfg, map_override)
    suite_section = cfg["suite"] if cfg.has_section("suite") else {}
    name = _get(suite_section, "name", str, "suite")
    default_seeds = _parse_seeds(_get(suite_section, "seeds", str, "0"))
    outdir = Path(os.environ.get("VESSELNAV_OUTDIR") or _get(suite_section, "outdir", str, f"runs/{name}"))

    tasks = []
    for section_name in cfg.sections():
        if not section_name.startswith("task:"):
            continue
        section = cfg[section_name]
        task_name = section_name.split(":", 1)[1]
        if "start" not in section or "dest" not in section:
            raise ConfigError(f"[{section_name}] needs start and dest keys")
        start = parse_address(section["start"])
        dest = parse_address(dest_override) if dest_override else parse_address(section["dest"])
        seeds = _parse_seeds(section["seeds"]) if "seeds" in section else default_seeds
        seeds = tuple(s + seed_offset for s in seeds)
        if min(seeds) < 0:
            raise ConfigError(f"[{section_name}] seed {min(seeds)} (after the seed offset) is negative")
        try:
            plan(tree, start, dest)
        except AddressError as err:
            raise ConfigError(f"[{section_name}] {err}") from None
        tasks.append(TaskSpec(task_name, start, dest, seeds))
    if not tasks:
        raise ConfigError("config defines no [task:...] sections")

    episode = _episode_config(cfg, tip_seed)
    _build("camera", frame_view_pose, tree, episode.view_depth_mm)
    return SuiteSpec(name, tree, tuple(tasks), episode, outdir)


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"seed list {text!r} is not a list of integers") from None
    if not seeds:
        raise ConfigError("seed list is empty")
    return seeds


# ---------------------------------------------------------------------------
# output writers


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _episode_log(task: TaskSpec, seed: int, report: EpisodeReport) -> str:
    lines = [
        f"task {task.name} start {_format_address(task.start)} "
        f"dest {_format_address(task.dest)} seed {seed}"
    ]
    for r in report.records:
        tip = "-" if r.tip_pixel_px is None else f"{r.tip_pixel_px[0]!r},{r.tip_pixel_px[1]!r}"
        lines.append(
            f"loop={r.loop_index} cmd={r.command.translate!r},{r.command.rotate}"
            f" true={_format_address(r.true_address)} est={_format_address(r.estimated_address)}"
            f" err_mm={r.tip_error_mm!r} on_route={r.on_route}"
            f" rmse_px={r.registration_rmse_px!r} lift_px={r.lift_pixel_error!r} tip_px={tip}"
        )
    lines.append(
        f"result success={report.success} loops={report.loops} replans={report.replans}"
        f" mean_err_mm={report.mean_tip_error_mm()!r}"
    )
    return "\n".join(lines) + "\n"


def _summary_text(suite: SuiteSpec, results: list[TaskResult]) -> str:
    header = ["task", "start", "dest", "success", "loops_mean", "loops_std"]
    rows = [header]
    for res in results:
        rows.append(
            [
                res.task.name,
                _format_address(res.task.start),
                _format_address(res.task.dest),
                f"{res.successes}/{len(res.reports)}",
                _fmt(res.loops_mean()),
                _fmt(res.loops_std()),
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = [f"suite {suite.name}"]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    total = sum(res.successes for res in results)
    trials = sum(len(res.reports) for res in results)
    lines.append(f"total {total}/{trials}")
    return "\n".join(lines) + "\n"


def _summary_json(suite: SuiteSpec, results: list[TaskResult]) -> str:
    payload = {
        "suite": suite.name,
        "tasks": [
            {
                "name": res.task.name,
                "start": list(res.task.start),
                "dest": list(res.task.dest),
                "seeds": list(res.task.seeds),
                "successes": res.successes,
                "trials": len(res.reports),
                "loops": [r.loops for r in res.reports],
                "loops_mean": res.loops_mean(),
                "loops_std": res.loops_std(),
            }
            for res in results
        ],
        "total_successes": sum(res.successes for res in results),
        "total_trials": sum(len(res.reports) for res in results),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_pgm(path: Path, pixels: np.ndarray) -> None:
    if pixels.dtype != np.uint8 or pixels.ndim != 2:
        raise ValueError("pgm wants a 2d uint8 array")
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (pixels.shape[1], pixels.shape[0]))
        f.write(pixels.tobytes())


def _burn_overlay(pixels: np.ndarray, info: dict) -> np.ndarray:
    out = pixels.copy()
    h, w = out.shape
    route = np.rint(np.asarray(info["route_px"])).astype(int)
    if len(route):
        keep = (route[:, 0] >= 0) & (route[:, 0] < w) & (route[:, 1] >= 0) & (route[:, 1] < h)
        route = route[keep]
        out[route[:, 1], route[:, 0]] = 255
    tx, ty = np.rint(np.asarray(info["lifted_tip_px"])).astype(int)
    for dx, dy in [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (2, 0), (-2, 0), (0, 2), (0, -2)]:
        x, y = tx + dx, ty + dy
        if 0 <= x < w and 0 <= y < h:
            out[y, x] = 0
    return out


def _sidecar_text(loop_index: int, info: dict) -> str:
    tip = [float(v) for v in info["lifted_tip_px"]]
    true_tip = [float(v) for v in info["true_tip_px"]]
    mm = [float(v) for v in info["lifted_tip_mm"]]
    return (
        f"frame {loop_index}\n"
        f"true_tip_px {true_tip[0]!r} {true_tip[1]!r}\n"
        f"lifted_tip_px {tip[0]!r} {tip[1]!r}\n"
        f"lifted_tip_mm {mm[0]!r} {mm[1]!r} {mm[2]!r}\n"
        f"registration_rmse_px {info['registration_rmse_px']!r}\n"
        f"route_points {len(info['route_px'])}\n"
    )


class _FrameDumper:
    """frame_sink that writes raster, overlay, and sidecar per loop."""

    def __init__(self, directory: Path, frame_range: range | None = None):
        self.directory = directory
        self.frame_range = frame_range
        directory.mkdir(parents=True, exist_ok=True)

    def __call__(self, loop_index: int, frame, info: dict) -> None:
        if self.frame_range is not None and loop_index not in self.frame_range:
            return
        write_pgm(self.directory / f"frame_{loop_index:04d}.pgm", frame.pixels)
        write_pgm(self.directory / f"overlay_{loop_index:04d}.pgm", _burn_overlay(frame.pixels, info))
        (self.directory / f"frame_{loop_index:04d}.txt").write_text(_sidecar_text(loop_index, info))


def _require_full_perception(suite: SuiteSpec) -> None:
    if suite.episode.use_oracle_perception:
        raise ConfigError("frame dumping needs full perception (oracle_perception = false)")


def run_suite(suite: SuiteSpec, dump_frames: Path | None = None) -> list[TaskResult]:
    """Run every task x seed episode and write logs plus both summaries."""
    if dump_frames is not None:
        _require_full_perception(suite)
    episodes_dir = suite.outdir / "episodes"
    episodes_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for task in suite.tasks:
        reports = []
        for seed in task.seeds:
            sink = None
            if dump_frames is not None:
                sink = _FrameDumper(dump_frames / f"{task.name}-seed{seed}")
            report = run_episode(
                suite.tree, task.start, task.dest, seed=seed, config=suite.episode, frame_sink=sink
            )
            reports.append(report)
            log_path = episodes_dir / f"{task.name}-seed{seed}.log"
            log_path.write_text(_episode_log(task, seed, report))
        results.append(TaskResult(task, reports))
    (suite.outdir / "summary.txt").write_text(_summary_text(suite, results))
    (suite.outdir / "summary.json").write_text(_summary_json(suite, results))
    return results


def dump_scene(suite: SuiteSpec, task_name: str, frame_range: range, seed: int | None = None) -> Path:
    """Render one episode of one task and dump the frames in range."""
    matches = [t for t in suite.tasks if t.name == task_name]
    if not matches:
        raise ConfigError(f"no task named {task_name!r} in the suite")
    task = matches[0]
    _require_full_perception(suite)
    seed = task.seeds[0] if seed is None else seed
    if seed < 0:
        raise ConfigError(f"seed {seed} is negative")
    directory = suite.outdir / "frames" / f"{task.name}-seed{seed}"
    dumper = _FrameDumper(directory, frame_range)
    run_episode(suite.tree, task.start, task.dest, seed=seed, config=suite.episode, frame_sink=dumper)
    return directory


def standard_config_text(oracle: bool = True) -> str:
    """Config for the standard five-task suite on the built-in phantom."""
    perception = "true" if oracle else "false"
    return f"""\
[suite]
name = standard
seeds = 0,1,2,3,4
outdir = runs/standard

[phantom]
seed = 11

[camera]
focal_px = 2500
width = 512
height = 512
pixel_size_mm = 0.30
view_depth_mm = 820

[noise]
translation_jitter = 0.1
rotation_failure = 0.1
imaging = none

[navigator]
reach_threshold_mm = 3.0
replan_after_misses = 6
burst_low = 8
burst_high = 12
back_step = 10

[solver]
spacing_mm = 0.5
oracle_perception = {perception}
max_loops = 500

[task:t1]
start = 0:20
dest = 7:25

[task:t2]
start = 0:20
dest = 8:33

[task:t3]
start = 0:20
dest = 9:28

[task:t4]
start = 0:20
dest = 10:30

[task:t5]
start = 0:20
dest = 11:33
"""


def _parse_frame_range(text: str) -> range:
    try:
        lo, _, hi = text.partition(":")
        frame_range = range(int(lo), int(hi))
    except ValueError:
        raise ConfigError(f"frame range {text!r} is not lo:hi") from None
    if frame_range.start < 0 or len(frame_range) == 0:
        raise ConfigError(f"frame range {text!r} is empty or negative")
    return frame_range


def _parse_tip_seed(text: str | None) -> tuple[float, float] | None:
    if text is None:
        return None
    try:
        x, _, y = text.partition(",")
        seed = (float(x), float(y))
    except ValueError:
        raise ConfigError(f"tip seed {text!r} is not x,y") from None
    if not np.isfinite(seed).all():
        raise ConfigError(f"tip seed {text!r} must be finite")
    return seed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="vesselnav", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a suite from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed-offset", type=int, default=0)
    run_p.add_argument("--dump-frames", default=None, help="also dump every rendered frame here")
    run_p.add_argument("--dest", default=None, help="override every task destination, branch:index")
    run_p.add_argument("--tip-seed", default=None, help="first-frame tracker seed, x,y pixels")
    run_p.add_argument("--map", default=None, help="override the map with a tree file")

    dump_p = sub.add_parser("dump", help="dump rendered frames for one task")
    dump_p.add_argument("--config", required=True)
    dump_p.add_argument("--task", required=True)
    dump_p.add_argument("--frames", required=True, help="half-open range lo:hi")
    dump_p.add_argument("--seed", type=int, default=None)
    dump_p.add_argument("--tip-seed", default=None, help="first-frame tracker seed, x,y pixels")
    dump_p.add_argument("--map", default=None, help="override the map with a tree file")

    init_p = sub.add_parser("init-config", help="write the standard suite config")
    init_p.add_argument("path")
    init_p.add_argument("--full-perception", action="store_true")

    args = parser.parse_args(argv)
    try:
        if args.command == "init-config":
            Path(args.path).write_text(standard_config_text(oracle=not args.full_perception))
            print(f"wrote {args.path}")
            return 0
        if args.command == "run":
            suite = parse_suite(
                args.config,
                seed_offset=args.seed_offset,
                dest_override=args.dest,
                tip_seed=_parse_tip_seed(args.tip_seed),
                map_override=args.map,
            )
            dump_dir = Path(args.dump_frames) if args.dump_frames else None
            results = run_suite(suite, dump_frames=dump_dir)
            total = sum(res.successes for res in results)
            trials = sum(len(res.reports) for res in results)
            print(f"suite {suite.name}: {total}/{trials} successes, output in {suite.outdir}")
            return 0
        suite = parse_suite(args.config, tip_seed=_parse_tip_seed(args.tip_seed), map_override=args.map)
        directory = dump_scene(suite, args.task, _parse_frame_range(args.frames), seed=args.seed)
        print(f"frames in {directory}")
        return 0
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err.strerror}: {err.filename}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
