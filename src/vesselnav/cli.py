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
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import CameraModel
from .navigator import EpisodeConfig, EpisodeReport, NavigatorParams, run_episode
from .perception import NoiseSpec, frame_view_pose
from .planning import AddressError, plan
from .simulator import ActuationNoise
from .vessel_model import PhantomSpec, TreeFormatError, VesselTree, deserialize_tree, generate_phantom

Address = tuple[int, int]

# Besides these, a config holds only [task:<name>] sections.
_SECTIONS = ("suite", "map", "phantom", "camera", "noise", "navigator", "solver")


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


def parse_address(text: str) -> Address:
    try:
        branch, _, index = text.strip().partition(":")
        return (int(branch), int(index))
    except ValueError:
        raise ConfigError(f"address {text!r} is not branch:index") from None


def _format_address(addr: Address) -> str:
    return f"{addr[0]}:{addr[1]}"


def _get(section, key, conv):
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
    """The keys among ``convs`` that the section sets, each converted by its
    ``conv``. Each key names the parameter or field it sets, whose owner holds
    its default and its range check, so ``cli`` keeps neither."""
    return {key: _get(section, key, conv) for key, conv in convs.items() if key in section}


def _build(section_name: str, factory, *args, **kwargs):
    """``factory(*args, **kwargs)``, its ValueError reported against the section."""
    try:
        return factory(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"[{section_name}] {err}") from None


def load_tree(cfg: configparser.ConfigParser) -> VesselTree:
    if cfg.has_section("map"):
        if "path" not in cfg["map"]:
            raise ConfigError("[map] needs a path key")
        path = Path(cfg["map"]["path"])
        if not path.exists():
            raise ConfigError(f"map file {path} does not exist")
        try:
            return deserialize_tree(path.read_bytes())
        except TreeFormatError as err:
            raise ConfigError(f"map file {path}: {err}") from None
    if cfg.has_section("phantom"):
        section = cfg["phantom"]
        if "seed" not in section:
            raise ConfigError("[phantom] needs a seed key")
        spec = _build("phantom", PhantomSpec, **_given(section, depth=int, branching=int, step_mm=float))
        return _build("phantom", generate_phantom, spec, **_given(section, seed=int))
    raise ConfigError("config needs a [phantom] or [map] section")


def _episode_config(cfg: configparser.ConfigParser) -> EpisodeConfig:
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
    # no imaging noise unless asked: the one [noise] default no dataclass holds
    imaging_kind = noise.get("imaging", "none").strip().lower()
    if imaging_kind == "none":
        if "imaging_std" in noise:
            raise ConfigError("[noise] imaging_std is set, but imaging = none adds no noise to scale")
        imaging = None
    elif imaging_kind == "gaussian":
        imaging = _build("noise", NoiseSpec, **_given(noise, imaging_std=float))
    else:
        raise ConfigError(f"[noise] imaging = {imaging_kind!r} is not none or gaussian")
    camera_section = cfg["camera"] if cfg.has_section("camera") else {}
    camera = _build("camera", CameraModel.standard, **_given(camera_section, focal_px=float, width=int, height=int))
    solver = cfg["solver"] if cfg.has_section("solver") else {}
    # EpisodeConfig checks only [solver] keys; frame_view_pose checks view_depth_mm
    return _build(
        "solver",
        EpisodeConfig,
        actuation_noise=actuation,
        imaging_noise=imaging,
        params=params,
        camera=camera,
        **_given(camera_section, view_depth_mm=float),
        **_given(solver, max_loops=int, spacing_mm=float, oracle_perception=bool),
    )


def parse_suite(config_path: str | Path, seed_offset: int = 0) -> SuiteSpec:
    """Read and validate a full suite; raises ConfigError before any episode
    has run when anything is unusable (fail fast)."""
    config_path = Path(config_path)
    if not config_path.exists():
        raise ConfigError(f"config file {config_path} does not exist")
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cfg.read_string(config_path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as err:
        raise ConfigError(f"config file {config_path} is not UTF-8 text: {err.reason} at byte {err.start}") from None
    except configparser.Error as err:
        raise ConfigError(f"config does not parse: {err}") from None
    for section_name in cfg.sections():
        if section_name not in _SECTIONS and not section_name.startswith("task:"):
            raise ConfigError(f"[{section_name}] is not a known section ({', '.join(_SECTIONS)} or task:<name>)")

    tree = load_tree(cfg)
    suite_section = cfg["suite"] if cfg.has_section("suite") else {}
    name = suite_section.get("name", "suite")
    default_seeds = _parse_seeds(suite_section.get("seeds", "0"))
    outdir = Path(suite_section.get("outdir", f"runs/{name}"))

    tasks = []
    for section_name in cfg.sections():
        if not section_name.startswith("task:"):
            continue
        section = cfg[section_name]
        task_name = section_name.split(":", 1)[1]
        # the name is a file name prefix under episodes/ and the frame directory
        if task_name in ("", ".", "..") or Path(task_name).name != task_name:
            raise ConfigError(f"[{section_name}] task name {task_name!r} is not a single path component")
        if "start" not in section or "dest" not in section:
            raise ConfigError(f"[{section_name}] needs start and dest keys")
        start = parse_address(section["start"])
        dest = parse_address(section["dest"])
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

    episode = _episode_config(cfg)
    _build("camera", frame_view_pose, tree, episode.view_depth_mm)
    return SuiteSpec(name, tree, tuple(tasks), episode, outdir)


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"seed list {text!r} is not a list of integers") from None
    if not seeds:
        raise ConfigError("seed list is empty")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"seed list {text!r} repeats a seed")
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


def _task_summary(task: TaskSpec, reports: list[EpisodeReport]) -> dict:
    """A task's ``summary.json`` row; loop statistics cover its successes."""
    loops = [r.loops for r in reports if r.success]
    mean = std = None
    if loops:
        mean = float(np.mean(loops))
        std = float(np.std(loops, ddof=1)) if len(loops) > 1 else 0.0
    return {
        "name": task.name,
        "start": list(task.start),
        "dest": list(task.dest),
        "seeds": list(task.seeds),
        "successes": len(loops),
        "trials": len(reports),
        "loops": [r.loops for r in reports],
        "loops_mean": mean,
        "loops_std": std,
    }


def _summary_text(summary: dict) -> str:
    header = ["task", "start", "dest", "success", "loops_mean", "loops_std"]
    rows = [header]
    for task in summary["tasks"]:
        rows.append(
            [
                task["name"],
                _format_address(task["start"]),
                _format_address(task["dest"]),
                f"{task['successes']}/{task['trials']}",
                _fmt(task["loops_mean"]),
                _fmt(task["loops_std"]),
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = [f"suite {summary['suite']}"]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    lines.append(f"total {summary['total_successes']}/{summary['total_trials']}")
    return "\n".join(lines) + "\n"


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

    def __init__(self, directory: Path):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)

    def __call__(self, loop_index: int, frame, info: dict) -> None:
        write_pgm(self.directory / f"frame_{loop_index:04d}.pgm", frame.pixels)
        write_pgm(self.directory / f"overlay_{loop_index:04d}.pgm", _burn_overlay(frame.pixels, info))
        (self.directory / f"frame_{loop_index:04d}.txt").write_text(_sidecar_text(loop_index, info))


def run_suite(suite: SuiteSpec, dump_frames: Path | None = None) -> dict:
    """Run every task x seed episode, write logs plus both summaries, and
    return the summary that ``summary.json`` holds."""
    if dump_frames is not None:
        if suite.episode.oracle_perception:
            raise ConfigError("frame dumping needs full perception (oracle_perception = false)")
        # an unusable dump root fails here, before the outdir exists; one that
        # holds files would mix an earlier run's frames with this run's logs
        dump_frames.mkdir(parents=True, exist_ok=True)
        if any(dump_frames.iterdir()):
            raise ConfigError(f"--dump-frames directory {dump_frames} is not empty")
    episodes_dir = suite.outdir / "episodes"
    episodes_dir.mkdir(parents=True, exist_ok=True)
    rows = []
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
        rows.append(_task_summary(task, reports))
    summary = {
        "suite": suite.name,
        "tasks": rows,
        "total_successes": sum(row["successes"] for row in rows),
        "total_trials": sum(row["trials"] for row in rows),
    }
    (suite.outdir / "summary.txt").write_text(_summary_text(summary))
    (suite.outdir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="vesselnav", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a suite from a config file")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--seed-offset", type=int, default=0)
    run_p.add_argument(
        "--dump-frames", default=None, help="also dump every rendered frame into this new or empty directory"
    )

    init_p = sub.add_parser("init-config", help="write the standard suite config")
    init_p.add_argument("path")
    init_p.add_argument("--full-perception", action="store_true")

    args = parser.parse_args(argv)
    try:
        if args.command == "init-config":
            Path(args.path).write_text(standard_config_text(oracle=not args.full_perception))
            print(f"wrote {args.path}")
            return 0
        suite = parse_suite(args.config, seed_offset=args.seed_offset)
        dump_dir = Path(args.dump_frames) if args.dump_frames else None
        summary = run_suite(suite, dump_frames=dump_dir)
        total = f"{summary['total_successes']}/{summary['total_trials']}"
        print(f"suite {suite.name}: {total} successes, output in {suite.outdir}")
        return 0
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err.strerror}: {err.filename}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
