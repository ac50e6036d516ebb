"""The benchmark's workloads and the suite configs it generates for them.

The config text is written out here rather than taken from
``vesselnav.cli.standard_config_text`` so that a change to the program's
built-in config cannot silently change the benchmark's inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

# The standard five-task suite on phantom 11: every task starts at 0:20.
STANDARD_TASKS = (
    ("t1", "0:20", "7:25"),
    ("t2", "0:20", "8:33"),
    ("t3", "0:20", "9:28"),
    ("t4", "0:20", "10:30"),
    ("t5", "0:20", "11:33"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    oracle: bool
    # Config lines of the [noise] section that select the imaging noise.
    imaging: str
    seeds_per_task: int
    # Control loops per episode. A full-perception frame costs about a second
    # at the seed, so a perception episode (13-30 loops) does not fit in one
    # benchmark run; those workloads run the first ``max_loops`` loops of each
    # task (a window) instead of whole episodes.
    max_loops: int

    def __post_init__(self) -> None:
        # Loop latency is the interval between frames of one episode.
        if self.max_loops < 2:
            raise ValueError("a workload needs at least two loops per episode")

    @property
    def windowed(self) -> bool:
        return not self.oracle

    def config_text(self) -> str:
        seeds = ",".join(str(s) for s in range(self.seeds_per_task))
        tasks = "\n".join(
            f"[task:{name}]\nstart = {start}\ndest = {dest}\n" for name, start, dest in STANDARD_TASKS
        )
        return f"""\
[suite]
name = {self.name}
seeds = {seeds}
outdir = runs/{self.name}

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
{self.imaging}

[navigator]
reach_threshold_mm = 3.0
replan_after_misses = 6
burst_low = 8
burst_high = 12
back_step = 10

[solver]
spacing_mm = 0.5
oracle_perception = {"true" if self.oracle else "false"}
max_loops = {self.max_loops}

{tasks}"""

    def seed_offset(self, seed: int) -> int:
        """Episode-seed shift for a workload seed; seeds of different workload
        seeds never overlap."""
        return seed * self.seeds_per_task


PERCEPTION_WINDOW = 6

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="oracle_suite",
            why="oracle perception, 5000 episodes: only planning, navigator and simulator"
            " run, so a registration or perception change must leave it unchanged",
            oracle=True,
            imaging="imaging = none",
            seeds_per_task=1000,
            max_loops=500,
        ),
        Workload(
            name="perception_clean",
            why="full perception on clean frames: registration is about 97% of"
            " each loop and the static vessel mask hits the thinning cache",
            oracle=False,
            imaging="imaging = none",
            seeds_per_task=1,
            max_loops=PERCEPTION_WINDOW,
        ),
        Workload(
            name="perception_noisy",
            why="full perception with Gaussian imaging noise: masks change every frame,"
            " so thinning misses its cache and speckle loads tracking and lifting",
            oracle=False,
            imaging="imaging = gaussian\nimaging_std = 10",
            seeds_per_task=1,
            max_loops=PERCEPTION_WINDOW,
        ),
    )
}
