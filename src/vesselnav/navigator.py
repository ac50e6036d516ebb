"""Sequential navigation strategy, the two tip estimators, and the episode loop.

The controller is a trial-and-error scheme over the planned route. It first
backs the wire up until the tip leaves the current route, replans from where
it actually is, then advances in bursts: straight bursts while the tip stays
on the route, rotate-and-retreat bursts when it strays, and a full replan
after too many consecutive misses. One command is issued per control loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import CameraModel, Pose, project_points
from .lifting import OffVesselError, lift
from .perception import (
    FluoroFrame,
    FrameRenderer,
    NoiseSpec,
    TrackedEndpoint,
    endpoint_candidates,
    frame_view_pose,
    segment_layers,
    skeleton_points,
    thin,
    track,
)
from .planning import Address, on_path, plan
from .registration import (
    RegistrationProblem,
    RegistrationState,
    reprojection_rmse,
    solve,
)
from .simulator import INSERTION, ActuationNoise, ControlCommand, GuidewireState, initial_wire, step, true_tip
from .vessel_model import VesselTree, resample_centerlines

# The wire's proximal end is a skeleton endpoint too, parked forever at the
# insertion point; candidates this close to that known landmark are discarded
# so the tracker cannot lock onto it.
INTRODUCER_MASK_PX = 6.0


@dataclass(frozen=True)
class NavigatorParams:
    reach_threshold_mm: float = 3.0
    replan_after_misses: int = 6
    burst_low: int = 8
    burst_high: int = 12
    back_step: int = 10

    def __post_init__(self) -> None:
        if self.burst_low > self.burst_high:
            raise ValueError("burst range is inverted")
        if self.burst_high >= 2**63:
            raise ValueError("burst_high must be below 2**63, the bound of the burst draw")
        if self.back_step <= 0 or not (np.isfinite(self.reach_threshold_mm) and self.reach_threshold_mm > 0):
            raise ValueError("back_step and reach_threshold_mm must be positive and finite")
        if self.burst_low < 1 or self.replan_after_misses < 0:
            raise ValueError("burst_low must be at least 1 and replan_after_misses non-negative")


class Navigator:
    """One instance per episode; decide() issues one command per control loop."""

    def __init__(
        self,
        tree: VesselTree,
        start: Address,
        dest: Address,
        params: NavigatorParams | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.tree = tree
        self.dest = tuple(dest)
        self.dest_position = tree.position(dest)
        self.params = params or NavigatorParams()
        self.rng = rng or np.random.default_rng(0)
        self.route = plan(tree, start, dest)
        # on_path checks membership in this set instead of scanning the route.
        self.route_set = frozenset(self.route)
        self.flag_back = True
        self.on_path_last = True
        self.miss_count = 0
        self.replans = 0
        # Estimated tip after the previous backward command; an unchanged
        # address on the next backward decision means the wire is pinned at
        # the insertion stop and cannot leave the route by retracting.
        self._last_back_addr: Address | None = None

    def reached(self, tip_position: np.ndarray) -> bool:
        d = tip_position - self.dest_position
        return math.sqrt(d.dot(d)) <= self.params.reach_threshold_mm

    def decide(self, tip_address: Address, tip_position: np.ndarray) -> ControlCommand | None:
        """One control decision; None once the tip is within reach of the target."""
        if self.reached(tip_position):
            return None
        p = self.params
        if self.flag_back:
            tip_on = on_path(self.route_set, tip_address)
            pinned = self._last_back_addr is not None and tuple(tip_address) == self._last_back_addr
            if tip_on and not pinned:
                cmd = ControlCommand(-float(p.back_step), 0)
                self._last_back_addr = tuple(tip_address)
            else:
                cmd = ControlCommand(float(p.back_step), 0)
                self.flag_back = False
                self._replan(tip_address)
                self._last_back_addr = None
        else:
            self._last_back_addr = None
            c = float(self.rng.integers(p.burst_low, p.burst_high + 1))
            if self.miss_count > p.replan_after_misses:
                self._replan(tip_address)
                self.miss_count = 0
                self.flag_back = True
            tip_on = on_path(self.route_set, tip_address)
            if tip_on:
                self.miss_count = 0
                if self.on_path_last:
                    cmd = ControlCommand(c, 0)
                else:
                    cmd = ControlCommand(c, 1)
            else:
                cmd = ControlCommand(-c, 1)
                self.miss_count += 1
        self.on_path_last = tip_on
        return cmd

    def _replan(self, tip_address: Address) -> None:
        self.route = plan(self.tree, tip_address, self.dest)
        self.route_set = frozenset(self.route)
        self.replans += 1


@dataclass(frozen=True)
class EpisodeConfig:
    """One episode's settings. ``max_loops``, ``spacing_mm`` (the registration
    model's point spacing) and ``oracle_perception`` are ``[solver]`` keys and
    ``view_depth_mm`` a ``[camera]`` key; the other fields are built from
    ``[noise]``, ``[navigator]`` and ``[camera]``."""

    max_loops: int = 500
    spacing_mm: float = 0.5
    oracle_perception: bool = False
    actuation_noise: ActuationNoise = ActuationNoise()
    imaging_noise: NoiseSpec | None = None
    params: NavigatorParams = NavigatorParams()
    view_depth_mm: float = 820.0
    camera: CameraModel = field(default_factory=CameraModel.standard)

    def __post_init__(self) -> None:
        if not self.spacing_mm > 0.0:
            raise ValueError(f"spacing_mm = {self.spacing_mm!r} must be positive")
        if self.max_loops < 1:
            raise ValueError(f"max_loops = {self.max_loops} must be at least 1")


@dataclass(frozen=True)
class LoopRecord:
    loop_index: int
    command: ControlCommand
    true_address: Address
    estimated_address: Address
    tip_error_mm: float
    on_route: bool
    registration_rmse_px: float
    lift_pixel_error: float
    tip_pixel_px: tuple[float, float] | None = None


@dataclass
class EpisodeReport:
    start: Address
    dest: Address
    success: bool
    loops: int
    replans: int = 0
    records: list[LoopRecord] = field(default_factory=list)

    def mean_tip_error_mm(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.tip_error_mm for r in self.records]))


class TipEstimate(NamedTuple):
    """One loop's tip estimate, what its LoopRecord logs, and what the frame sink shows."""

    address: Address
    position: np.ndarray
    rmse_px: float = 0.0
    lift_error_px: float = 0.0
    tip_px: tuple[float, float] | None = None
    frame: FluoroFrame | None = None
    pose_world: Pose | None = None


class OracleEstimator:
    """The simulated wire's true tip, as if perception were perfect."""

    def __init__(self, tree: VesselTree):
        self.tree = tree

    def estimate(self, wire: GuidewireState) -> TipEstimate:
        return TipEstimate(wire.tip, true_tip(self.tree, wire))


class PerceptionScene(NamedTuple):
    """What every full-perception episode on one tree and view shares: a pure
    function of the tree, camera, view depth and model spacing, which the tree
    keeps in one slot keyed by those values (``VesselTree.scene``). Its arrays
    are read-only; ``row_of`` maps each address to its row of ``rows``, the
    tree's ``flat_points()``, and ``base_problem`` is bound to no frame."""

    view: Pose
    renderer: FrameRenderer
    rows: np.ndarray
    row_of: dict[Address, int]
    model: VesselTree
    base_problem: RegistrationProblem
    reference_px: np.ndarray
    introducer_px: np.ndarray

    @staticmethod
    def build(tree: VesselTree, cam: CameraModel, depth_mm: float, spacing_mm: float) -> "PerceptionScene":
        view = frame_view_pose(tree, depth_mm=depth_mm)
        renderer = FrameRenderer(tree, view, cam)
        rows, addresses = tree.flat_points()
        model = resample_centerlines(tree, spacing_mm)
        base = RegistrationProblem.from_tree(model, cam, view)
        reference_px, _ = project_points(base.points3, base.pose_from_world(view), cam)
        introducer_px = project_points(tree.position(INSERTION), view, cam)[0][0]
        for shared in (base.points3, reference_px, introducer_px):
            shared.flags.writeable = False
        row_of = {a: i for i, a in enumerate(addresses)}
        return PerceptionScene(view, renderer, rows, row_of, model, base, reference_px, introducer_px)


class PerceptionEstimator:
    """Tip estimates from the rendered frames alone; the wire's tip is never read.

    It holds one episode's state over the tree's shared ``scene``. The tracker
    starts at the projected ``start`` address, and a failed lift keeps the
    last estimate, which starts at ``start``. Frames are registered until a
    solve converges; later frames lift through that held pose."""

    def __init__(self, tree: VesselTree, start: Address, config: EpisodeConfig, rng: np.random.Generator):
        self.tree = tree
        self.scene = scene = tree.scene(PerceptionScene.build, config.camera, config.view_depth_mm, config.spacing_mm)
        self.imaging_noise = config.imaging_noise
        self.rng = rng
        # The last solve's problem (bound to its frame), state, registered
        # pose and RMSE; estimate() holds them once a solve converges.
        self.problem = scene.base_problem
        self.reg_state: RegistrationState | None = None
        self.pose_world = scene.view
        self.rmse = float("nan")
        self.tip_track = TrackedEndpoint(project_points(tree.position(start), scene.view, config.camera)[0][0], 1.0)
        # The last lifted tip breaks lift's near-ties; the last estimate is
        # what a failed lift reports.
        self.previous3: np.ndarray | None = None
        self.position = tree.position(start)

    def estimate(self, wire: GuidewireState) -> TipEstimate:
        scene = self.scene
        polyline = scene.rows[[scene.row_of[a] for a in wire.body]]
        frame = scene.renderer.render(polyline, noise=self.imaging_noise, seed=self.rng)
        vessel_mask, wire_mask, _, _ = segment_layers(frame)
        # Camera and tree are static: frames are registered, each solved
        # cold from the last registered pose, until a solve converges; every
        # later frame holds that pose.
        if self.reg_state is None or not self.reg_state.converged:
            q = skeleton_points(thin(vessel_mask))
            self.problem = scene.base_problem.with_frame(q, self.pose_world)
            self.reg_state = solve(self.problem)
            self.pose_world = self.problem.pose_to_world(self.reg_state.pose)
            self.rmse = reprojection_rmse(self.problem, self.reg_state, scene.reference_px)
        candidates = endpoint_candidates(thin(wire_mask))
        away = np.linalg.norm(candidates - scene.introducer_px, axis=1) > INTRODUCER_MASK_PX
        self.tip_track = track(candidates[away], self.tip_track)
        tip_px = (float(self.tip_track.position2[0]), float(self.tip_track.position2[1]))
        try:
            lifted = lift(self.problem, self.reg_state, self.tip_track.position2, previous3=self.previous3)
        except OffVesselError:
            address = nearest_tree_address(self.tree, self.position)
            lift_err = float("nan")
        else:
            address = model_to_tree_address(self.tree, scene.model, lifted.address)
            self.position = self.previous3 = lifted.position3
            lift_err = lifted.pixel_error
        return TipEstimate(address, self.position, self.rmse, lift_err, tip_px, frame, self.pose_world)


def run_episode(
    tree: VesselTree,
    start: Address,
    dest: Address,
    seed: int,
    config: EpisodeConfig | None = None,
    frame_sink=None,
) -> EpisodeReport:
    """Drive one navigation episode in closed loop.

    Each loop takes the tip from the episode's estimator, a
    PerceptionEstimator or, with oracle_perception, an OracleEstimator;
    the navigator decides on that estimate and the simulator steps. The true
    tip is read here only to score the estimate (``true_address``,
    ``tip_error_mm``) and for the frame sink's ``true_tip_px``.

    A single seeded generator drives, in fixed order per loop: the rendered
    frame's imaging noise (when there is any), then the navigator's burst
    draw (forward phase only; backing draws nothing), then the simulator's
    two actuation variates.

    ``frame_sink(loop_index, frame, info)`` is called once per rendered frame
    (full perception only) with the raster and a dict of overlay facts; it
    exists for artifact dumping and must not mutate either argument.
    """
    config = config or EpisodeConfig()
    rng = np.random.default_rng(seed)
    nav = Navigator(tree, start, dest, params=config.params, rng=rng)
    wire = initial_wire(tree, start)
    if config.oracle_perception:
        estimator = OracleEstimator(tree)
    else:
        estimator = PerceptionEstimator(tree, start, config, rng)

    report = EpisodeReport(start=tuple(start), dest=tuple(dest), success=False, loops=0)
    for loop_index in range(config.max_loops):
        est = estimator.estimate(wire)
        # An oracle estimate is the true tip itself.
        tip_pos_true = est.position if config.oracle_perception else true_tip(tree, wire)
        if frame_sink is not None and est.frame is not None:
            cam, scene = est.frame.cam, estimator.scene
            route_pts = scene.rows[[scene.row_of[a] for a in nav.route]]
            route_px, route_depth = project_points(route_pts, est.pose_world, cam)
            frame_sink(
                loop_index,
                est.frame,
                {
                    "true_tip_px": project_points(tip_pos_true, scene.view, cam)[0][0],
                    "lifted_tip_px": np.asarray(est.tip_px, dtype=float),
                    "lifted_tip_mm": np.asarray(est.position, dtype=float),
                    "registration_rmse_px": float(est.rmse_px),
                    "route_px": route_px[route_depth > 0],
                },
            )

        cmd = nav.decide(est.address, est.position)
        if cmd is None:
            report.success = True
            break
        miss = est.position - tip_pos_true
        report.records.append(
            LoopRecord(
                loop_index=loop_index,
                command=cmd,
                true_address=wire.tip,
                estimated_address=tuple(est.address),
                tip_error_mm=math.sqrt(miss.dot(miss)),
                on_route=on_path(nav.route_set, est.address),
                registration_rmse_px=est.rmse_px,
                lift_pixel_error=est.lift_error_px,
                tip_pixel_px=est.tip_px,
            )
        )
        report.loops += 1
        wire = step(tree, wire, cmd, rng, noise=config.actuation_noise)
    report.replans = nav.replans
    return report


def nearest_tree_address(tree: VesselTree, position3: np.ndarray) -> Address:
    _, i = tree.nearest_points(np.asarray(position3, dtype=float).reshape(1, 3))
    return tree.flat_points()[1][int(i[0])]


def model_to_tree_address(tree: VesselTree, model: VesselTree, model_address: Address) -> Address:
    """Map an address on the registration model back onto the control tree."""
    return nearest_tree_address(tree, model.position(model_address))
