"""Guidewire stepping checks on hand-built trees.

Expected trajectories are enumerated by hand on tiny unit-spaced trees, so
every assertion states the full body or tip address rather than a derived
summary. Random-stream alignment is checked against a twin generator that
draws the documented variates explicitly. On generated phantoms and on a
tree with mid-branch children, step and the tree's address tables are
checked against the per-call walk they replaced (``simulator_reference.py``)
under random commands.
"""

import numpy as np
import pytest

from vesselnav.simulator import (
    ActuationNoise,
    ControlCommand,
    GuidewireState,
    initial_wire,
    step,
    true_tip,
)
from vesselnav.vessel_model import Branch, PhantomSpec, VesselTree, generate_phantom, validate_tree

from planning_reference import address_depth, parent_address
from simulator_reference import advance_options, reference_step


def _branch(positions, radius=1.5, parent=None, attach=None):
    return Branch(positions, np.full(len(positions), radius), parent, attach)


def y_tree():
    root = _branch([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])
    left = _branch([(1, 0, 0), (1, 1, 0), (1, 2, 0)], parent=0, attach=1)
    right = _branch([(3, 0, 0), (3, 0, 1)], parent=0, attach=3)
    root.child_links = [1, 2]
    tree = VesselTree({0: root, 1: left, 2: right}, root=0)
    validate_tree(tree)
    return tree


def chain_tree(n=50):
    tree = VesselTree({0: _branch([(i, 0, 0) for i in range(n)])}, root=0)
    validate_tree(tree)
    return tree


def mid_branch_tree():
    """Children attached mid-branch, two of them at one point, and a
    grandchild mid-child: generated phantoms attach only at branch ends, so
    their options never mix children with a continuation."""
    root = _branch([(i, 0, 0) for i in range(30)])
    kids = [(5, 1, 0), (5, -1, 0), (12, 0, 1), (29, 1, 1)]
    branches = {0: root}
    for cid, (at, dy, dz) in enumerate(kids, start=1):
        branches[cid] = _branch([(at, k * dy, k * dz) for k in range(8)], parent=0, attach=at)
    branches[5] = _branch([(12 + k, 0, 3) for k in range(6)], parent=3, attach=3)
    root.child_links = [2, 1, 3, 4]
    branches[3].child_links = [5]
    tree = VesselTree(branches, root=0)
    validate_tree(tree)
    return tree


def reference_trees():
    yield mid_branch_tree()
    yield y_tree()
    for seed in range(20):
        yield generate_phantom(PhantomSpec(), seed=500 + seed)


def wire_at(tree, tip, phase=0):
    return GuidewireState(initial_wire(tree, tip).body, rotation_phase=phase)


class TestStateBasics:
    def test_command_rotate_flag_validated(self):
        with pytest.raises(ValueError):
            ControlCommand(5.0, 2)
        with pytest.raises(ValueError):
            ControlCommand(5.0, -1)

    def test_command_translation_must_be_finite(self):
        for bad in (float("nan"), float("inf"), -float("inf"), np.float64("nan")):
            with pytest.raises(ValueError, match="finite"):
                ControlCommand(bad, 0)
        assert ControlCommand(-1e300, 1).translate == -1e300

    def test_empty_body_rejected(self):
        with pytest.raises(ValueError):
            GuidewireState(())

    def test_initial_wire_threads_route(self):
        tree = y_tree()
        wire = initial_wire(tree, (1, 1))
        assert wire.body == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert wire.tip == (1, 1)
        assert wire.rotation_phase == 0
        assert np.allclose(true_tip(tree, wire), [1, 1, 0])


class TestAdvanceOptions:
    def test_children_before_continuation(self):
        options = y_tree().address_graph().options
        # The wire turns into attached branches at phase 0.
        assert options[(0, 1)] == ((1, 0), (0, 2))

    def test_plain_point_and_leaf(self):
        options = y_tree().address_graph().options
        assert options[(0, 2)] == ((0, 3),)
        assert options[(1, 2)] == ()
        assert options[(0, 3)] == ((2, 0),)


class TestReferenceStep:
    """step against the per-call walk and list body it replaced."""

    def test_tables_match_the_per_call_walks(self):
        for tree in reference_trees():
            graph = tree.address_graph()
            _, addresses = tree.flat_points()
            assert set(graph.options) == set(addresses)
            for addr in addresses:
                assert list(graph.options[addr]) == advance_options(tree, addr)
                assert graph.parent[addr] == parent_address(tree, addr)
                assert graph.depth[addr] == address_depth(tree, addr)

    def test_random_commands_match_the_reference(self):
        cmd_rng = np.random.default_rng(2024)
        noises = [ActuationNoise(), ActuationNoise(0.0, 0.0), ActuationNoise(1.0, 0.5)]
        kinds = {"past_leaf": 0, "past_insertion": 0, "zero": 0, "rotate_on": 0, "rotate_off": 0}
        for seed, tree in enumerate(reference_trees()):
            _, addresses = tree.flat_points()
            start = addresses[int(cmd_rng.integers(len(addresses)))]
            wire = ref = initial_wire(tree, start)
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            for k in range(60):
                # Long strokes run past leaves and back past the insertion
                # point; zero and short strokes keep the wire moving locally.
                translate = float([0, 1, 3, 12, 60, 400][int(cmd_rng.integers(6))])
                if cmd_rng.random() < 0.45:
                    translate = -translate
                cmd = ControlCommand(translate, int(cmd_rng.integers(2)))
                noise = noises[k % len(noises)]
                wire = step(tree, wire, cmd, rng, noise)
                ref = reference_step(tree, ref, cmd, twin, noise)
                assert wire == ref
                assert type(wire.body) is tuple
                assert rng.bit_generator.state == twin.bit_generator.state
                kinds["past_leaf"] += not tree.address_graph().options[wire.tip] and translate > 0
                kinds["past_insertion"] += wire.body == ((0, 0),) and translate < 0
                kinds["zero"] += translate == 0
                kinds["rotate_on" if cmd.rotate else "rotate_off"] += 1
        assert all(kinds.values()), kinds


class TestStepMotion:
    def test_translation_consumes_whole_steps(self):
        tree = chain_tree()
        wire = wire_at(tree, (0, 5))
        rng = np.random.default_rng(0)
        out = step(tree, wire, ControlCommand(3.0, 0), rng, ActuationNoise(0.0, 0.0))
        assert out.tip == (0, 8)
        assert len(out.body) == len(wire.body) + 3
        out = step(tree, out, ControlCommand(0.4, 0), rng, ActuationNoise(0.0, 0.0))
        assert out.tip == (0, 8)

    def test_sub_epsilon_shortfall_still_counts(self):
        tree = chain_tree()
        wire = wire_at(tree, (0, 5))
        rng = np.random.default_rng(0)
        out = step(tree, wire, ControlCommand(2.999999999999, 0), rng, ActuationNoise(0.0, 0.0))
        assert out.tip == (0, 8)

    def test_retraction_pops_and_clamps(self):
        tree = chain_tree()
        wire = wire_at(tree, (0, 3))
        rng = np.random.default_rng(0)
        out = step(tree, wire, ControlCommand(-2.0, 0), rng, ActuationNoise(0.0, 0.0))
        assert out.body == ((0, 0), (0, 1))
        out = step(tree, out, ControlCommand(-10.0, 0), rng, ActuationNoise(0.0, 0.0))
        assert out.body == ((0, 0),)
        out = step(tree, out, ControlCommand(-10.0, 0), rng, ActuationNoise(0.0, 0.0))
        assert out.body == ((0, 0),)

    def test_leaf_pins_forward_motion(self):
        tree = y_tree()
        wire = wire_at(tree, (1, 2))
        rng = np.random.default_rng(0)
        out = step(tree, wire, ControlCommand(5.0, 0), rng, ActuationNoise(0.0, 0.0))
        assert out.body == wire.body

    def test_junction_follows_phase_before_rotation(self):
        tree = y_tree()
        rng = np.random.default_rng(0)
        # Phase 0 turns into the attached branch even when the same command
        # also rotates: rotation lands after this step's translation.
        out = step(tree, wire_at(tree, (0, 0)), ControlCommand(2.0, 1), rng, ActuationNoise(0.0, 0.0))
        assert out.tip == (1, 0)
        assert out.rotation_phase == 1
        # Phase 1 keeps to the main branch through the same junction.
        out = step(tree, wire_at(tree, (0, 0), phase=1), ControlCommand(2.0, 0), rng, ActuationNoise(0.0, 0.0))
        assert out.tip == (0, 2)
        assert out.rotation_phase == 1

    def test_phase_wraps_by_option_count(self):
        tree = y_tree()
        rng = np.random.default_rng(0)
        out = step(tree, wire_at(tree, (0, 1), phase=2), ControlCommand(1.0, 0), rng, ActuationNoise(0.0, 0.0))
        assert out.tip == (1, 0)

    def test_jitter_overflow_to_infinity_moves_the_whole_way(self):
        # At seed 3 the default jitter factor carries a finite +-1.7e308
        # past the float range; the step is as long as any command that
        # outruns every path: to the leaf, or back to the insertion point.
        tree = generate_phantom(PhantomSpec(), seed=11)
        jitter = np.random.default_rng(3).standard_normal()
        assert np.isinf(1.7e308 * (1.0 + ActuationNoise().translation_jitter * jitter))
        for translate, tip, length in [(1.7e308, (7, 25), 105), (-1.7e308, (0, 0), 1)]:
            rng = np.random.default_rng(3)
            out = step(tree, initial_wire(tree, (0, 5)), ControlCommand(translate, 0), rng)
            assert out.tip == tip and len(out.body) == length
            twin = np.random.default_rng(3)
            twin.standard_normal()
            twin.random()
            assert rng.random() == twin.random()


class TestRandomStream:
    def test_two_variates_per_call_in_fixed_order(self):
        tree = y_tree()
        wire = wire_at(tree, (0, 2))
        commands = [ControlCommand(0.0, 0), ControlCommand(3.0, 1), ControlCommand(-2.0, 0)]
        for cmd in commands:
            lockstep = np.random.default_rng(99)
            twin = np.random.default_rng(99)
            step(tree, wire, cmd, lockstep)
            twin.normal(0.0, 1.0)
            twin.uniform()
            assert lockstep.uniform() == twin.uniform()

    def test_jitter_scales_translation(self):
        tree = chain_tree()
        wire = wire_at(tree, (0, 10))
        noise = ActuationNoise(translation_jitter=1.0, rotation_failure=0.0)
        rng = np.random.default_rng(123)
        out = step(tree, wire, ControlCommand(6.0, 0), rng, noise)
        z = np.random.default_rng(123).normal(0.0, 1.0)
        expected = int(abs(6.0 * (1.0 + z)) + 1e-9)
        assert len(out.body) - len(wire.body) == expected

    def test_rotation_failure_gates_phase(self):
        tree = chain_tree()
        wire = wire_at(tree, (0, 10))
        rng = np.random.default_rng(5)
        always_fail = ActuationNoise(translation_jitter=0.0, rotation_failure=1.0)
        out = step(tree, wire, ControlCommand(0.0, 1), rng, always_fail)
        assert out.rotation_phase == 0
        never_fail = ActuationNoise(translation_jitter=0.0, rotation_failure=0.0)
        out = step(tree, wire, ControlCommand(0.0, 1), rng, never_fail)
        assert out.rotation_phase == 1

    def test_trajectory_is_seed_deterministic(self):
        tree = generate_phantom(PhantomSpec(), seed=21)
        cmd_rng = np.random.default_rng(77)
        commands = [
            ControlCommand(float(cmd_rng.integers(-12, 13)), int(cmd_rng.integers(0, 2)))
            for _ in range(50)
        ]

        def run():
            rng = np.random.default_rng(1234)
            wire = initial_wire(tree, (0, 5))
            trace = []
            for cmd in commands:
                wire = step(tree, wire, cmd, rng)
                trace.append((wire.tip, wire.rotation_phase, len(wire.body)))
            return trace

        assert run() == run()
