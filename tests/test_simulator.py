"""Guidewire stepping checks on hand-built trees.

Expected trajectories are enumerated by hand on tiny unit-spaced trees, so
every assertion states the full body or tip address rather than a derived
summary. Random-stream alignment is checked against a twin generator that
draws the documented variates explicitly.
"""

import numpy as np
import pytest

from vesselnav.planning import advance_options
from vesselnav.simulator import (
    ActuationNoise,
    ControlCommand,
    GuidewireState,
    initial_wire,
    step,
    true_tip,
)
from vesselnav.vessel_model import Branch, PhantomSpec, VesselTree, generate_phantom, validate_tree


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


def wire_at(tree, tip, phase=0):
    return GuidewireState(initial_wire(tree, tip).body, rotation_phase=phase)


class TestStateBasics:
    def test_command_rotate_flag_validated(self):
        with pytest.raises(ValueError):
            ControlCommand(5.0, 2)
        with pytest.raises(ValueError):
            ControlCommand(5.0, -1)

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
        tree = y_tree()
        # The wire turns into attached branches at phase 0.
        assert advance_options(tree, (0, 1)) == [(1, 0), (0, 2)]

    def test_plain_point_and_leaf(self):
        tree = y_tree()
        assert advance_options(tree, (0, 2)) == [(0, 3)]
        assert advance_options(tree, (1, 2)) == []
        assert advance_options(tree, (0, 3)) == [(2, 0)]


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
