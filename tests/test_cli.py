"""Suite runner checks: parsing, fail-fast, outputs, and determinism.

File contents are compared byte for byte where the runner promises
reproducibility, and summary statistics are recomputed from the episode logs
they claim to aggregate.
"""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from vesselnav.cli import (
    ConfigError,
    main,
    parse_address,
    parse_suite,
    run_suite,
    standard_config_text,
    write_pgm,
)
from vesselnav.navigator import EpisodeConfig
from vesselnav.vessel_model import PhantomSpec, generate_phantom

from tree_text import serialize_tree

ORACLE_SMALL = """\
[suite]
name = small
seeds = 0,1
outdir = {outdir}

[phantom]
seed = 11

[solver]
oracle_perception = true

[task:a]
start = 0:20
dest = 7:25

[task:b]
start = 0:20
dest = 8:33
"""

FULL_TINY = """\
[suite]
name = tiny
seeds = 0
outdir = {outdir}

[phantom]
seed = 11

[solver]
oracle_perception = false
max_loops = 3

[task:t1]
start = 0:20
dest = 7:25
"""


def write_config(tmp_path, text, name="suite.ini"):
    path = tmp_path / name
    path.write_text(text.format(outdir=tmp_path / "out"))
    return path


def assert_same_episode_config(got, want):
    for f in dataclasses.fields(EpisodeConfig):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "camera":
            # dataclass == on the intrinsics array would raise
            assert np.array_equal(a.intrinsics, b.intrinsics) and a.image_size == b.image_size
        else:
            assert type(a) is type(b) and a == b, f.name


class TestParsing:
    def test_address_syntax(self):
        assert parse_address("7:25") == (7, 25)
        with pytest.raises(ConfigError):
            parse_address("7-25")
        with pytest.raises(ConfigError):
            parse_address("7:x")

    def test_standard_config_parses(self, tmp_path):
        path = tmp_path / "std.ini"
        path.write_text(standard_config_text())
        suite = parse_suite(path)
        assert suite.name == "standard"
        assert len(suite.tasks) == 5
        assert all(t.seeds == (0, 1, 2, 3, 4) for t in suite.tasks)
        assert suite.episode.oracle_perception

    def test_unset_keys_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "bare.ini"
        path.write_text("[phantom]\nseed = 11\n\n[task:t1]\nstart = 0:20\ndest = 7:25\n")
        suite = parse_suite(path)
        assert_same_episode_config(suite.episode, EpisodeConfig())
        assert serialize_tree(suite.tree) == serialize_tree(generate_phantom(PhantomSpec(), seed=11))
        assert (suite.name, suite.tasks[0].seeds, suite.outdir) == ("suite", (0,), Path("runs/suite"))

    @pytest.mark.parametrize("oracle", [True, False])
    def test_standard_config_sets_only_the_perception_flag(self, tmp_path, oracle):
        path = tmp_path / "std.ini"
        path.write_text(standard_config_text(oracle))
        suite = parse_suite(path)
        assert_same_episode_config(suite.episode, EpisodeConfig(oracle_perception=oracle))
        assert serialize_tree(suite.tree) == serialize_tree(generate_phantom(PhantomSpec(), seed=11))

    def test_unknown_address_fails_before_running(self, tmp_path):
        bad = ORACLE_SMALL.replace("dest = 8:33", "dest = 99:0")
        path = write_config(tmp_path, bad)
        with pytest.raises(ConfigError, match=r"99"):
            parse_suite(path)
        assert not (tmp_path / "out").exists()

    def test_garbage_and_missing_sections_fail(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("not an ini at all [")
        with pytest.raises(ConfigError):
            parse_suite(path)
        path.write_text("[suite]\nname = empty\n")
        with pytest.raises(ConfigError):
            parse_suite(path)

    def test_seed_offset_shifts_every_seed(self, tmp_path):
        path = write_config(tmp_path, ORACLE_SMALL)
        suite = parse_suite(path, seed_offset=10)
        assert all(t.seeds == (10, 11) for t in suite.tasks)

    def test_map_section_beats_phantom_section(self, tmp_path):
        other = generate_phantom(PhantomSpec(), seed=77)
        map_path = tmp_path / "other.vtree"
        map_path.write_bytes(serialize_tree(other))
        config = ORACLE_SMALL.replace("dest = 7:25", "dest = 0:5").replace("dest = 8:33", "dest = 0:5").replace("start = 0:20", "start = 0:0")
        path = write_config(tmp_path, config + f"\n[map]\npath = {map_path}\n")
        suite = parse_suite(path)
        assert len(suite.tree.flat_points()[0]) == len(other.flat_points()[0])


class TestRunSuite:
    def test_oracle_suite_outputs(self, tmp_path):
        suite = parse_suite(write_config(tmp_path, ORACLE_SMALL))
        returned = run_suite(suite)
        assert [task["successes"] for task in returned["tasks"]] == [2, 2]
        out = tmp_path / "out"
        logs = sorted(p.name for p in (out / "episodes").iterdir())
        assert logs == ["a-seed0.log", "a-seed1.log", "b-seed0.log", "b-seed1.log"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_successes"] == 4
        assert summary["total_trials"] == 4
        assert returned == summary

    def test_trivial_task_zero_loops(self, tmp_path):
        config = ORACLE_SMALL.replace("dest = 7:25", "dest = 0:20").replace(
            "dest = 8:33", "dest = 0:20"
        )
        suite = parse_suite(write_config(tmp_path, config))
        for task in run_suite(suite)["tasks"]:
            assert task["successes"] == 2
            assert task["loops_mean"] == 0.0
            assert task["loops_std"] == 0.0

    def test_summary_recomputable_from_logs(self, tmp_path):
        suite = parse_suite(write_config(tmp_path, ORACLE_SMALL))
        run_suite(suite)
        out = tmp_path / "out"
        summary = json.loads((out / "summary.json").read_text())
        for task in summary["tasks"]:
            loops = []
            for seed in task["seeds"]:
                log = (out / "episodes" / f"{task['name']}-seed{seed}.log").read_text()
                result = re.search(r"result success=(\w+) loops=(\d+)", log)
                if result.group(1) == "True":
                    loops.append(int(result.group(2)))
            assert task["loops"] == [
                int(re.search(r"loops=(\d+)", (out / "episodes" / f"{task['name']}-seed{s}.log").read_text()).group(1))
                for s in task["seeds"]
            ]
            assert abs(task["loops_mean"] - float(np.mean(loops))) < 1e-12
            expected_std = 0.0 if len(loops) < 2 else float(np.std(loops, ddof=1))
            assert abs(task["loops_std"] - expected_std) < 1e-12

    def test_oracle_rerun_byte_identical(self, tmp_path):
        path = write_config(tmp_path, ORACLE_SMALL)
        suite = parse_suite(path)
        run_suite(suite)
        out = tmp_path / "out"
        first = {p.name: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        run_suite(parse_suite(path))
        second = {p.name: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        assert first == second

    def test_summary_of_no_one_and_two_successes(self, tmp_path, capsys):
        # At max_loops = 20 both seeds of "none" run out of loops (29 and 26
        # loops when uncut), one seed of "one" does (28; the other takes 17),
        # and both seeds of "two" finish (11 and 12).
        config = """\
[suite]
name = mixed
outdir = {outdir}

[phantom]
seed = 11

[solver]
oracle_perception = true
max_loops = 20

[task:none]
start = 0:20
dest = 11:33
seeds = 1,2

[task:one]
start = 0:20
dest = 7:25
seeds = 0,2

[task:two]
start = 0:20
dest = 10:30
seeds = 0,1
"""
        assert main(["run", "--config", str(write_config(tmp_path, config))]) == 0
        out = tmp_path / "out"
        assert capsys.readouterr().out == f"suite mixed: 3/6 successes, output in {out}\n"
        std = float(np.std([11, 12], ddof=1))
        summary = json.loads((out / "summary.json").read_text())
        keys = ("successes", "trials", "loops", "loops_mean", "loops_std")
        got = {t["name"]: tuple(t[k] for k in keys) for t in summary["tasks"]}
        assert got == {
            "none": (0, 2, [20, 20], None, None),
            "one": (1, 2, [20, 17], 17.0, 0.0),
            "two": (2, 2, [11, 12], 11.5, std),
        }
        assert (summary["total_successes"], summary["total_trials"]) == (3, 6)
        lines = (out / "summary.txt").read_text().splitlines()
        assert lines[0] == "suite mixed" and lines[-1] == "total 3/6"
        assert lines[1].split() == ["task", "start", "dest", "success", "loops_mean", "loops_std"]
        assert [line.split() for line in lines[2:-1]] == [
            ["none", "0:20", "11:33", "0/2", "-", "-"],
            ["one", "0:20", "7:25", "1/2", "17.0", "0.0"],
            ["two", "0:20", "10:30", "2/2", "11.5", repr(std)],
        ]

    def test_unsuccessful_episode_is_data_not_error(self, tmp_path):
        config = ORACLE_SMALL.replace("[solver]", "[solver]\nmax_loops = 1")
        suite = parse_suite(write_config(tmp_path, config))
        assert all(task["successes"] == 0 for task in run_suite(suite)["tasks"])
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "0/2" in summary
        assert summary.endswith("total 0/4\n")


class TestFullPerception:
    def test_rerun_byte_identical_with_frames(self, tmp_path):
        path = write_config(tmp_path, FULL_TINY)

        def run_once(tag):
            dump = tmp_path / f"dump-{tag}"
            run_suite(parse_suite(path), dump_frames=dump)
            files = {}
            for p in sorted((tmp_path / "out").rglob("*")) + sorted(dump.rglob("*")):
                if p.is_file():
                    files[str(p.relative_to(tmp_path)).replace(tag, "X")] = p.read_bytes()
            return files

        assert run_once("one") == run_once("two")

    def test_sidecar_tip_matches_episode_log(self, tmp_path):
        path = write_config(tmp_path, FULL_TINY)
        dump = tmp_path / "dump"
        run_suite(parse_suite(path), dump_frames=dump)
        log = (tmp_path / "out" / "episodes" / "t1-seed0.log").read_text()
        logged = dict(
            re.findall(r"loop=(\d+) .* tip_px=([-\d.,e]+)", log)
        )
        sidecars = sorted((dump / "t1-seed0").glob("frame_*.txt"))
        assert sidecars
        for sidecar in sidecars:
            text = sidecar.read_text()
            frame = re.search(r"frame (\d+)", text).group(1)
            x, y = re.search(r"lifted_tip_px (\S+) (\S+)", text).groups()
            assert logged[frame] == f"{x},{y}"


class TestMain:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        path = write_config(tmp_path, ORACLE_SMALL)
        assert main(["run", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "4/4" in out
        assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 2

    @pytest.mark.parametrize(
        "section, line, command",
        [
            ("camera", "focal_px = 0", ["run"]),
            ("camera", "focal_px = nan", ["run"]),
            ("camera", "view_depth_mm = 0", ["run"]),
            ("camera", "view_depth_mm = inf", ["run"]),
            ("navigator", "burst_low = 20", ["run"]),
            ("navigator", "back_step = 0", ["run"]),
            ("phantom", "depth = 0", ["run"]),
            ("solver", "spacing_mm = 0", ["run"]),
            ("solver", "max_loops = -1", ["run"]),
            ("noise", "imaging = gaussian\nimaging_std = -1", ["run"]),
            ("noise", "imaging_std = 10", ["run"]),
            ("noise", "imaging_std = abc", ["run"]),
            ("noise", "translation_jitter = nan", ["run"]),
            ("noise", "rotation_failure = nan", ["run"]),
            ("noise", "rotation_failure = 2.0", ["run"]),
            ("navigator", "reach_threshold_mm = nan", ["run"]),
            ("navigator", "burst_low = -3", ["run"]),
            ("navigator", "burst_high = 9223372036854775808", ["run"]),
            ("navigator", "replan_after_misses = -1", ["run"]),
            ("solver", "", ["run", "--seed-offset", "-1"]),
            ("suite", "seeds = 0,0", ["run"]),
            ("taks:t1", "start = 0:20\ndest = 7:25", ["run"]),
            ("task:a/b", "start = 0:20\ndest = 7:25", ["run"]),
            ("map", "", ["run"]),
            ("map", "path = no-such-dir/tree.vtree", ["run"]),
            ("solver", "", ["run", "--dump-frames", "/dev/null"]),
        ],
        ids=[
            "focal_px",
            "focal_px_nan",
            "view_depth_mm",
            "view_depth_inf",
            "burst_low",
            "back_step",
            "phantom_depth",
            "spacing_mm",
            "max_loops",
            "imaging_std",
            "imaging_std_without_gaussian",
            "imaging_std_text_without_gaussian",
            "translation_jitter_nan",
            "rotation_failure_nan",
            "rotation_failure_above_one",
            "reach_threshold_nan",
            "burst_low_negative",
            "burst_high_2_pow_63",
            "replan_after_misses_negative",
            "seed_offset",
            "repeated_seed",
            "unknown_section",
            "task_name_with_slash",
            "map_without_path",
            "map_missing_file",
            "dump_frames_onto_a_file",
        ],
    )
    def test_out_of_range_values_fail_before_running(self, tmp_path, capsys, section, line, command):
        header = f"[{section}]\n"
        if header in FULL_TINY:
            # the line replaces any value FULL_TINY already sets for its key
            key = line.partition(" = ")[0]
            text = "".join(row for row in FULL_TINY.splitlines(True) if not (key and row.startswith(key + " = ")))
            text = text.replace(header, header + line + "\n")
        else:
            text = FULL_TINY + "\n" + header + line + "\n"
        path = write_config(tmp_path, text)
        assert main([*command, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        # no episode ran, so the outdir was never created
        assert not (tmp_path / "out").exists()

    def test_config_that_is_not_utf8_fails_before_running(self, tmp_path, capsys):
        path = write_config(tmp_path, FULL_TINY)
        path.write_bytes(path.read_bytes().replace(b"name = tiny", b"name = caf\xe9"))
        assert main(["run", "--config", str(path)]) == 2
        assert "is not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "point",
        ["point nan 0.0 0.0 1.0", "point 0.0 inf 0.0 1.0", "point 0.0 0.0 0.0 inf"],
        ids=["nan", "inf", "inf_radius"],
    )
    def test_non_finite_map_point_fails_before_running(self, tmp_path, capsys, point):
        lines = serialize_tree(generate_phantom(PhantomSpec(), seed=11)).decode().splitlines()
        header = next(i for i, s in enumerate(lines) if s.startswith("branch 3 "))
        lines[header + 3] = point  # point 2 of branch 3
        map_path = tmp_path / "bad.vtree"
        map_path.write_text("\n".join(lines) + "\n")
        path = write_config(tmp_path, FULL_TINY + f"\n[map]\npath = {map_path}\n")
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_oracle_dump_frames_fails_before_running(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, ORACLE_SMALL)
        assert main(["run", "--dump-frames", "dump", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "dump").exists()

    def test_non_empty_dump_frames_fails_before_running(self, tmp_path, capsys, monkeypatch):
        # An earlier run's frames would sit beside this run's logs without
        # matching them; nothing of theirs is deleted.
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, FULL_TINY)
        stale = tmp_path / "dump" / "t1-seed0" / "frame_0001.pgm"
        stale.parent.mkdir(parents=True)
        stale.write_bytes(b"earlier run")
        assert main(["run", "--dump-frames", "dump", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()
        assert stale.read_bytes() == b"earlier run"

    def test_init_config_round_trip(self, tmp_path):
        target = tmp_path / "std.ini"
        assert main(["init-config", str(target)]) == 0
        suite = parse_suite(target)
        assert len(suite.tasks) == 5


class TestPgm:
    def test_writer_format(self, tmp_path):
        img = (np.arange(12, dtype=np.uint8) * 20).reshape(3, 4)
        path = tmp_path / "x.pgm"
        write_pgm(path, img)
        data = path.read_bytes()
        assert data.startswith(b"P5\n4 3\n255\n")
        assert data[len(b"P5\n4 3\n255\n"):] == img.tobytes()
        with pytest.raises(ValueError):
            write_pgm(path, img.astype(np.float64))
