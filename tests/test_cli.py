"""Suite runner checks: parsing, fail-fast, outputs, and determinism.

File contents are compared byte for byte where the runner promises
reproducibility, and summary statistics are recomputed from the episode logs
they claim to aggregate.
"""

import json
import re

import numpy as np
import pytest

from vesselnav.cli import (
    ConfigError,
    dump_scene,
    main,
    parse_address,
    parse_suite,
    run_suite,
    standard_config_text,
    write_pgm,
)
from vesselnav.vessel_model import PhantomSpec, generate_phantom, serialize_tree

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
        assert suite.episode.use_oracle_perception

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

    def test_dest_override_applies_to_all_tasks(self, tmp_path):
        path = write_config(tmp_path, ORACLE_SMALL)
        suite = parse_suite(path, dest_override="9:28")
        assert all(t.dest == (9, 28) for t in suite.tasks)

    def test_map_override_beats_phantom_section(self, tmp_path):
        other = generate_phantom(PhantomSpec(), seed=77)
        map_path = tmp_path / "other.vtree"
        map_path.write_bytes(serialize_tree(other))
        config = ORACLE_SMALL.replace("dest = 7:25", "dest = 0:5").replace("dest = 8:33", "dest = 0:5").replace("start = 0:20", "start = 0:0")
        path = write_config(tmp_path, config)
        suite = parse_suite(path, map_override=str(map_path))
        assert len(suite.tree.flat_points()[0]) == len(other.flat_points()[0])

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, ORACLE_SMALL)
        monkeypatch.setenv("VESSELNAV_OUTDIR", str(tmp_path / "elsewhere"))
        suite = parse_suite(path)
        assert suite.outdir == tmp_path / "elsewhere"


class TestRunSuite:
    def test_oracle_suite_outputs(self, tmp_path):
        suite = parse_suite(write_config(tmp_path, ORACLE_SMALL))
        results = run_suite(suite)
        assert [r.successes for r in results] == [2, 2]
        out = tmp_path / "out"
        logs = sorted(p.name for p in (out / "episodes").iterdir())
        assert logs == ["a-seed0.log", "a-seed1.log", "b-seed0.log", "b-seed1.log"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_successes"] == 4
        assert summary["total_trials"] == 4

    def test_trivial_task_zero_loops(self, tmp_path):
        config = ORACLE_SMALL.replace("dest = 7:25", "dest = 0:20").replace(
            "dest = 8:33", "dest = 0:20"
        )
        suite = parse_suite(write_config(tmp_path, config))
        results = run_suite(suite)
        for res in results:
            assert res.successes == 2
            assert res.loops_mean() == 0.0
            assert res.loops_std() == 0.0

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

    def test_unsuccessful_episode_is_data_not_error(self, tmp_path):
        config = ORACLE_SMALL.replace("[solver]", "[solver]\nmax_loops = 1")
        suite = parse_suite(write_config(tmp_path, config))
        results = run_suite(suite)
        assert all(res.successes == 0 for res in results)
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

    def test_dump_scene_range(self, tmp_path):
        path = write_config(tmp_path, FULL_TINY)
        suite = parse_suite(path)
        directory = dump_scene(suite, "t1", range(1, 3))
        names = sorted(p.name for p in directory.iterdir())
        assert names == [
            "frame_0001.pgm",
            "frame_0001.txt",
            "frame_0002.pgm",
            "frame_0002.txt",
            "overlay_0001.pgm",
            "overlay_0002.pgm",
        ]
        with pytest.raises(ConfigError):
            dump_scene(suite, "nope", range(0, 1))


class TestMain:
    def test_run_and_exit_codes(self, tmp_path, capsys):
        path = write_config(tmp_path, ORACLE_SMALL)
        assert main(["run", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "4/4" in out
        assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 2
        assert main(["run", "--config", str(path), "--dest", "99:0"]) == 2
        assert main(["run", "--config", str(path), "--tip-seed", "oops"]) == 2

    def test_dump_range_errors(self, tmp_path):
        path = write_config(tmp_path, FULL_TINY)
        assert main(["dump", "--config", str(path), "--task", "t1", "--frames", "3:1"]) == 2
        assert main(["dump", "--config", str(path), "--task", "zz", "--frames", "0:1"]) == 2

    @pytest.mark.parametrize(
        "section, line, command",
        [
            ("camera", "focal_px = 0", ["run"]),
            ("camera", "view_depth_mm = 0", ["run"]),
            ("camera", "view_depth_mm = inf", ["run"]),
            ("navigator", "burst_low = 20", ["run"]),
            ("navigator", "back_step = 0", ["run"]),
            ("phantom", "depth = 0", ["run"]),
            ("solver", "spacing_mm = 0", ["run"]),
            ("solver", "max_loops = -1", ["run"]),
            ("noise", "imaging = gaussian\nimaging_std = -1", ["run"]),
            ("noise", "translation_jitter = nan", ["run"]),
            ("noise", "rotation_failure = nan", ["run"]),
            ("noise", "rotation_failure = 2.0", ["run"]),
            ("navigator", "reach_threshold_mm = nan", ["run"]),
            ("navigator", "burst_low = -3", ["run"]),
            ("navigator", "replan_after_misses = -1", ["run"]),
            ("solver", "", ["run", "--seed-offset", "-1"]),
            ("solver", "", ["dump", "--task", "t1", "--frames", "0:1", "--seed", "-1"]),
        ],
        ids=[
            "focal_px",
            "view_depth_mm",
            "view_depth_inf",
            "burst_low",
            "back_step",
            "phantom_depth",
            "spacing_mm",
            "max_loops",
            "imaging_std",
            "translation_jitter_nan",
            "rotation_failure_nan",
            "rotation_failure_above_one",
            "reach_threshold_nan",
            "burst_low_negative",
            "replan_after_misses_negative",
            "seed_offset",
            "dump_seed",
        ],
    )
    def test_out_of_range_values_fail_before_running(self, tmp_path, capsys, section, line, command):
        header = f"[{section}]\n"
        # the line replaces any value FULL_TINY already sets for its key
        key = line.partition(" = ")[0]
        text = "".join(row for row in FULL_TINY.splitlines(True) if not (key and row.startswith(key + " = ")))
        if header in text:
            text = text.replace(header, header + line + "\n")
        else:
            text = text + "\n" + header + line + "\n"
        path = write_config(tmp_path, text)
        assert main([*command, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        # neither episodes/ nor frames/ was created
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config, command",
        [
            (FULL_TINY, ["run", "--tip-seed", "nan,nan"]),
            (FULL_TINY, ["run", "--tip-seed", "inf,0"]),
            (FULL_TINY, ["dump", "--task", "t1", "--frames", "0:1", "--tip-seed", "nan,nan"]),
            (FULL_TINY, ["dump", "--task", "t1", "--frames", "0:1", "--tip-seed", "inf,0"]),
            (ORACLE_SMALL, ["run", "--dump-frames", "dump"]),
        ],
        ids=["run_tip_seed_nan", "run_tip_seed_inf", "dump_tip_seed_nan", "dump_tip_seed_inf", "oracle_dump_frames"],
    )
    def test_bad_flags_fail_before_running(self, tmp_path, capsys, monkeypatch, config, command):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, config)
        assert main([*command, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "dump").exists()

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
