from pathlib import Path

from helpers import ordering_instance, star_instance
from mapfla import fileio
from mapfla.cli import main
from mapfla.model import Instance, Move, make_roadmap


def write_fixture(tmp_path: Path, instance, stem: str):
    map_path = tmp_path / f"{stem}.map"
    scen_path = tmp_path / f"{stem}.scen"
    fileio.save_roadmap(map_path, instance.roadmap, instance.radius)
    fileio.save_scenario(
        scen_path, map_path.name, tuple(zip(instance.starts, instance.goals))
    )
    return map_path, scen_path


def test_gen_twice_is_byte_identical(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code = main(
            ["gen", "--preset", "sparse-like", "--seed", "7",
             "--scenarios", "3", "--pairs", "8", "--out", str(out)]
        )
        assert code == 0
    files_a = sorted(p.name for p in a.iterdir())
    assert files_a == sorted(p.name for p in b.iterdir())
    assert len(files_a) == 4  # map + 3 scenarios
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_solve_validate_render_pipeline(tmp_path, capsys):
    inst = ordering_instance()
    map_path, scen_path = write_fixture(tmp_path, inst, "order")
    plan_path = tmp_path / "plan.txt"
    code = main(
        ["solve", "--map", str(map_path), "--scen", str(scen_path),
         "--mode", "la", "--order", "perm:1,0", "--time-limit", "10",
         "--out", str(plan_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "status=solved" in out and "moves=" in out and "ms=" in out
    assert plan_path.exists()

    assert main(
        ["validate", "--map", str(map_path), "--scen", str(scen_path),
         "--plan", str(plan_path)]
    ) == 0

    frames_dir = tmp_path / "frames"
    assert main(
        ["render", "--map", str(map_path), "--scen", str(scen_path),
         "--plan", str(plan_path), "--out", str(frames_dir)]
    ) == 0
    plan = fileio.load_plan(plan_path)
    assert len(list(frames_dir.glob("frame_*.svg"))) == len(plan) + 1


def test_solve_failed_exit_code(tmp_path, capsys):
    inst = star_instance()
    map_path, scen_path = write_fixture(tmp_path, inst, "star")
    code = main(
        ["solve", "--map", str(map_path), "--scen", str(scen_path),
         "--time-limit", "1"]
    )
    assert code == 2
    assert "status=failed" in capsys.readouterr().out


def test_ordering_fixture_cli_behaviour(tmp_path, capsys):
    inst = ordering_instance()
    map_path, scen_path = write_fixture(tmp_path, inst, "order")
    base = ["solve", "--map", str(map_path), "--scen", str(scen_path),
            "--time-limit", "10"]
    assert main(base + ["--order", "index"]) == 2
    assert main(base + ["--order", "random-restarts:10:1"]) == 0


def test_agents_zero_is_usage_error(tmp_path, capsys):
    inst = ordering_instance()
    map_path, scen_path = write_fixture(tmp_path, inst, "order")
    code = main(
        ["solve", "--map", str(map_path), "--scen", str(scen_path),
         "--agents", "0"]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_non_finite_time_limit_is_usage_error(tmp_path, capsys):
    inst = ordering_instance()
    map_path, scen_path = write_fixture(tmp_path, inst, "order")
    for value in ("nan", "inf", "-inf"):
        code = main(
            ["solve", "--map", str(map_path), "--scen", str(scen_path),
             f"--time-limit={value}"]
        )
        assert code == 1
        assert "time_limit must be positive and finite" in capsys.readouterr().err


def test_agents_flag_truncates(tmp_path, capsys):
    inst = ordering_instance()
    map_path, scen_path = write_fixture(tmp_path, inst, "order")
    # only agent 0: its lone path is blocked by nobody (agent 1 not present)
    code = main(
        ["solve", "--map", str(map_path), "--scen", str(scen_path),
         "--agents", "1", "--time-limit", "10"]
    )
    assert code == 0


def test_malformed_file_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.map"
    bad.write_text("mapfla-roadmap 1\nr 0.5\nv 0 zero 0\n")
    scen = tmp_path / "s.scen"
    scen.write_text("mapfla-scen 1\nroadmap bad.map\na 0 0\n")
    code = main(["solve", "--map", str(bad), "--scen", str(scen)])
    assert code == 1
    assert ":3:" in capsys.readouterr().err


def test_validate_detects_broken_plan(tmp_path, capsys):
    inst = ordering_instance()
    map_path, scen_path = write_fixture(tmp_path, inst, "order")
    plan_path = tmp_path / "p.txt"
    fileio.save_plan(plan_path, [Move(0, 1, 2)])  # agent 0 is not at vertex 1
    code = main(
        ["validate", "--map", str(map_path), "--scen", str(scen_path),
         "--plan", str(plan_path)]
    )
    assert code == 2
    assert "move 0" in capsys.readouterr().out


def test_render_rejects_teleporting_plan(tmp_path, capsys):
    inst = ordering_instance()
    map_path, scen_path = write_fixture(tmp_path, inst, "order")
    plan_path = tmp_path / "p.txt"
    fileio.save_plan(plan_path, [Move(0, 1, 2)])  # agent 0 is not at vertex 1
    code = main(
        ["render", "--map", str(map_path), "--scen", str(scen_path),
         "--plan", str(plan_path), "--out", str(tmp_path / "frames")]
    )
    assert code == 1
    assert "agent 0 is at 0, not 1" in capsys.readouterr().err
    assert not (tmp_path / "frames").exists()


def invalid_instances():
    """A start past the last vertex, and two agents on one start."""
    rm = make_roadmap([(0.0, 0.0), (1.2, 0.0), (2.4, 0.0)], [(0, 1), (1, 2)])
    return (
        (Instance(rm, 0.5, (9,), (1,)), "start of agent 0 is missing vertex 9"),
        (Instance(rm, 0.5, (0, 0), (1, 2)), "start vertex 0 assigned to agents 0 and 1"),
    )


def test_validate_rejects_invalid_instance(tmp_path, capsys):
    plan_path = tmp_path / "p.txt"
    fileio.save_plan(plan_path, [Move(0, 0, 1)])
    for k, (inst, issue) in enumerate(invalid_instances()):
        map_path, scen_path = write_fixture(tmp_path, inst, f"bad{k}")
        code = main(
            ["validate", "--map", str(map_path), "--scen", str(scen_path),
             "--plan", str(plan_path)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "invalid instance" in captured.err and issue in captured.err
        assert captured.out == ""


def test_render_rejects_invalid_instance(tmp_path, capsys):
    plan_path = tmp_path / "p.txt"
    fileio.save_plan(plan_path, [Move(0, 0, 1)])
    for k, (inst, issue) in enumerate(invalid_instances()):
        map_path, scen_path = write_fixture(tmp_path, inst, f"bad{k}")
        frames_dir = tmp_path / f"frames{k}"
        code = main(
            ["render", "--map", str(map_path), "--scen", str(scen_path),
             "--plan", str(plan_path), "--out", str(frames_dir)]
        )
        assert code == 1
        assert issue in capsys.readouterr().err
        assert not frames_dir.exists()


def test_missing_file_is_io_error(tmp_path, capsys):
    code = main(["solve", "--map", str(tmp_path / "no.map"),
                 "--scen", str(tmp_path / "no.scen")])
    assert code == 1


def test_bad_usage_is_exit_1(capsys):
    assert main(["solve"]) == 1  # missing required flags
    assert main(["frobnicate"]) == 1


def test_bench_cli_csv(tmp_path, capsys):
    out_csv = tmp_path / "report.csv"
    code = main(
        ["bench", "--preset", "sparse-like", "--seed", "0",
         "--scenarios", "2", "--pairs", "6", "--modes", "la,naive",
         "--n", "2..3", "--time-limit", "5", "--jobs", "1",
         "--out", str(out_csv)]
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("roadmap,mode,n,")
    assert len(lines) == 1 + 2 * 2  # 2 modes x 2 n-values


def test_bench_rejects_jobs_below_one(capsys):
    code = main(
        ["bench", "--preset", "sparse-like", "--scenarios", "1",
         "--modes", "naive", "--n", "2", "--jobs", "-5"]
    )
    assert code == 1
    assert "jobs must be >= 1" in capsys.readouterr().err


def test_bench_rejects_empty_scenario_set(capsys):
    code = main(["bench", "--scenarios", "0", "--modes", "naive", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "has no scenarios" in captured.err
    assert captured.out == ""
