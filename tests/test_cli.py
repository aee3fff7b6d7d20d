import os
import time
from pathlib import Path

import pytest

from cfspectra.cli import main


@pytest.fixture
def built(tmp_path):
    out = tmp_path / "out"
    rc = main(["build", "--target", "2", "--depth", "6", "--out", str(out)])
    assert rc == 0
    return out


def test_build_writes_artifacts(built):
    assert (built / "tower.txt").exists()
    assert (built / "group.txt").exists()
    assert (built / "config.txt").exists()


def test_build_deterministic_bytes(built, tmp_path):
    out2 = tmp_path / "out2"
    assert main(["build", "--target", "2", "--depth", "6", "--out", str(out2)]) == 0
    assert (built / "tower.txt").read_bytes() == (out2 / "tower.txt").read_bytes()
    assert (built / "group.txt").read_bytes() == (out2 / "group.txt").read_bytes()


def test_verify_fresh_tower_passes(built, capsys):
    assert main(["verify", "--tower", str(built / "tower.txt")]) == 0
    out = capsys.readouterr().out
    assert "[ok]" in out and "FAIL" not in out


def test_verify_detects_label_corruption(built, tmp_path, capsys):
    text = (built / "tower.txt").read_text()
    # corrupt one label entry of the level-3 line: shift-equivariance must fail
    lines = text.splitlines()
    in_level_3 = False
    for i, line in enumerate(lines):
        if line.startswith("level "):
            in_level_3 = line == "level 3"
        if in_level_3 and line.startswith("labels = "):
            head, _, body = line.partition(" = ")
            entries = body.split(";")
            c, _, coord = entries[0].partition("=")
            entries[0] = f"{c}={(int(coord) + 1) % 3}"
            lines[i] = head + " = " + ";".join(entries)
            break
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--tower", str(bad)]) == 1
    out = capsys.readouterr().out
    assert any("FAIL" in ln and "shift-equivariance" in ln and "level 3" in ln
               for ln in out.splitlines())


def _relabel_last_cut(text: str, level: str, offset: int) -> str:
    """Add offset to the (rank-one) label coordinate of the last cut on one level's label line."""
    lines = text.splitlines()
    current = None
    for i, line in enumerate(lines):
        if line.startswith("level "):
            current = line
        if current == level and line.startswith("labels = "):
            head, _, last = line.rpartition(";")
            cut, _, coord = last.partition("=")
            lines[i] = f"{head};{cut}={int(coord) + offset}"
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no label line for {level}")


@pytest.mark.parametrize("offset, rc", [(1, 1), (3, 0)])
def test_verify_reads_the_label_element_not_its_text(built, tmp_path, capsys, offset, rc):
    """A changed top-level label fails verify; the same element written unreduced passes unchanged."""
    assert main(["verify", "--tower", str(built / "tower.txt")]) == 0
    clean = capsys.readouterr().out
    bad = tmp_path / "relabelled.txt"
    bad.write_text(_relabel_last_cut((built / "tower.txt").read_text(), "level 6", offset))
    assert main(["verify", "--tower", str(bad)]) == rc
    out = capsys.readouterr().out
    if rc:
        assert any(ln.startswith("[FAIL] level 6: shift-equivariance") for ln in out.splitlines())
    else:
        assert out == clean


def test_verify_truncated_file_is_config_error(built, tmp_path):
    text = (built / "tower.txt").read_text()
    bad = tmp_path / "trunc.txt"
    bad.write_text(text[: len(text) // 2])
    assert main(["verify", "--tower", str(bad)]) == 2


def test_weaklimits_csv(built, tmp_path, capsys):
    csv = tmp_path / "w.csv"
    assert main(["weaklimits", "--tower", str(built / "tower.txt"), "--out", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "n,tag,chi_id,A_id,B_id,residual_num,residual_den,error_num,error_den"
    assert len(lines) > 1
    # round-trip: the rational fields reparse exactly
    from fractions import Fraction

    from cfspectra.tower import parse_tower
    from cfspectra.groups import Character
    from cfspectra.koopman import cylinder_family, residual_grid
    from cfspectra.groups import all_characters

    tower = parse_tower((built / "tower.txt").read_text())
    rows = residual_grid(tower, list(all_characters(tower.group)), cylinder_family(tower, 1))
    for line, row in zip(lines[1:], rows):
        parts = line.split(",")
        assert len(parts) == 9  # no field may smuggle a comma
        assert Fraction(int(parts[-4]), int(parts[-3])) == row.residual
        assert Fraction(int(parts[-2]), int(parts[-1])) == row.error


def test_weaklimits_deterministic(built, tmp_path):
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["weaklimits", "--tower", str(built / "tower.txt"), "--out", str(c1)]) == 0
    assert main(["weaklimits", "--tower", str(built / "tower.txt"), "--out", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()


def test_groups_catalog(tmp_path, capsys):
    out = tmp_path / "catalog.txt"
    assert main(["groups", "--targets", "1;4;1,2", "--bound", "40", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("verified = true") == 3
    assert "E = 4" in text and "E = 1,2" in text


def test_groups_catalog_stdout_shows_triple(capsys):
    assert main(["groups", "--targets", "4", "--bound", "40"]) == 0
    out = capsys.readouterr().out
    assert "group = [5]" in out and "verified = true" in out


def test_groups_not_found(capsys):
    assert main(["groups", "--targets", "4", "--bound", "4"]) == 1


def test_spectra_command(capsys):
    assert main(["spectra", "--k", "2", "--d", "5"]) == 0
    out = capsys.readouterr().out
    assert "expected multiplicity 1: pass" in out
    assert "expected multiplicity 2: pass" in out


@pytest.mark.parametrize("k", [2, 3, 4])
def test_spectra_with_d_equal_to_k_passes(capsys, k):
    assert main(["spectra", "--k", str(k), "--d", str(k)]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("argv,prefix", [
    (["spectra", "--k", "0"], "config error: "),
    (["spectra", "--k", "-1"], "config error: "),
    (["spectra", "--k", "2", "--d", "0"], "config error: "),
    (["spectra", "--k", "2", "--d", "40"], "limit error: "),
    (["spectra", "--k", "2", "--d", "1"], "config error: "),
    (["spectra", "--k", "3", "--d", "2"], "config error: "),
    (["spectra", "--k", "4", "--d", "3"], "config error: "),
])
def test_bad_spectra_input_is_refused_before_any_table_line(capsys, argv, prefix):
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(prefix), err
    assert "Traceback" not in err


def test_weaklimits_refuses_a_grid_past_its_guard(tmp_path, capsys):
    out = tmp_path / "t8"
    assert main(["build", "--target", "2", "--depth", "8", "--out", str(out)]) == 0
    tower = str(out / "tower.txt")
    capsys.readouterr()
    t0 = time.perf_counter()
    assert main(["weaklimits", "--tower", tower, "--max-level", "5"]) == 2
    assert time.perf_counter() - t0 < 1
    out_text, err = capsys.readouterr()
    assert out_text == ""
    assert len(err.splitlines()) == 1 and err.startswith("limit error: "), err
    assert "21,330,886^2" in err
    for level in ("9", "-1"):
        assert main(["weaklimits", "--tower", tower, "--max-level", level]) == 2
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.startswith("config error: ") and "0..8" in err


def test_recur_command(built, capsys):
    assert main(["recur", "--tower", str(built / "tower.txt"), "--depth", "4",
                 "--kmax", "800"]) == 0
    out = capsys.readouterr().out
    assert ">= 1/3: pass" in out
    assert "triple recurrence" in out


def test_build_rank_one_target(tmp_path):
    out = tmp_path / "r1"
    assert main(["build", "--target", "1", "--depth", "5", "--out", str(out)]) == 0
    assert (out / "tower.txt").exists()
    assert not (out / "group.txt").exists()  # rank-one pipeline carries no group triple
    assert main(["verify", "--tower", str(out / "tower.txt")]) == 0


def test_build_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("E = \n")
    assert main(["build", "--config", str(cfg)]) == 2
    assert main(["build", "--target", "4", "--bound", "3"]) == 2


def test_config_group_without_a_triple_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "custom.txt"
    cfg.write_text("E = 1,2\ngroup = custom\n")
    capsys.readouterr()
    assert main(["build", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert err == "config error: triple is missing group, subgroup_gens, aut\n"
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["build", "--target", "abc"],
    ["groups", "--targets", "0"],
    ["groups", "--targets", "2", "--bound", "1"],
    ["groups", "--targets", "2", "--bound", "-3"],
    ["spectra", "--k", "7"],
    ["spectra", "--k", "2", "--d", "1"],
    ["spectra", "--k", "3", "--d", "2"],
    ["spectra", "--k", "4", "--d", "3"],
    ["recur", "--tower", "{tower}", "--kmax", "100000000"],
    ["recur", "--tower", "{tower}", "--depth", "-1"],
    ["recur", "--tower", "{tower}", "--kmax", "0"],
    ["recur", "--tower", "{tower}", "--kmax", "-5"],
])
def test_bad_input_is_a_one_line_config_error(built, capsys, argv):
    argv = [a.format(tower=built / "tower.txt") for a in argv]
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")
    assert "Traceback" not in err
    assert out == ""


def test_state_guard_is_a_one_line_limit_error(built, capsys, monkeypatch):
    from cfspectra import pairings

    monkeypatch.setattr(pairings, "_STATE_GUARD", 0)
    capsys.readouterr()
    assert main(["weaklimits", "--tower", str(built / "tower.txt")]) == 2
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1 and err.startswith("limit error: ")
    assert "exceeded 0 states" in err and "Traceback" not in err
    assert out == ""
    assert issubclass(pairings.StateGuardExceeded, RuntimeError)


def test_catalog_guard_is_a_one_line_limit_error(capsys, monkeypatch):
    from cfspectra import groups

    monkeypatch.setattr(groups, "_AUT_GUARD", 100)   # Z2^3 has 7^3 = 343 candidate matrices
    capsys.readouterr()
    assert main(["groups", "--targets", "1,2;23", "--bound", "8"]) == 2
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1 and err.startswith("limit error: ")
    assert "Z2xZ2xZ2" in err and "Traceback" not in err
    assert out == ""


def test_embed_guard_is_a_one_line_limit_error(tmp_path, capsys):
    """``recur`` past the old embedding bound now answers; ``embed`` itself still refuses it."""
    from cfspectra.tower import Cylinder, EmbedGuardExceeded, embed, parse_tower

    out = tmp_path / "t12"
    assert main(["build", "--target", "1,2", "--depth", "8", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["recur", "--tower", str(out / "tower.txt"), "--depth", "6"]) == 0
    out_text, err = capsys.readouterr()
    assert out_text.splitlines()[-1] == "triple recurrence at depth 6: k = 3, mass = 1/6"
    assert err == ""
    t = parse_tower((out / "tower.txt").read_text())
    with pytest.raises(EmbedGuardExceeded, match="guard 5,000,000"):
        embed(t, Cylinder(1, (0,)), 6)
    assert issubclass(EmbedGuardExceeded, MemoryError)


def test_recurrence_state_guard_is_a_one_line_limit_error(built, capsys, monkeypatch):
    from cfspectra import pairings

    monkeypatch.setattr(pairings, "_STATE_GUARD", 0)
    capsys.readouterr()
    assert main(["recur", "--tower", str(built / "tower.txt")]) == 2
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1 and err.startswith("limit error: recurrence count exceeded 0 states")
    assert "Traceback" not in err
    assert out == ""


def test_recur_answers_at_the_full_depth(tmp_path, capsys):
    out = tmp_path / "t12"
    assert main(["build", "--target", "1,2", "--depth", "8", "--out", str(out)]) == 0
    for depth in (7, 8):
        capsys.readouterr()
        assert main(["recur", "--tower", str(out / "tower.txt"), "--depth", str(depth)]) == 0
        out_text, err = capsys.readouterr()
        assert out_text.splitlines()[-1] == f"triple recurrence at depth {depth}: k = 3, mass = 1/6"
        assert err == ""


def test_numpy_is_loaded_only_by_float_mode(tmp_path):
    """Every subcommand runs without importing numpy; a float-mode call still imports it."""
    import subprocess
    import sys

    out, tower = tmp_path / "out", tmp_path / "out" / "tower.txt"
    runs = [
        ["build", "--target", "2", "--depth", "6", "--out", str(out)],
        ["verify", "--tower", str(tower)],
        ["weaklimits", "--tower", str(tower), "--out", str(tmp_path / "grid.csv")],
        ["groups", "--targets", "1,2", "--bound", "8", "--out", str(tmp_path / "catalog.txt")],
        ["recur", "--tower", str(tower)],
        ["spectra", "--k", "3", "--d", "4"],
    ]
    code = (
        "import sys\n"
        "def check(step):\n"
        "    print(step, 'numpy' in sys.modules, file=sys.stderr)\n"
        "import cfspectra\n"
        "check('import cfspectra')\n"
        "import cfspectra.cli\n"
        "check('import cfspectra.cli')\n"
        f"for argv in {runs!r}:\n"
        "    assert cfspectra.cli.main(argv) == 0, argv\n"
        "    check(argv[0])\n"
        "from cfspectra.spectra import multiplicity_function\n"
        "mf = multiplicity_function([[0, 1], [1, 0]])\n"
        "assert mf.mode == 'float' and sorted(mf.values().items()) == [(1, 2)]\n"
        "check('float mode')\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    loaded = [line.rsplit(" ", 1) for line in proc.stderr.splitlines()]
    assert loaded == [["import cfspectra", "False"], ["import cfspectra.cli", "False"]] + [
        [argv[0], "False"] for argv in runs] + [["float mode", "True"]]


def test_reused_parser_carries_nothing_between_calls(capsys):
    """Calls in one process, through the one parser, each give a fresh process's output and exit code."""
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    codes = []
    for argv in (["spectra", "--k", "3"], ["spectra"], ["groups"], ["spectra", "--k", "2"]):
        try:
            rc = main(argv)
        except SystemExit as exc:      # argparse refuses the bad call
            rc = exc.code
        out, err = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "cfspectra.cli", *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert (rc, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
        codes.append(rc)
    assert codes == [0, 0, 2, 0] and "d = 5, k = 2" in out


def _swap_first_cut_blocks(text: str, level: str) -> str:
    """Swap the first two arithmetic blocks of one level's cut line; the cut set is unchanged."""
    lines = text.splitlines()
    current = None
    for i, line in enumerate(lines):
        if line.startswith("level "):
            current = line
        if current == level and line.startswith("cuts = "):
            blocks = line[len("cuts = "):].split(",")
            blocks[0], blocks[1] = blocks[1], blocks[0]
            lines[i] = "cuts = " + ",".join(blocks)
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no cut line for {level}")


@pytest.mark.parametrize("command", [["verify"], ["weaklimits", "--max-level", "1"], ["recur"]])
def test_unsorted_cuts_are_a_parse_error(tmp_path, capsys, command):
    out = tmp_path / "t5"
    assert main(["build", "--target", "2", "--depth", "5", "--out", str(out)]) == 0
    bad = tmp_path / "unsorted.txt"
    bad.write_text(_swap_first_cut_blocks((out / "tower.txt").read_text(), "level 4"))
    capsys.readouterr()
    assert main([command[0], "--tower", str(bad), *command[1:]]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("parse error:"), err
    assert "not strictly increasing" in err[0]


@pytest.mark.parametrize("command", [["verify"], ["weaklimits", "--max-level", "1"], ["recur"]])
def test_missing_tower_file_is_a_one_line_io_error(tmp_path, capsys, command):
    capsys.readouterr()
    assert main([command[0], "--tower", str(tmp_path / "missing.txt"), *command[1:]]) == 2
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1 and err.startswith("io error: "), err
    assert out == ""


@pytest.mark.parametrize("config,options", [
    ("E = 2\nschedule = even 1,1\n", []),          # the label group Z3 has rank 1
    ("E = 1\nschedule = even 5\n", []),            # the trivial label group has rank 0
    ("E = 2\n", ["--out", "o5"]),
    ("E = 2\n", ["--target", "2"]),
    ("E = 2\n", ["--depth", "5", "--bound", "10"]),
    ("E = 2\nschedule = even 1|stagger 1 0\n", []),   # k = 0 is written "even"
], ids=["schedule-rank-1", "schedule-rank-0", "out", "target", "depth-bound", "schedule-stagger-k0"])
def test_bad_build_config_is_a_one_line_config_error(tmp_path, capsys, monkeypatch, config, options):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "c.txt"
    cfg.write_text(config)
    capsys.readouterr()
    assert main(["build", "--config", str(cfg), *options]) == 2
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1 and err.startswith("config error: "), err
    assert out == "" and sorted(p.name for p in tmp_path.iterdir()) == ["c.txt"]


@pytest.mark.parametrize("old,new", [("3840=1;", "3840=1,7;"), ("tag = even 1\n", "tag = even 1,2\n")],
                         ids=["label", "tag"])
def test_extra_coordinates_are_a_parse_error(tmp_path, capsys, old, new):
    out = tmp_path / "t5"
    assert main(["build", "--target", "2", "--depth", "5", "--out", str(out)]) == 0
    text = (out / "tower.txt").read_text()
    assert old in text
    bad = tmp_path / "tampered.txt"
    bad.write_text(text.replace(old, new, 1))
    capsys.readouterr()
    assert main(["verify", "--tower", str(bad)]) == 2
    out_text, err = capsys.readouterr()
    assert err.splitlines() == ["parse error: malformed tower file: coordinate count does not match rank"]
    assert out_text == ""


def test_stagger_tag_with_k_zero_is_a_parse_error(tmp_path, capsys):
    """k = 0 is the even level; a file that calls it stagger is refused, not read back as even."""
    out = tmp_path / "t5"
    assert main(["build", "--target", "2", "--depth", "5", "--out", str(out)]) == 0
    text = (out / "tower.txt").read_text()
    assert "level 3\ntag = even 1\n" in text
    bad = tmp_path / "tampered.txt"
    bad.write_text(text.replace("level 3\ntag = even 1\n", "level 3\ntag = stagger 1 k=0\n"))
    capsys.readouterr()
    assert main(["verify", "--tower", str(bad)]) == 2
    out_text, err = capsys.readouterr()
    assert err.splitlines() == ["parse error: level 3: stagger mix ratio k=0 is below 1 (k = 0 is written even)"]
    assert out_text == ""


@pytest.mark.parametrize("depth", ["40", "100000"])
def test_oversized_build_is_a_one_line_limit_error(tmp_path, capsys, depth):
    """The recipe cut count is summed before any level is built, so the refusal is immediate."""
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["build", "--target", "3", "--depth", depth, "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1 and err.startswith("limit error: ") and "1,000,000" in err, err
    assert out == "" and not (tmp_path / "o").exists()


def test_build_under_the_cut_guard_succeeds(tmp_path):
    """{1,2} at depth 24 (235,009 cuts, the deep-build workload) stays below the guard."""
    out = tmp_path / "o"
    assert main(["build", "--target", "1,2", "--depth", "24", "--out", str(out)]) == 0
    assert "depth = 24\n" in (out / "tower.txt").read_text()


def _add_to_level_field(text: str, level: str, key: str, delta: int) -> str:
    """Add delta to the integer on one level's ``key = ...`` line."""
    lines = text.splitlines()
    current = None
    for i, line in enumerate(lines):
        if line.startswith("level "):
            current = line
        if current == level and line.startswith(f"{key} = "):
            lines[i] = f"{key} = {int(line.split(' = ')[1]) + delta}"
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no {key} line for {level}")


@pytest.mark.parametrize("command", [["verify"], ["weaklimits", "--max-level", "1"]])
@pytest.mark.parametrize("level,key", [("level 5", "h"), ("level 5", "z"), ("level 4", "h")])
def test_recipe_mismatch_is_a_parse_error(tmp_path, capsys, command, level, key):
    out = tmp_path / "t5"
    assert main(["build", "--target", "2", "--depth", "5", "--out", str(out)]) == 0
    bad = tmp_path / "tampered.txt"
    bad.write_text(_add_to_level_field((out / "tower.txt").read_text(), level, key, 7))
    capsys.readouterr()
    assert main([command[0], "--tower", str(bad), *command[1:]]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"parse error: {level}:") and "recipe" in err[0], err


@pytest.mark.parametrize("level,old,new", [("level 5", "tag = even 1", "tag = seed"),
                                           ("level 1", "tag = seed", "tag = even 1")])
def test_misplaced_seed_tag_is_a_parse_error(tmp_path, capsys, level, old, new):
    out = tmp_path / "t5"
    assert main(["build", "--target", "2", "--depth", "5", "--out", str(out)]) == 0
    text = (out / "tower.txt").read_text()
    assert f"{level}\n{old}\n" in text
    bad = tmp_path / "tampered.txt"
    bad.write_text(text.replace(f"{level}\n{old}\n", f"{level}\n{new}\n"))
    capsys.readouterr()
    assert main(["verify", "--tower", str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"parse error: {level}: levels 1-2 must be tagged seed"), err


@pytest.mark.parametrize("command", [["verify"], ["weaklimits", "--max-level", "1"]])
def test_seed_level_unlike_tower_seeded_is_a_parse_error(tmp_path, capsys, command):
    out = tmp_path / "t5"
    assert main(["build", "--target", "2", "--depth", "5", "--out", str(out)]) == 0
    text = (out / "tower.txt").read_text()
    seed = "level 1\ntag = seed\nh = 3\nz = 0\ncuts = 0:1:2\nlabels = 0=0;1=0\n"
    assert seed in text
    # the level-1 cut 1 moves to 2 with its label; the structural checks all still pass
    bad = tmp_path / "tampered.txt"
    bad.write_text(text.replace(seed, seed.replace("0:1:2", "0:2:2").replace("1=0", "2=0")))
    capsys.readouterr()
    assert main([command[0], "--tower", str(bad), *command[1:]]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("parse error: level 1: seed level differs from Tower.seeded"), err


def _edit_labels(text: str, edit) -> str:
    """Apply edit(level header, entries) to the entry list of every level's label line."""
    lines = text.splitlines()
    current = None
    for i, line in enumerate(lines):
        if line.startswith("level "):
            current = line
        if line.startswith("labels = "):
            lines[i] = "labels = " + ";".join(edit(current, line[len("labels = "):].split(";")))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("permute", [lambda e: e[::-1], lambda e: e[:-2] + e[:-3:-1]],
                         ids=["reversed", "last-two-swapped"])
def test_permuted_labels_parse_to_the_same_tower(built, tmp_path, capsys, permute):
    from cfspectra.tower import parse_tower

    text = (built / "tower.txt").read_text()
    bad = tmp_path / "permuted.txt"
    bad.write_text(_edit_labels(text, lambda level, entries: permute(entries)))
    assert bad.read_text() != text
    t, twin = parse_tower(text), parse_tower(bad.read_text())
    for lvl, other in zip(t.levels, twin.levels, strict=True):
        assert other.cuts == lvl.cuts and other.cut_labels() == lvl.cut_labels()
        assert (other.block, other.reps) == (lvl.block, lvl.reps)
    assert main(["verify", "--tower", str(built / "tower.txt")]) == 0
    clean = capsys.readouterr().out
    assert main(["verify", "--tower", str(bad)]) == 0
    assert capsys.readouterr().out == clean


@pytest.mark.parametrize("edit", [
    lambda e: e[:-1],                                  # the last entry missing
    lambda e: e[:3] + e[4:],                           # a middle entry missing
    lambda e: e + [f"{int(e[-1].split('=')[0]) + 1}=0"],   # an entry for a cut that is not there
    lambda e: e[:4] + e[3:],                           # a middle entry twice
    lambda e: e + [e[0]],                              # the first entry again at the end
], ids=["missing-last", "missing-middle", "extra", "duplicated-middle", "duplicated-first"])
def test_labels_that_miss_or_repeat_a_cut_are_a_parse_error(built, tmp_path, capsys, edit):
    text = (built / "tower.txt").read_text()
    bad = tmp_path / "tampered.txt"
    bad.write_text(_edit_labels(text, lambda level, entries: edit(entries) if level == "level 4" else entries))
    capsys.readouterr()
    assert main(["verify", "--tower", str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["parse error: level 4: labels do not cover the cuts exactly"]


def _edit_cuts(text: str, level: str, edit) -> str:
    """Apply edit(blocks) to the start:step:count blocks of one level's cut line."""
    lines = text.splitlines()
    current = None
    for i, line in enumerate(lines):
        if line.startswith("level "):
            current = line
        if current == level and line.startswith("cuts = "):
            lines[i] = "cuts = " + ",".join(edit(line[len("cuts = "):].split(",")))
            return "\n".join(lines) + "\n"
    raise AssertionError(f"no cut line for {level}")


def _split_first_block(blocks):
    """0:768:6 -> 0:768:2,1536:768:4: the same cuts in another chunking."""
    start, step, count = map(int, blocks[0].split(":"))
    return [f"{start}:{step}:2", f"{start + 2 * step}:{step}:{count - 2}", *blocks[1:]]


def test_rechunked_cuts_parse_to_the_same_tower(built, tmp_path, capsys):
    from cfspectra.tower import parse_tower, serialize_tower
    from cut_scans import rendered_level_calls

    text = (built / "tower.txt").read_text()
    bad = tmp_path / "rechunked.txt"
    bad.write_text(_edit_cuts(text, "level 4", _split_first_block))
    assert "cuts = 0:768:2,1536:768:4,4609:769:6," in bad.read_text()
    t = parse_tower(text)
    with rendered_level_calls() as accepted:
        twin = parse_tower(bad.read_text())
    assert accepted == [True, False, True, True]   # level 4 goes through the per-entry reader
    for lvl, other in zip(t.levels, twin.levels, strict=True):
        assert (other.block, other.reps, other.block_labels) == (lvl.block, lvl.reps, lvl.block_labels)
    assert serialize_tower(twin) == text
    assert main(["verify", "--tower", str(built / "tower.txt")]) == 0
    clean = capsys.readouterr().out
    assert main(["verify", "--tower", str(bad)]) == 0
    assert capsys.readouterr().out == clean


def test_a_huge_cut_count_is_refused_before_it_is_expanded(tmp_path, capsys):
    import tracemalloc

    from cfspectra.tower import TowerParseError, parse_tower

    out = tmp_path / "t5"
    assert main(["build", "--target", "2", "--depth", "5", "--out", str(out)]) == 0
    text = _edit_cuts((out / "tower.txt").read_text(), "level 3", lambda blocks: ["0:1:2000000"])
    tracemalloc.start()
    try:
        with pytest.raises(TowerParseError, match="^level 3: labels do not cover the cuts exactly$"):
            parse_tower(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak   # 2M expanded cuts would take about 80 MB
    bad = tmp_path / "huge.txt"
    bad.write_text(text)
    capsys.readouterr()
    assert main(["verify", "--tower", str(bad)]) == 2
    assert capsys.readouterr().err.splitlines() == ["parse error: level 3: labels do not cover the cuts exactly"]


@pytest.mark.parametrize("block", ["0:1:0", "0:1:-3"])
def test_a_cut_block_counting_below_one_is_a_parse_error(tmp_path, capsys, block):
    out = tmp_path / "t5"
    assert main(["build", "--target", "2", "--depth", "5", "--out", str(out)]) == 0
    bad = tmp_path / "tampered.txt"
    bad.write_text(_edit_cuts((out / "tower.txt").read_text(), "level 3", lambda blocks: blocks + [block]))
    capsys.readouterr()
    assert main(["verify", "--tower", str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"parse error: level 3: malformed cut block '{block}' (count below 1)"]


def test_moved_cut_fails_verify(built, tmp_path, capsys):
    from cfspectra.tower import Level, parse_tower, serialize_tower

    t = parse_tower((built / "tower.txt").read_text())
    top = t.level(t.depth)
    # the last cut moves up one rung and keeps its label; the cut line stays sorted
    cuts = top.cuts[:-1] + (top.cuts[-1] + 1,)
    labels = top.cut_labels()
    t.levels[-1] = Level(top.n, top.h, top.z, cuts, 1, labels, top.tag, t.elements, t.v_pow)
    bad = tmp_path / "moved.txt"
    bad.write_text(serialize_tower(t))
    capsys.readouterr()
    assert main(["verify", "--tower", str(bad)]) == 1
    fails = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("[FAIL]")]
    assert fails == ["[FAIL] level 6: coboundary term exact (21/500 vs 1/5^2)"]


def test_weaklimits_csv_matches_in_memory_tower(built, tmp_path):
    from cfspectra.experiment import ExperimentConfig, build_tower
    from cfspectra.groups import all_characters
    from cfspectra.koopman import cylinder_family, residual_csv, residual_grid

    csv = tmp_path / "w.csv"
    assert main(["weaklimits", "--tower", str(built / "tower.txt"), "--out", str(csv)]) == 0
    tower, _, _ = build_tower(ExperimentConfig(E=frozenset({2}), depth=6))
    rows = residual_grid(tower, list(all_characters(tower.group)), cylinder_family(tower, 1))
    assert residual_csv(rows) == csv.read_text()
