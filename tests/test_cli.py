"""CLI tests: subcommands, outputs, determinism, error handling."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import stabgames
from stabgames.cli import main


def run(args, tmp_path, tag):
    rc = main(args + ["--outdir", str(tmp_path), "--tag", tag])
    assert rc == 0
    record = json.loads((tmp_path / f"{tag}.json").read_text())
    csv = (tmp_path / f"{tag}.csv").read_text()
    return record, csv


def test_game_parity_quantum(tmp_path):
    record, csv = run(["game", "parity", "--code", "tc2d", "--L", "4", "--P", "3"], tmp_path, "q3")
    assert record["p_q"]["fraction"] == "1/1"
    assert record["mermin"]["fraction"] == "4/1"
    assert "version" in record and "config_hash" in record and "seed" in record
    assert csv.splitlines()[0] == "input,win_probability"


def test_game_parity_classical(tmp_path):
    record, csv = run(["game", "parity", "--classical", "--P", "5"], tmp_path, "c5")
    assert record["p_cl"]["float"] == 0.625
    assert "5/8" in csv


def test_code_info(tmp_path):
    record, _ = run(["code", "info", "--kind", "xcube", "--L", "3"], tmp_path, "xc")
    assert record["info"]["ground_space_log_dim"] == 15


def test_complex_info(tmp_path):
    record, _ = run(["complex", "info", "--lattice", "torus3d", "--L", "2"], tmp_path, "t3")
    assert record["homology"] == [1, 3, 3, 1]
    assert record["euler_check"] is True


def test_strategy_validate(tmp_path):
    record, _ = run(
        ["strategy", "validate", "--code", "tc2d", "--L", "4", "--P", "5"], tmp_path, "sv"
    )
    assert record["ok"] is True


def test_game_cellulation(tmp_path):
    record, _ = run(
        ["game", "cellulation", "--L", "6", "--blocks", "3x3"], tmp_path, "cell"
    )
    assert record["p_q"]["fraction"] == "1/1"


def test_sweep_deformation(tmp_path):
    record, csv = run(
        ["sweep", "deformation", "--L", "2", "--thetas", "0:0.1:0.05"], tmp_path, "sw"
    )
    rows = csv.splitlines()
    assert rows[0] == "theta,p_q,mermin"
    assert len(rows) == 4
    first = record["sweep"][0]
    assert first["theta"] == 0.0 and abs(first["p_q"] - 1.0) < 1e-10


def test_outputs_byte_identical_for_same_config(tmp_path):
    a1, c1 = run(["game", "parity", "--classical", "--P", "4", "--seed", "3"], tmp_path, "r1")
    a2, c2 = run(["game", "parity", "--classical", "--P", "4", "--seed", "3"], tmp_path, "r2")
    a1.pop("config"), a2.pop("config")  # config carries no volatile fields, but tags differ in path only
    assert a1 == a2 and c1 == c2


def test_dotted_tags_write_their_own_files(tmp_path):
    # the outputs append .json and .csv to the tag: a dot in it is kept, so
    # two runs with dotted tags write four files
    run(["game", "parity", "--classical", "--P", "3"], tmp_path, "sweep-theta0.1")
    run(["game", "parity", "--classical", "--P", "4"], tmp_path, "sweep-theta0.2")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "sweep-theta0.1.csv", "sweep-theta0.1.json", "sweep-theta0.2.csv", "sweep-theta0.2.json"]
    assert json.loads((tmp_path / "sweep-theta0.1.json").read_text())["config"]["P"] == 3
    assert json.loads((tmp_path / "sweep-theta0.2.json").read_text())["config"]["P"] == 4


@pytest.mark.parametrize("tag", ["", ".", "..", "sub/run", "../run", "/tmp/run"])
def test_tags_that_are_no_file_name_are_refused(tmp_path, capsys, tag):
    out = tmp_path / "out"
    rc = main(["game", "parity", "--classical", "--P", "3", "--outdir", str(out), "--tag", tag])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --tag") and "\n" not in err.strip()
    assert not out.exists()


def test_invalid_config_errors(tmp_path, capsys):
    rc = main(["game", "parity", "--code", "nosuch", "--outdir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "\n" not in err.strip()


@pytest.mark.parametrize("sizes", [["--Lx", "0", "--Ly", "0"], ["--Lx", "0"], ["--Ly", "0"]],
                         ids=["both-0", "Lx-0", "Ly-0"])
def test_code_info_refuses_small_double_semion(tmp_path, capsys, sizes):
    # an explicit size below 2 is refused, not replaced by --L
    rc = main(["code", "info", "--kind", "double-semion", *sizes, "--outdir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Lx, Ly >= 2" in err and "\n" not in err.strip()
    assert not list(tmp_path.iterdir())


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"P": 4}))
    record, _ = run(
        ["game", "parity", "--classical", "--config", str(cfg)], tmp_path, "cfgd"
    )
    assert record["config"]["P"] == 4


@pytest.mark.parametrize("flag", [["--L=5"], ["--L", "5"]])
def test_explicit_flag_overrides_config_file(tmp_path, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"L": 3}))
    record, _ = run(
        ["code", "info", "--kind", "tc2d", *flag, "--config", str(cfg)], tmp_path, "cfgo"
    )
    assert record["config"]["L"] == 5
    assert record["info"]["n"] == 2 * 5 * 5


def test_game_parity_xcube(tmp_path):
    record, _ = run(
        ["game", "parity", "--code", "xcube", "--L", "3", "--variant", "cage"], tmp_path, "xcg"
    )
    assert record["p_q"]["fraction"] == "1/1"


def test_game_parity_tc3d(tmp_path):
    record, _ = run(
        ["game", "parity", "--code", "tc3d-faces", "--L", "2"], tmp_path, "t3f"
    )
    assert record["p_q"]["fraction"] == "1/1"


def test_sweep_deformation_rejects_other_codes(tmp_path, capsys):
    rc = main(["sweep", "deformation", "--code", "xcube", "--L", "2", "--outdir", str(tmp_path)])
    assert rc == 1
    assert "--code" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_sweep_deformation_rejects_stripped_sector(tmp_path, capsys):
    # argparse turns --sector=-- into an empty list; the run must not go ahead
    # with the winding sectors left unfixed
    rc = main(["sweep", "deformation", "--L", "2", "--sector=--", "--outdir", str(tmp_path)])
    assert rc == 1
    assert "--sector" in capsys.readouterr().err


def test_sweep_deformation_sector_from_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sector": "--"}))
    record, _ = run(
        ["sweep", "deformation", "--L", "2", "--thetas", "0", "--config", str(cfg)], tmp_path, "swc"
    )
    assert record["config"]["sector"] == "--"
    assert abs(record["sweep"][0]["p_q"] - 1.0) < 1e-10


@pytest.mark.parametrize("grid", ["0:0.5:0", "0:0.5:-0.1", "0.5:0:-0.1"])
def test_parse_thetas_rejects_nonpositive_step(grid):
    from stabgames.cli import _parse_thetas

    with pytest.raises(ValueError, match="step"):
        _parse_thetas(grid)


@pytest.mark.parametrize("grid", [
    "0.1:0:0.05", "nan", "inf", "0,-inf", "0:nan:0.1", "0:1e9:1", "0:0:5e-324",
    "1e9:1e9:1e-10", "", "0:1", "0,,1",
], ids=["empty", "nan", "inf", "list-inf", "nan-stop", "1e9-points", "denormal-step",
        "stalled-step", "blank", "two-fields", "blank-item"])
def test_sweep_deformation_refuses_bad_thetas(tmp_path, capsys, grid):
    # each of these exited 0 with an empty or NaN sweep, or hung building
    # the grid; now the grid is refused before anything is built
    rc = main(["sweep", "deformation", "--L", "2", f"--thetas={grid}", "--outdir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--thetas" in err
    assert not list(tmp_path.iterdir())


def test_parse_thetas_caps_the_point_count():
    from stabgames.cli import MAX_THETAS, _parse_thetas

    assert len(_parse_thetas(f"0:{MAX_THETAS - 1}:1")) == MAX_THETAS
    with pytest.raises(ValueError, match="points"):
        _parse_thetas(f"0:{MAX_THETAS}:1")
    assert len(_parse_thetas(",".join(["0.5"] * MAX_THETAS))) == MAX_THETAS
    with pytest.raises(ValueError, match="points"):
        _parse_thetas(",".join(["0.5"] * (MAX_THETAS + 1)))


def test_workers_only_on_classical_search_commands(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["code", "info", "--kind", "tc2d", "--workers", "2", "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    # the classical optima run in one process: --workers accepts only 1
    for command in (["game", "parity", "--classical", "--P", "3"],
                    ["game", "magic-square", "--classical", "--d", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--workers", "2", "--outdir", str(tmp_path)])
        assert exc.value.code == 2
    record, _ = run(["game", "parity", "--classical", "--P", "3", "--workers", "1"], tmp_path, "w")
    assert record["p_cl"]["fraction"] == "3/4"
    record, _ = run(
        ["game", "magic-square", "--classical", "--d", "2", "--workers", "1"], tmp_path, "wm"
    )
    assert record["p_cl"]["fraction"] == "8/9"


def test_quantum_magic_square_rejects_other_d(tmp_path, capsys):
    # the quantum strategy always runs on the d=4 double-semion code
    rc = main(["game", "magic-square", "--d", "6", "--outdir", str(tmp_path)])
    assert rc == 1
    assert "--d" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("d", ["0", "-2"])
def test_classical_magic_square_refuses_d_below_two(tmp_path, capsys, d):
    rc = main(["game", "magic-square", "--classical", "--d", d, "--outdir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "d >= 2" in err and "\n" not in err.strip()
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("config, key", [
    ({"P": "5"}, "'P'"),  # a string where the option parses to an int
    ({"workers": 3}, "'workers'"),  # outside the option's choices
    ({"bogus": 1}, "'bogus'"),  # names no option of the command
], ids=["string-for-int", "invalid-choice", "unknown-key"])
def test_config_values_go_through_the_parser(tmp_path, capsys, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["game", "parity", "--classical", "--config", str(cfg), "--outdir", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--config" in err and key in err
    assert not out.exists()


def test_sweep_deformation_sector_list_from_config(tmp_path):
    # the route the --sector error message recommends, sign by sign
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sector": ["-", "-"]}))
    record, _ = run(
        ["sweep", "deformation", "--L", "2", "--thetas", "0", "--config", str(cfg)], tmp_path, "swl"
    )
    assert record["config"]["sector"] == "--"
    assert abs(record["sweep"][0]["p_q"] - 1.0) < 1e-10


@pytest.mark.parametrize("sector", ["++", "+-", "-+", "--"])
def test_sweep_deformation_l3_every_sector(tmp_path, sector):
    # at L = 3 the +- and -- states have no support on the 64 lowest basis
    # states; a bare "--" does not survive the option parser, so every sector
    # goes through --config
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sector": sector}))
    record, _ = run(
        ["sweep", "deformation", "--L", "3", "--thetas", "0,0.1", "--config", str(cfg)],
        tmp_path, "l3",
    )
    assert record["config"]["sector"] == sector
    assert abs(record["sweep"][0]["p_q"] - 1.0) < 1e-10
    assert record["sweep"][1]["p_q"] < 1.0


@pytest.mark.parametrize("family", ["z", "x"])
def test_sweep_at_large_angles_writes_no_nan(tmp_path, family):
    # exp(theta * weight) and cosh/sinh overflowed at theta = 50 and 400;
    # deform now scales them, so every row is a probability
    record, csv = run(
        ["sweep", "deformation", "--L", "2", "--family", family, "--thetas", "0,2,50,400"],
        tmp_path, family,
    )
    text = (tmp_path / f"{family}.json").read_text()
    assert "NaN" not in text and "Infinity" not in text
    assert "nan" not in csv and "inf" not in csv
    assert [row["theta"] for row in record["sweep"]] == [0, 2, 50, 400]
    assert all(0.5 <= row["p_q"] <= 1 for row in record["sweep"])


# p_q and mermin of `sweep deformation --L 3 --thetas 0,0.2` at theta = 0.2,
# recorded before the dense kernel split each operator over two half registers
L3_SWEEP_AT_0_2 = {
    "z": (0.8523182298844547, 2.8185458390756377),
    "x": (0.8210108559322269, 2.568086847457815),
}


@pytest.mark.parametrize("family", sorted(L3_SWEEP_AT_0_2))
def test_sweep_deformation_l3_values(tmp_path, family):
    # n = 18: the kernel's halves are 9 and 9 sites; the floats pass through
    # norms and inner products, so they are compared with a tolerance
    record, _ = run(
        ["sweep", "deformation", "--L", "3", "--family", family, "--thetas", "0,0.2"],
        tmp_path, family,
    )
    zero, moved = record["sweep"]
    assert zero["theta"] == 0.0 and abs(zero["p_q"] - 1.0) < 1e-10
    p_q, mermin = L3_SWEEP_AT_0_2[family]
    assert moved["theta"] == 0.2
    assert abs(moved["p_q"] - p_q) < 1e-12
    assert abs(moved["mermin"] - mermin) < 1e-12


# SHA-256 of the JSON and CSV of `game magic-square --Lx X --Ly Y`, recorded
# before the vectorised Weyl kernel replaced the per-operator elimination
MAGIC_SQUARE_DIGESTS = {
    (8, 10): ("7bd8a1cea65486ecb00ec18ea9a093046c3218533529f0af83fdf36bb064b9d5",
              "5663b2f8fbcbc5919f984094da88b0dbe86d2256711db0bdd00d102e25cc1cf5"),
    (9, 11): ("20eb309c11aa5368db45c82f1998a3bbcbc46cdc74ef7993c1a35ffb7c6eea15",
              "5663b2f8fbcbc5919f984094da88b0dbe86d2256711db0bdd00d102e25cc1cf5"),
    (12, 12): ("73df201d91a7eeef41ffd83c30afa0711b7663eae21e0b58e9a9f5de62c4348d",
               "5663b2f8fbcbc5919f984094da88b0dbe86d2256711db0bdd00d102e25cc1cf5"),
}


@pytest.mark.parametrize("size", sorted(MAGIC_SQUARE_DIGESTS), ids=lambda s: f"{s[0]}x{s[1]}")
def test_magic_square_outputs_pinned(tmp_path, size):
    import hashlib

    lx, ly = size
    assert main(["game", "magic-square", "--Lx", str(lx), "--Ly", str(ly),
                 "--outdir", str(tmp_path), "--tag", "ms"]) == 0
    got = tuple(hashlib.sha256((tmp_path / f"ms.{ext}").read_bytes()).hexdigest()
                for ext in ("json", "csv"))
    assert got == MAGIC_SQUARE_DIGESTS[size]


@pytest.mark.parametrize("args, flag", [
    (["game", "parity", "--code", "xcube", "--L", "4", "--P", "7"], "--P"),
    (["game", "parity", "--code", "tc3d-edges", "--L", "2", "--P", "4"], "--P"),
    (["game", "parity", "--code", "tc2d", "--L", "4", "--variant", "windng"], "--variant"),
    (["game", "parity", "--code", "ghz", "--variant", "winding"], "--variant"),
    (["strategy", "validate", "--code", "tc3d-faces", "--L", "2", "--variant", "cage"], "--variant"),
    (["game", "parity", "--code", "tc2d", "--L", "4", "--Lx", "4"], "--Lx"),
    (["strategy", "validate", "--code", "xcube", "--L", "3", "--Ly", "3"], "--Ly"),
    (["code", "info", "--kind", "tc2d", "--L", "4", "--Lx", "5"], "--Lx"),
    (["game", "parity", "--classical", "--code", "xcube", "--variant", "cage",
      "--Lx", "5", "--P", "4"], "--code"),
    (["game", "parity", "--classical", "--variant", "winding"], "--variant"),
    (["game", "parity", "--classical", "--L", "5"], "--L"),
    (["game", "magic-square", "--classical", "--d", "2", "--Lx", "9"], "--Lx"),
    (["game", "magic-square", "--classical", "--Ly", "9"], "--Ly"),
    (["game", "cellulation", "--fan", "--blocks", "3x3"], "--blocks"),
    (["game", "parity", "--code", "ghz", "--L", "9"], "--L"),
    (["game", "parity", "--L", "3"], "--L"),
    (["strategy", "validate", "--code", "ghz", "--L", "3"], "--L"),
], ids=["xcube-P", "tc3d-P", "tc2d-variant", "ghz-variant", "tc3d-variant",
        "parity-Lx", "validate-Ly", "info-Lx", "classical-code", "classical-variant",
        "classical-L", "classical-square-Lx", "classical-square-Ly", "fan-blocks",
        "ghz-L", "default-ghz-L", "validate-ghz-L"])
def test_ignored_flags_are_refused(tmp_path, capsys, args, flag):
    # a flag the chosen code or strategy does not use must not be recorded as if it had been
    rc = main(args + ["--outdir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ["--code", "tc2d", "--L", "4", "--variant", "contractible"],
    ["--code", "tc2d", "--L", "4", "--P", "4", "--variant", "winding"],
    ["--code", "xcube", "--L", "3", "--P", "3"],
], ids=["tc2d-contractible", "tc2d-winding", "xcube-P3"])
def test_flags_the_strategy_uses_are_accepted(tmp_path, args):
    record, _ = run(["game", "parity", *args], tmp_path, "ok")
    assert record["p_q"]["fraction"] == "1/1"


@pytest.mark.parametrize("args, expected", [
    (["game", "parity", "--classical", "--P", "4"],
     {"code": "ghz", "L": 3, "P": 4, "classical": True, "variant": None}),
    (["game", "parity", "--P", "4"], {"code": "ghz", "L": 3}),
    (["strategy", "validate", "--code", "ghz", "--P", "4"], {"code": "ghz", "L": 3}),
    (["game", "magic-square", "--classical", "--d", "2"], {"Lx": 8, "Ly": 10}),
    (["game", "cellulation", "--fan", "--L", "5"], {"blocks": "2x2", "fan": True}),
], ids=["classical-parity", "ghz-parity", "ghz-validate", "classical-square", "fan"])
def test_unset_options_record_their_defaults(tmp_path, args, expected):
    # options a run may ignore default to None, so that a given value can be
    # refused; an unset one is still recorded with its documented default
    record, _ = run(args, tmp_path, "def")
    assert {k: record["config"][k] for k in expected} == expected


# SHA-256 of the JSON and CSV of each command, recorded before both games
# were scored by one per-input rule (the parity runs: before the stabilizer
# scoring moved to one quadratic form per evaluation); the sweeps' floats
# come from a dense state vector (x86-64, numpy 2.4).  The cellulation JSON
# was re-recorded when one exact sum replaced enumeration and sampling: the
# config lost "samples" and the meta "exhaustive" and "seed", and the
# default run now scores all 65536 inputs; the other two CSVs kept their bytes.
# The sweeps were re-recorded when the dense state came to be built on its
# support orbit and expectations summed block by block: their floats moved in
# the last digits (at most 1.8e-15; the theta = 0 row reads
# 0.9999999999999999 and 3.999999999999999, against 1.0 and 4.000000000000001).
# They were re-recorded again when the undeformed state became exact phase
# planes, so the theta = 0 row reads exactly 1.0 and 4.0, and deform came to
# scale its factors against overflow: the other rows moved by at most 7.1e-15.
SCORED_RUN_DIGESTS = {
    "parity-tc2d-L32-P12": (
        ["game", "parity", "--code", "tc2d", "--L", "32", "--P", "12"],
        "e00bd051b8fe4cd7bd6ad2e231b18e43741e488dc20c402c65154de1c9dd3fde",
        "530770ad1ab0398afdbc19b5f04a9452585e2e0ec751600f8355b14ad4773a49"),
    "parity-mermin": (
        ["game", "parity", "--P", "3"],
        "12a81e00ccebd70890fb96e245a6e97f0be805351bfcc3945d45fb6085fce0f9",
        "513db2251bd97f96997ae27644612b9ef26627e54e919379757e447a164fe876"),
    "parity-tc2d-winding": (
        ["game", "parity", "--code", "tc2d", "--L", "6", "--P", "5", "--variant", "winding"],
        "b9315b64d5b2a91f41df035da5cd072bd249ae8a422da98ec303fb72d73b0dbf",
        "49ef775e1b02b1bb173d67cbf1bdebfaba2da97312510a53a49f36456050411d"),
    "sweep-z": (
        ["sweep", "deformation", "--L", "2", "--family", "z"],
        "e624813263d1a054fbcf7a405112e0d1f6bcd17af16ebe481420514d244199c7",
        "0054c87c9723cc864e7f7e6849d3bbcd1438eeb442e487fc6bea913f0bda2033"),
    "cellulation": (
        ["game", "cellulation"],
        "159060101c2c4932abb128b59a84ff2310e83e66f69bdf3c979366e7182a98a0",
        "f628207a4f2668681f00cea0873992c7b22519f11c03e06c419eddab5ca9b329"),
    "cellulation-fan-unit-z": (
        ["game", "cellulation", "--fan", "--restrict-unit-z"],
        "11bb555e30a5008f3a0e7527e63fb982d5e58a5ae497253be7d9002b2ae77733",
        "e77b05e7f94771bab1f2931080408eb55a0dba38244d23af83dd7c7f7b7ab13d"),
    "cellulation-blocks-3x2": (
        ["game", "cellulation", "--blocks", "3x2"],
        "aef6591e2595689fab3acbd72a14d26e6f1d65c5d24089b010d0ce001c94c9ff",
        "a8fa3c23bf6563bedb100faab5173a031099772391911cda3273ac0584dd9ce4"),
    "sweep-x": (
        ["sweep", "deformation", "--L", "2", "--family", "x", "--sector", "++"],
        "42069daa68d649eef5633c544baab449c2f326cb353334ecf11890e9d139b623",
        "71e71070ed327d4d454d1ffda0e031acfc34b021de475d8c414bf4ffe269ae02"),
}


@pytest.mark.parametrize("name", sorted(SCORED_RUN_DIGESTS))
def test_scored_run_outputs_pinned(tmp_path, name):
    import hashlib

    args, *digests = SCORED_RUN_DIGESTS[name]
    assert main(args + ["--outdir", str(tmp_path), "--tag", "run"]) == 0
    got = [hashlib.sha256((tmp_path / f"run.{ext}").read_bytes()).hexdigest()
           for ext in ("json", "csv")]
    assert got == digests


def test_code_info_double_semion_takes_lx_ly(tmp_path):
    record, _ = run(
        ["code", "info", "--kind", "double-semion", "--Lx", "4", "--Ly", "3"], tmp_path, "ds"
    )
    assert record["info"]["n"] == 2 * 4 * 3


@pytest.mark.parametrize("blocks", ["0x3", "3x0", "3", "3x3x3", "ax3", "-3x3", ""])
def test_game_cellulation_rejects_malformed_blocks(tmp_path, capsys, blocks):
    rc = main(["game", "cellulation", "--L", "6", f"--blocks={blocks}", "--outdir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--blocks" in err and "BXxBY" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag", [["--samples", "5"], ["--max-exhaustive-bits", "16"]],
                         ids=["samples", "max-exhaustive-bits"])
def test_game_cellulation_refuses_removed_sampling_options(tmp_path, flag):
    # every input is scored exactly, so nothing chooses between enumeration
    # and sampling any more, on the command line or in a config file
    with pytest.raises(SystemExit) as exc:
        main(["game", "cellulation", *flag, "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    key = flag[0][2:].replace("-", "_")
    cfg.write_text(json.dumps({key: int(flag[1])}))
    with pytest.raises(SystemExit) as exc:
        main(["game", "cellulation", "--config", str(cfg), "--outdir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_game_cellulation_scores_every_input_at_scale(tmp_path):
    # 70 input bits: one exact sum, where enumeration would take 2^70 inputs
    record, csv = run(["game", "cellulation", "--L", "12", "--blocks", "2x2"], tmp_path, "big")
    assert record["p_q"]["fraction"] == "1/1"
    assert record["meta"]["bits"] == 70 and record["inputs"] == 1 << 70
    assert csv.splitlines()[1] == f"2x2,{1 << 70},1.0"


def test_game_cellulation_blocks_from_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"blocks": "3x3"}))
    record, _ = run(["game", "cellulation", "--L", "6", "--config", str(cfg)], tmp_path, "cb")
    assert record["config"]["blocks"] == "3x3"
    assert record["p_q"]["fraction"] == "1/1"


def _run_python(script, *argv, timeout=None):
    """Run script in a fresh interpreter that imports this stabgames."""
    src = str(Path(stabgames.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script), *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_classical_games_load_no_engine(tmp_path):
    # a fresh interpreter, as for every CLI run: the classical games must not
    # pay for numpy or the engine modules, and the package's names still resolve
    script = f"""
        import sys
        import stabgames.cli

        for args in (["game", "parity", "--classical", "--P", "12"],
                     ["game", "magic-square", "--classical", "--d", "4"]):
            assert stabgames.cli.main(args + ["--outdir", {str(tmp_path)!r}]) == 0
        heavy = ["numpy", "stabgames.tableau", "stabgames.dense", "stabgames.complexes",
                 "stabgames.strategies", "stabgames.codes", *{FAMILIES!r}]
        loaded = [m for m in heavy if m in sys.modules]
        assert not loaded, loaded

        import stabgames
        for name in stabgames.__all__:
            assert getattr(stabgames, name) is not None, name
        from stabgames import dense, weyl
        assert dense.state_from_group and weyl.w_multiply
        try:
            stabgames.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("unknown names must raise AttributeError")
    """
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "game_parity.json").read_text())["p_cl"]["fraction"] == "33/64"


def test_qubit_commands_load_no_numpy(tmp_path):
    # the qubit codes are scored by the packed GF(2) tableau in Python ints;
    # only the dense oracle needs numpy
    script = f"""
        import sys
        import stabgames.cli

        for args in (["game", "parity", "--code", "tc2d", "--L", "4", "--P", "3"],
                     ["code", "info", "--kind", "tc2d", "--L", "4"],
                     ["strategy", "validate", "--code", "xcube", "--L", "3"],
                     ["game", "cellulation", "--L", "6", "--blocks", "3x3"]):
            assert stabgames.cli.main(args + ["--outdir", {str(tmp_path)!r}]) == 0, args
        loaded = [m for m in ("numpy", "stabgames.dense") if m in sys.modules]
        assert not loaded, loaded
    """
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "game_parity.json").read_text())["p_q"]["fraction"] == "1/1"
    assert json.loads((tmp_path / "strategy_validate.json").read_text())["ok"]
    assert json.loads((tmp_path / "game_cellulation.json").read_text())["p_q"]["fraction"] == "1/1"


def test_commands_load_no_dataclass_machinery(tmp_path):
    # the records are plain classes, so no command pays for dataclasses and
    # the inspect, ast and dis modules it imports; the classical game loads
    # only the games module from the engine
    script = f"""
        import sys
        import stabgames.cli

        def run(*args):
            assert stabgames.cli.main([*args, "--outdir", {str(tmp_path)!r}, "--tag", args[1]]) == 0

        run("game", "parity", "--classical", "--P", "12")
        package = sorted(m for m in sys.modules if m.split(".")[0] == "stabgames")
        assert package == ["stabgames", "stabgames.cli", "stabgames.games"], package
        run("game", "parity", "--code", "tc2d", "--L", "4", "--P", "3")
        run("game", "magic-square", "--Lx", "8", "--Ly", "10")
        loaded = [m for m in ("dataclasses", "inspect") if m in sys.modules]
        assert not loaded, loaded
    """
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "parity.json").read_text())["p_q"]["fraction"] == "1/1"
    assert json.loads((tmp_path / "magic-square.json").read_text())["p_q"]["fraction"] == "1/1"


# the strategy families, one module each
FAMILIES = ("stabgames.parity2d", "stabgames.parity3d", "stabgames.cellulation", "stabgames.semion")


@pytest.mark.parametrize("commands, unloaded", [
    ([["game", "magic-square", "--Lx", "8", "--Ly", "10"],
      ["code", "info", "--kind", "double-semion", "--L", "4"]],
     ["stabgames.complexes", "stabgames.strategies", "stabgames.parity2d",
      "stabgames.parity3d", "stabgames.cellulation"]),
    ([["game", "parity", "--code", "tc2d", "--L", "4", "--P", "3"]],
     ["stabgames.parity3d", "stabgames.cellulation", "stabgames.semion"]),
    ([["strategy", "validate", "--code", "xcube", "--L", "3"]],
     ["stabgames.parity2d", "stabgames.cellulation", "stabgames.semion"]),
], ids=["double-semion", "tc2d", "xcube"])
def test_commands_load_only_their_strategy_family(tmp_path, commands, unloaded):
    # a fresh interpreter per case: each command compiles its own strategy
    # family, and the double semion needs no cell complex nor the qubit records
    script = f"""
        import sys
        import stabgames.cli

        for args in {commands!r}:
            assert stabgames.cli.main(args + ["--outdir", {str(tmp_path)!r}]) == 0, args
        loaded = [m for m in {unloaded!r} if m in sys.modules]
        assert not loaded, loaded
    """
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr


def test_dense_loads_no_complexes():
    # the dense oracle's job imports the tableau, which takes its bit helper
    # from pauli: the cell-complex module stays unloaded
    proc = _run_python(f"""
        import sys
        import stabgames.dense

        assert "stabgames.complexes" not in sys.modules
        loaded = [m for m in {FAMILIES!r} if m in sys.modules]
        assert not loaded, loaded
    """)
    assert proc.returncode == 0, proc.stderr


def test_weyl_commands_load_no_numpy(tmp_path):
    # Weyl groups keep their Howell rows in Python ints too, so the
    # double-semion commands load neither numpy nor the dense oracle
    script = f"""
        import sys
        import stabgames.cli

        for args in (["game", "magic-square", "--Lx", "8", "--Ly", "10"],
                     ["code", "info", "--kind", "double-semion", "--L", "4"]):
            assert stabgames.cli.main(args + ["--outdir", {str(tmp_path)!r}]) == 0, args
        loaded = [m for m in ("numpy", "stabgames.dense") if m in sys.modules]
        assert not loaded, loaded
    """
    proc = _run_python(script)
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "game_magic-square.json").read_text())
    assert record["p_q"]["fraction"] == "1/1"
    assert json.loads((tmp_path / "code_info.json").read_text())["info"]["kind"] == "double_semion"


@pytest.mark.parametrize("args", [
    ["--P", "21"],
    ["--code", "tc2d", "--L", "32", "--P", "24"],
    ["--code", "xcube", "--L", "3", "--P", "21"],
])
def test_quantum_parity_caps_players(tmp_path, args):
    # every one of the 2^(P-1) inputs is scored and written, so P = 24 would
    # run for minutes: the cap is checked before any code is built, and the
    # run is a subprocess under a timeout so that a missing cap cannot hang
    script = """
        import sys
        import stabgames.cli

        def unbuilt(args):
            raise AssertionError("code built before the --P check")

        stabgames.cli._build_code = unbuilt
        sys.exit(stabgames.cli.main(sys.argv[1:]))
    """
    proc = _run_python(script, "game", "parity", *args, "--outdir", str(tmp_path), timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: --P: "), proc.stderr
    assert "P = 20" in proc.stderr
    assert not list(tmp_path.iterdir())
