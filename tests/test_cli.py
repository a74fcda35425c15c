"""CLI tests: subcommands, outputs, determinism, error handling."""

import json

import pytest

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


def test_invalid_config_errors(tmp_path, capsys):
    rc = main(["game", "parity", "--code", "nosuch", "--outdir", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "\n" not in err.strip()


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
# were scored by one per-input rule; the sweep's floats come from a dense
# state vector (x86-64, numpy 2.4)
SCORED_RUN_DIGESTS = {
    "cellulation": (
        ["game", "cellulation"],
        "64f98169a7b0f228fa1d531a5182c0c9e67130bed4a35b95b75506ad5af07967",
        "741f634c295cfd303acbd4a0c63a8c231482ebb7342ad4628753d2d33f1369ee"),
    "cellulation-fan-unit-z": (
        ["game", "cellulation", "--fan", "--restrict-unit-z"],
        "a984ebe1f6a31e4b69b51388859cb6a6f884ebdaa8d041987e9d26ba2b5cf92e",
        "e77b05e7f94771bab1f2931080408eb55a0dba38244d23af83dd7c7f7b7ab13d"),
    "cellulation-blocks-3x2": (
        ["game", "cellulation", "--blocks", "3x2"],
        "edc829701d855152046e90492ed98025b9ef28728c48ed0773655f8c02b17f1c",
        "a8fa3c23bf6563bedb100faab5173a031099772391911cda3273ac0584dd9ce4"),
    "sweep-x": (
        ["sweep", "deformation", "--L", "2", "--family", "x", "--sector", "++"],
        "0dc170db06b008e03ad1ddbe582ad6641ccb2784d069109becfccda1d3a4b9f1",
        "e18cc2e17362fbff47a8ef97953da6903b5658d5b5ea9a5463f377272271a13b"),
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


def test_game_cellulation_blocks_from_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"blocks": "3x3"}))
    record, _ = run(["game", "cellulation", "--L", "6", "--config", str(cfg)], tmp_path, "cb")
    assert record["config"]["blocks"] == "3x3"
    assert record["p_q"]["fraction"] == "1/1"
