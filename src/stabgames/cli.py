"""Batch experiment runner.

Subcommands build codes, validate strategies, evaluate games and sweep
deformations; every run writes a JSON record and a CSV table, both stamped
with the library version, a hash of the effective configuration, and the
seed.  Outputs are deterministic given the seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .codes import (
    code_info,
    double_semion,
    exchange_statistics,
    toric2d,
    toric2d_winding_z_fixers,
    toric3d_edges,
    toric3d_faces,
    xcube,
)
from .complexes import build_torus_2d, build_torus_3d
from .dense import deform, state_from_group
from .games import (
    CellulationGame,
    cellulation_game_eval,
    classical_optimum_magic_square,
    classical_optimum_parity,
    magic_square_eval,
    quantum_parity_eval,
)
from .strategies import (
    block_cellulation_ops,
    ds_magic_square_ops,
    fan_cellulation_ops,
    ghz_ops,
    tc2d_parity_ops,
    tc3d_1form_ops,
    tc3d_2form_ops,
    validate,
    xcube_ops,
)


def _num(x):
    """JSON form of a probability: exact fraction string plus float."""
    if isinstance(x, Fraction):
        return {"fraction": f"{x.numerator}/{x.denominator}", "float": float(x)}
    if isinstance(x, complex):
        return {"float": x.real if abs(x.imag) < 1e-12 else [x.real, x.imag]}
    return {"float": float(x)}


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _emit(args, cfg: dict, record: dict, csv_rows, csv_header):
    outdir = Path(args.outdir or os.environ.get("STABGAMES_OUTDIR", "."))
    outdir.mkdir(parents=True, exist_ok=True)
    stamp = {
        "version": __version__,
        "config": cfg,
        "config_hash": _config_hash(cfg),
        "seed": args.seed,
    }
    record = {**stamp, **record}
    base = outdir / (args.tag or cfg["command"].replace(" ", "_"))
    json_path = base.with_suffix(".json")
    csv_path = base.with_suffix(".csv")
    with open(json_path, "w") as f:
        json.dump(record, f, indent=2, default=str)
        f.write("\n")
    with open(csv_path, "w") as f:
        f.write(",".join(csv_header) + "\n")
        for row in csv_rows:
            f.write(",".join(str(v) for v in row) + "\n")
    print(json.dumps({k: record[k] for k in ("config_hash", "version")}
                     | {"json": str(json_path), "csv": str(csv_path)}))
    return 0


_LATTICE_CODES = {"tc2d": toric2d, "tc3d-faces": toric3d_faces,
                  "tc3d-edges": toric3d_edges, "xcube": xcube}
# --variant values of each code's parity strategy
_PARITY_VARIANTS = {"ghz": (), "tc2d": ("contractible", "winding"),
                    "tc3d-faces": (), "tc3d-edges": (), "xcube": ("prism", "cage")}


def _resolve(args, ignored, why: str, **defaults) -> None:
    """Refuse each option named in ignored that was given, as the run would
    ignore it; then give each option in defaults that was not given (None)
    its default value."""
    for dest in ignored:
        if getattr(args, dest) is not None:
            raise ValueError(f"--{dest}: {why}")
    for dest, value in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _build_code(args):
    kind = args.code
    if kind not in ("ghz", "double-semion", *_LATTICE_CODES):
        raise ValueError(f"unknown code kind {kind!r}")
    if kind != "double-semion" and (args.Lx is not None or args.Ly is not None):
        flag = "--Lx" if args.Lx is not None else "--Ly"
        raise ValueError(f"{flag}: only the double-semion code takes --Lx/--Ly, got code {kind!r}")
    if kind == "ghz":
        return None
    if kind == "double-semion":
        return double_semion(args.Lx or args.L, args.Ly or args.L)
    return _LATTICE_CODES[kind](args.L)


def _build_strategy(args, code):
    if args.code not in _PARITY_VARIANTS:
        raise ValueError(f"no parity strategy for code {args.code!r}")
    variants = _PARITY_VARIANTS[args.code]
    if args.variant is not None and args.variant not in variants:
        takes = "one of " + ", ".join(variants) if variants else "no variant"
        raise ValueError(
            f"--variant: the {args.code} strategy takes {takes}, got {args.variant!r}"
        )
    if args.code == "ghz":
        ops = ghz_ops(args.P)
    elif args.code == "tc2d":
        ops = tc2d_parity_ops(code, args.P, winding=args.variant == "winding")
    elif args.code == "tc3d-faces":
        ops = tc3d_1form_ops(code)
    elif args.code == "tc3d-edges":
        ops = tc3d_2form_ops(code)
    else:
        ops = xcube_ops(code, args.variant or "prism")
    if ops.players != args.P:
        raise ValueError(f"--P: the {args.code} strategy has {ops.players} players, got {args.P}")
    return ops


def cmd_code_info(args):
    code = _build_code(args)
    if code is None:
        raise ValueError("code info needs a concrete code kind")
    info = code_info(code)
    cfg = {"command": "code info", "code": args.code, "L": args.L,
           "Lx": args.Lx, "Ly": args.Ly}
    rows = [[info["kind"], info["d"], info["n"], info["rank"],
             info["redundancies"], info["ground_space_log_dim"]]]
    header = ["kind", "d", "n", "rank", "redundancies", "ground_space_log_dim"]
    return _emit(args, cfg, {"info": info}, rows, header)


def cmd_complex_info(args):
    cell = build_torus_2d(args.L) if args.lattice == "torus2d" else build_torus_3d(args.L)
    chain = cell.to_chain()
    hom = [chain.homology_dim(i) for i in range(len(chain.dims))]
    cfg = {"command": "complex info", "lattice": args.lattice, "L": args.L}
    record = {
        "dims": list(chain.dims),
        "homology": hom,
        "boundary_squares_to_zero": chain.check_boundary_squares_to_zero(),
        "euler_check": chain.euler_check(),
    }
    rows = [[args.lattice, args.L, " ".join(map(str, chain.dims)), " ".join(map(str, hom))]]
    return _emit(args, cfg, record, rows, ["lattice", "L", "dims", "homology"])


def cmd_strategy_validate(args):
    _resolve(args, ["L"] if args.code == "ghz" else [], "the ghz code has no lattice size", L=3)
    code = _build_code(args)
    ops = _build_strategy(args, code)
    report = validate(ops)
    cfg = {"command": "strategy validate", "code": args.code, "L": args.L,
           "P": args.P, "variant": args.variant}
    record = {
        "ok": report.ok,
        "commutation_ok": report.commutation_ok,
        "hermitian_ok": report.hermitian_ok,
        "problems": report.problems,
        "constraints": [
            {"label": c.label, "kind": kind, "phase_exp": got}
            for (c, kind, got) in report.constraint_results
        ],
    }
    rows = [[c.label, kind, got] for (c, kind, got) in report.constraint_results]
    return _emit(args, cfg, record, rows, ["constraint", "kind", "phase_exp"])


def cmd_game_parity(args):
    _resolve(args, ["code", "L", "Lx", "Ly", "variant"] if args.classical else [],
             "the classical parity game takes only --P", code="ghz")
    _resolve(args, ["L"] if args.code == "ghz" else [], "the ghz code has no lattice size", L=3)
    cfg = {"command": "game parity", "code": args.code, "L": args.L, "P": args.P,
           "classical": args.classical, "variant": args.variant}
    if args.classical:
        opt, witness = classical_optimum_parity(args.P)
        record = {"p_cl": _num(opt), "witness": witness}
        rows = [[args.P, float(opt), f"{opt.numerator}/{opt.denominator}"]]
        return _emit(args, cfg, record, rows, ["P", "p_cl", "p_cl_exact"])
    code = _build_code(args)
    ops = _build_strategy(args, code)
    report = validate(ops)
    if not report.ok:
        raise ValueError(f"strategy failed validation: {report.problems[:2]}")
    ev = quantum_parity_eval(ops)
    record = {
        "p_q": _num(ev.p_q),
        "mermin": None if ev.mermin is None else _num(ev.mermin),
        "per_input": {"".join(map(str, k)): float(v) for k, v in ev.per_input.items()},
    }
    rows = [["".join(map(str, k)), float(v)] for k, v in sorted(ev.per_input.items())]
    rows.append(["average", float(ev.p_q)])
    return _emit(args, cfg, record, rows, ["input", "win_probability"])


def _parse_blocks(text: str):
    """(BX, BY) from a --blocks value of the form BXxBY."""
    m = re.fullmatch(r"(\d+)x(\d+)", text, re.ASCII)
    blocks = (int(m[1]), int(m[2])) if m else (0, 0)
    if min(blocks) < 1:
        raise ValueError(f"--blocks must be BXxBY with positive integers BX and BY, got {text!r}")
    return blocks


def cmd_game_cellulation(args):
    _resolve(args, ["blocks"] if args.fan else [], "the fan cellulation has no blocks",
             blocks="2x2")
    bx, by = _parse_blocks(args.blocks)
    code = toric2d(args.L)
    strat = fan_cellulation_ops(code) if args.fan else block_cellulation_ops(code, bx, by)
    game = CellulationGame(strat)
    ev = cellulation_game_eval(
        game,
        restrict_unit_z=args.restrict_unit_z,
        max_exhaustive=1 << args.max_exhaustive_bits,
        samples=args.samples,
        seed=args.seed,
    )
    cfg = {"command": "game cellulation", "L": args.L, "blocks": args.blocks,
           "fan": args.fan, "restrict_unit_z": args.restrict_unit_z,
           "samples": args.samples}
    record = {"p_q": _num(ev.p_q), "inputs": len(ev.per_input), "meta": ev.meta}
    rows = [[args.blocks if not args.fan else "fan", len(ev.per_input), float(ev.p_q)]]
    return _emit(args, cfg, record, rows, ["cellulation", "inputs", "p_q"])


def cmd_game_magic_square(args):
    _resolve(args, ["Lx", "Ly"] if args.classical else [],
             "the classical magic square has no lattice", Lx=8, Ly=10)
    cfg = {"command": "game magic-square", "d": args.d, "classical": args.classical,
           "Lx": args.Lx, "Ly": args.Ly}
    if args.classical:
        opt, witness = classical_optimum_magic_square(args.d)
        record = {"p_cl": _num(opt), "witness": {k: [list(t) for t in v] for k, v in witness.items()}}
        rows = [[args.d, float(opt), f"{opt.numerator}/{opt.denominator}"]]
        return _emit(args, cfg, record, rows, ["d", "p_cl", "p_cl_exact"])
    if args.d != 4:
        raise ValueError(
            f"--d: the quantum magic square runs on the d=4 double-semion code, got {args.d}"
        )
    code = double_semion(args.Lx, args.Ly)
    ms = ds_magic_square_ops(code)
    rep = magic_square_eval(ms)
    record = {
        "p_q": _num(rep.p_q),
        "rows_ok": [ok for ok, _ in rep.row_identities],
        "cols_ok": [ok for ok, _ in rep.col_identities],
        "cells": {f"{r}{c}": kind for (r, c), (kind, _) in rep.cell_constraints.items()},
        "problems": rep.problems,
        "exchange": {a: str(exchange_statistics(code, a)) for a in ("s", "sbar", "ssbar")},
    }
    rows = [[f"{r}{c}", kind, phase] for (r, c), (kind, phase) in sorted(rep.cell_constraints.items())]
    rows.append(["p_q", float(rep.p_q), ""])
    return _emit(args, cfg, record, rows, ["cell", "kind", "phase_exp"])


def _parse_thetas(grid: str):
    if ":" in grid:
        start, stop, step = (float(t) for t in grid.split(":"))
        if not step > 0:
            raise ValueError(f"--thetas step must be positive, got {grid!r}")
        out = []
        t = start
        while t <= stop + 1e-12:
            out.append(round(t, 10))
            t += step
        return out
    return [float(t) for t in grid.split(",")]


def cmd_sweep_deformation(args):
    if args.code != "tc2d":
        raise ValueError(f"--code: sweep deformation supports only tc2d, got {args.code!r}")
    signs = {"+": 0, "-": 2}
    if len(args.sector) != 2 or any(s not in signs for s in args.sector):
        # argparse strips a bare "--" value, so --sector=-- arrives as []
        raise ValueError(
            f"--sector must be two signs from + and -, got {args.sector!r}"
            " (the option parser drops a bare '--' value; give that sector in --config)"
        )
    code = toric2d(args.L)
    ops = tc2d_parity_ops(code, args.P)
    fixers = [
        f.scale_i(signs[s])
        for f, s in zip(toric2d_winding_z_fixers(code), args.sector)
    ]
    fixed = code.group.fix_sector(fixers)
    base_state = state_from_group(fixed)
    thetas = _parse_thetas(args.thetas)
    results = []
    for theta in thetas:
        state = deform(base_state, args.family, theta) if theta else base_state
        ev = quantum_parity_eval(ops, resource=state)
        results.append((theta, float(ev.p_q), None if ev.mermin is None else float(ev.mermin)))
    cfg = {"command": "sweep deformation", "code": args.code, "L": args.L,
           "P": args.P, "family": args.family, "thetas": args.thetas,
           "sector": args.sector}
    record = {"sweep": [{"theta": t, "p_q": p, "mermin": m} for t, p, m in results]}
    rows = [[t, p, "" if m is None else m] for t, p, m in results]
    return _emit(args, cfg, record, rows, ["theta", "p_q", "mermin"])


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--outdir", default=None)
    sub.add_argument("--tag", default=None)
    sub.add_argument("--config", default=None, help="JSON file with defaults; flags override")


def _add_workers(sub):
    # the classical optima run in one process; "--workers 1" command lines must still parse
    sub.add_argument("--workers", type=int, choices=(1,), default=1,
                     help="accepted for compatibility; only 1 is allowed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stabgames")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("code", help="code-level queries")
    psub = p.add_subparsers(dest="subcommand", required=True)
    pi = psub.add_parser("info")
    pi.add_argument("--kind", dest="code", required=True)
    pi.add_argument("--L", type=int, default=3)
    pi.add_argument("--Lx", type=int, default=None)
    pi.add_argument("--Ly", type=int, default=None)
    _add_common(pi)
    pi.set_defaults(func=cmd_code_info)

    c = sub.add_parser("complex", help="cellulation queries")
    csub = c.add_subparsers(dest="subcommand", required=True)
    ci = csub.add_parser("info")
    ci.add_argument("--lattice", choices=("torus2d", "torus3d"), default="torus2d")
    ci.add_argument("--L", type=int, default=3)
    _add_common(ci)
    ci.set_defaults(func=cmd_complex_info)

    s = sub.add_parser("strategy", help="strategy validation")
    ssub = s.add_subparsers(dest="subcommand", required=True)
    sv = ssub.add_parser("validate")
    sv.add_argument("--code", required=True)
    sv.add_argument("--L", type=int, default=None, help="default 3; not for ghz")
    sv.add_argument("--Lx", type=int, default=None)
    sv.add_argument("--Ly", type=int, default=None)
    sv.add_argument("--P", type=int, default=3)
    sv.add_argument("--variant", default=None)
    _add_common(sv)
    sv.set_defaults(func=cmd_strategy_validate)

    g = sub.add_parser("game", help="evaluate games")
    gsub = g.add_subparsers(dest="subcommand", required=True)
    gp = gsub.add_parser("parity")
    gp.add_argument("--code", default=None, help="default ghz; not with --classical")
    gp.add_argument("--L", type=int, default=None, help="default 3; not for ghz or --classical")
    gp.add_argument("--Lx", type=int, default=None)
    gp.add_argument("--Ly", type=int, default=None)
    gp.add_argument("--P", type=int, default=3)
    gp.add_argument("--classical", action="store_true")
    gp.add_argument("--variant", default=None)
    _add_workers(gp)
    _add_common(gp)
    gp.set_defaults(func=cmd_game_parity)

    gc = gsub.add_parser("cellulation")
    gc.add_argument("--L", type=int, default=6)
    gc.add_argument("--blocks", default=None, help="default 2x2; not with --fan")
    gc.add_argument("--fan", action="store_true")
    gc.add_argument("--restrict-unit-z", action="store_true")
    gc.add_argument("--samples", type=int, default=1024)
    gc.add_argument("--max-exhaustive-bits", type=int, default=14)
    _add_common(gc)
    gc.set_defaults(func=cmd_game_cellulation)

    gm = gsub.add_parser("magic-square")
    gm.add_argument("--d", type=int, default=4)
    gm.add_argument("--classical", action="store_true")
    gm.add_argument("--Lx", type=int, default=None, help="default 8; not with --classical")
    gm.add_argument("--Ly", type=int, default=None, help="default 10; not with --classical")
    _add_workers(gm)
    _add_common(gm)
    gm.set_defaults(func=cmd_game_magic_square)

    sw = sub.add_parser("sweep", help="parameter sweeps")
    swsub = sw.add_subparsers(dest="subcommand", required=True)
    sd = swsub.add_parser("deformation")
    sd.add_argument("--code", default="tc2d")
    sd.add_argument("--L", type=int, default=2)
    sd.add_argument("--P", type=int, default=3)
    sd.add_argument("--family", choices=("z", "x"), default="z")
    sd.add_argument("--thetas", default="0:0.5:0.05")
    sd.add_argument("--sector", choices=("++", "+-", "-+", "--"), default="+-",
                    help="winding-loop eigenvalue signs of the resource state")
    _add_common(sd)
    sd.set_defaults(func=cmd_sweep_deformation)

    return parser


def _leaf_parser(parser: argparse.ArgumentParser, args) -> argparse.ArgumentParser:
    """The subparser that owns the options of the parsed command."""
    for dest in ("command", "subcommand"):
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = subs.choices[getattr(args, dest)]
    return parser


def _config_value(action: argparse.Action, key: str, value):
    """A config value checked as the option's parsed value: a bool for a
    switch, the option's type (str if it has none) otherwise, and one of its
    choices; null only where the option's default is null.  Raises ValueError
    naming the key."""
    if value is None and action.default is None:
        return None
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        value = "".join(value)  # a sector given sign by sign, ["-", "-"]
    expected = bool if action.nargs == 0 else action.type or str
    if type(value) is not expected:
        raise ValueError(f"key {key!r} must be {expected.__name__}, got {value!r}")
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise ValueError(f"key {key!r}: invalid choice {value!r} (choose from {choices})")
    return value


def _apply_config(parser: argparse.ArgumentParser, args, raw) -> None:
    """Fill options from the --config JSON file; explicit flags, given as
    "--key value" or "--key=value", override it.  A key that names no option
    of the command, or a value the option would not parse to, exits 2."""
    leaf = _leaf_parser(parser, args)
    actions = {a.dest: a for a in leaf._actions if a.option_strings and a.dest not in ("help", "config")}
    with open(args.config) as f:
        defaults = json.load(f)
    explicit = {tok.partition("=")[0] for tok in raw if tok.startswith("--")}
    for key, value in defaults.items():
        action = actions.get(key)
        if action is None:
            leaf.error(f"--config: unknown key {key!r}")
        if explicit & set(action.option_strings):
            continue
        try:
            setattr(args, key, _config_value(action, key, value))
        except ValueError as exc:
            leaf.error(f"--config: {exc}")


def main(argv=None) -> int:
    parser = build_parser()
    raw = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(raw)
    if getattr(args, "config", None):
        _apply_config(parser, args, raw)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
