"""Batch experiment runner.

Subcommands build codes, validate strategies, evaluate games and sweep
deformations; every run writes a JSON record and a CSV table, both stamped
with the library version, a hash of the effective configuration, and the
seed.  Outputs are deterministic given the seed.

This module holds the parser, the --config handling and the two game
commands that have a classical form; ``cli_common`` holds what every
handler shares, and the handlers that build codes, complexes, strategies or
dense states live in ``cli_commands``, imported only when one of them runs.
Each command imports the modules it uses when it runs, so a process pays
only for its own command: the classical games load the games module and no
other part of the engine (not even the Pauli and Weyl operators), a quantum
game loads only the strategy family it plays, and the commands on qubit and
double-semion codes load no numpy: only the deformed states of the dense
sweep need it.  The package's records are plain classes, so no command
imports dataclasses (nor the inspect, ast and dis modules it loads).
"""

from __future__ import annotations

import argparse
import json
import sys

from .cli_common import _check_tag, _emit, _num, _resolve


def cmd_game_parity(args):
    _resolve(args, ["code", "L", "Lx", "Ly", "variant"] if args.classical else [],
             "the classical parity game takes only --P", code="ghz")
    _resolve(args, ["L"] if args.code == "ghz" else [], "the ghz code has no lattice size", L=3)
    cfg = {"command": "game parity", "code": args.code, "L": args.L, "P": args.P,
           "classical": args.classical, "variant": args.variant}
    if args.classical:
        from .games import classical_optimum_parity

        opt, witness = classical_optimum_parity(args.P)
        record = {"p_cl": _num(opt), "witness": witness}
        rows = [[args.P, float(opt), f"{opt.numerator}/{opt.denominator}"]]
        return _emit(args, cfg, record, rows, ["P", "p_cl", "p_cl_exact"])
    if args.P > 20:  # per_input holds every one of the 2^(P-1) inputs
        raise ValueError(f"--P: the quantum parity game is capped at P = 20, got {args.P}")
    from .cli_commands import _build_code, _build_strategy, _check_strategy
    from .scoring import quantum_parity_eval
    from .strategies import validate

    _check_strategy(args)
    code = _build_code(args)
    ops = _build_strategy(args, code)
    report = validate(ops)
    if not report.ok:
        raise ValueError(f"strategy failed validation: {report.problems[:2]}")
    ev = quantum_parity_eval(ops)
    # each input's label (its P bits as digits) is made once, and so is the
    # float of each distinct win: the wins are a few shared Fractions, looked
    # up by identity, as hashing a Fraction costs more than converting it.
    # The rows reuse both; per_input is in valid_inputs()' order, which is label order
    label = "%d" * args.P
    distinct = {id(w): w for w in ev.per_input.values()}
    floats = {key: float(w) for key, w in distinct.items()}
    per_input = {label % k: floats[id(v)] for k, v in ev.per_input.items()}
    record = {
        "p_q": _num(ev.p_q),
        "mermin": None if ev.mermin is None else _num(ev.mermin),
        "per_input": per_input,
    }
    rows = list(per_input.items())
    rows.append(("average", float(ev.p_q)))
    return _emit(args, cfg, record, rows, ["input", "win_probability"])


def cmd_game_magic_square(args):
    _resolve(args, ["Lx", "Ly"] if args.classical else [],
             "the classical magic square has no lattice", Lx=8, Ly=10)
    cfg = {"command": "game magic-square", "d": args.d, "classical": args.classical,
           "Lx": args.Lx, "Ly": args.Ly}
    if args.classical:
        from .games import classical_optimum_magic_square

        opt, witness = classical_optimum_magic_square(args.d)
        record = {"p_cl": _num(opt), "witness": {k: [list(t) for t in v] for k, v in witness.items()}}
        rows = [[args.d, float(opt), f"{opt.numerator}/{opt.denominator}"]]
        return _emit(args, cfg, record, rows, ["d", "p_cl", "p_cl_exact"])
    if args.d != 4:
        raise ValueError(
            f"--d: the quantum magic square runs on the d=4 double-semion code, got {args.d}"
        )
    from .codes import double_semion, exchange_statistics
    from .semion import ds_magic_square_ops, magic_square_eval

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


def _deferred(name: str):
    """The handler cli_commands.<name>, with that module imported only when
    the handler runs."""

    def run(args):
        from . import cli_commands

        return getattr(cli_commands, name)(args)

    return run


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--outdir", default=None)
    sub.add_argument("--tag", default=None)
    sub.add_argument("--config", default=None, help="JSON file with defaults; flags override")


def _add_workers(sub):
    # the classical optima run in one process; "--workers 1" command lines must still parse
    sub.add_argument("--workers", type=int, choices=(1,), default=1,
                     help="accepted for compatibility; only 1 is allowed")


class _Parser(argparse.ArgumentParser):
    """A parser, and through add_subparsers every parser under it, that takes
    a flag only by its full name: --config overrides only the options not
    given, and it tells them apart by their option strings."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stabgames")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("code", help="code-level queries")
    psub = p.add_subparsers(dest="subcommand", required=True)
    pi = psub.add_parser("info")
    pi.add_argument("--kind", dest="code", required=True)
    pi.add_argument("--L", type=int, default=3)
    pi.add_argument("--Lx", type=int, default=None)
    pi.add_argument("--Ly", type=int, default=None)
    _add_common(pi)
    pi.set_defaults(func=_deferred("cmd_code_info"))

    c = sub.add_parser("complex", help="cellulation queries")
    csub = c.add_subparsers(dest="subcommand", required=True)
    ci = csub.add_parser("info")
    ci.add_argument("--lattice", choices=("torus2d", "torus3d"), default="torus2d")
    ci.add_argument("--L", type=int, default=3)
    _add_common(ci)
    ci.set_defaults(func=_deferred("cmd_complex_info"))

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
    sv.set_defaults(func=_deferred("cmd_strategy_validate"))

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
    _add_common(gc)
    gc.set_defaults(func=_deferred("cmd_game_cellulation"))

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
    sd.set_defaults(func=_deferred("cmd_sweep_deformation"))

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
    args, unknown = parser.parse_known_args(raw)
    if unknown:  # reported with the usage of the command that refused them
        _leaf_parser(parser, args).error(f"unrecognized arguments: {' '.join(unknown)}")
    if getattr(args, "config", None):
        _apply_config(parser, args, raw)
    try:
        if args.tag is not None:
            _check_tag(args.tag)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
