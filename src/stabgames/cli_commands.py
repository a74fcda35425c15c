"""The batch runner's handlers that build codes, complexes, strategies or
dense states: ``code info``, ``complex info``, ``strategy validate``,
``game cellulation`` and ``sweep deformation``, and the code and strategy
builders the quantum parity game shares with them.  The parser in ``cli``
imports this module only when one of them runs.
"""

from __future__ import annotations

import math
import re

from .cli_common import _emit, _num, _resolve


# the codes.py builder of each lattice code kind, looked up when the code is built
_LATTICE_CODES = {"tc2d": "toric2d", "tc3d-faces": "toric3d_faces",
                  "tc3d-edges": "toric3d_edges", "xcube": "xcube"}
# --variant values of each code's parity strategy
_PARITY_VARIANTS = {"ghz": (), "tc2d": ("contractible", "winding"),
                    "tc3d-faces": (), "tc3d-edges": (), "xcube": ("prism", "cage")}


def _build_code(args):
    kind = args.code
    if kind not in ("ghz", "double-semion", *_LATTICE_CODES):
        raise ValueError(f"unknown code kind {kind!r}")
    if kind != "double-semion" and (args.Lx is not None or args.Ly is not None):
        flag = "--Lx" if args.Lx is not None else "--Ly"
        raise ValueError(f"{flag}: only the double-semion code takes --Lx/--Ly, got code {kind!r}")
    if kind == "ghz":
        return None
    from . import codes

    if kind == "double-semion":
        lx, ly = (args.L if v is None else v for v in (args.Lx, args.Ly))
        return codes.double_semion(lx, ly)
    return getattr(codes, _LATTICE_CODES[kind])(args.L)


def _check_strategy(args):
    """Refuse a code with no parity strategy, a --variant its strategy does
    not take, or fewer than 3 players on the codes whose strategy takes any
    --P (the 3D codes' strategies have a fixed number of players, checked
    once they are built); cheap, so it runs before the code is built."""
    if args.code not in _PARITY_VARIANTS:
        raise ValueError(f"no parity strategy for code {args.code!r}")
    if args.code in ("ghz", "tc2d") and args.P < 3:
        raise ValueError("parity game needs at least 3 players")
    variants = _PARITY_VARIANTS[args.code]
    if args.variant is not None and args.variant not in variants:
        takes = "one of " + ", ".join(variants) if variants else "no variant"
        raise ValueError(
            f"--variant: the {args.code} strategy takes {takes}, got {args.variant!r}"
        )


def _build_strategy(args, code):
    # each family's module is imported only by the code that plays it
    if args.code == "ghz":
        from .strategies import ghz_ops

        ops = ghz_ops(args.P)
    elif args.code == "tc2d":
        from .parity2d import tc2d_parity_ops

        ops = tc2d_parity_ops(code, args.P, winding=args.variant == "winding")
    elif args.code == "tc3d-faces":
        from .parity3d import tc3d_1form_ops

        ops = tc3d_1form_ops(code)
    elif args.code == "tc3d-edges":
        from .parity3d import tc3d_2form_ops

        ops = tc3d_2form_ops(code)
    else:
        from .parity3d import xcube_ops

        ops = xcube_ops(code, args.variant or "prism")
    if ops.players != args.P:
        raise ValueError(f"--P: the {args.code} strategy has {ops.players} players, got {args.P}")
    return ops


def cmd_code_info(args):
    from .codes import code_info

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
    from .complexes import build_torus

    cell = build_torus(*[args.L] * (2 if args.lattice == "torus2d" else 3))
    dims = cell.dims()
    hom = [cell.homology_dim(i) for i in range(len(dims))]
    cfg = {"command": "complex info", "lattice": args.lattice, "L": args.L}
    record = {
        "dims": list(dims),
        "homology": hom,
        "boundary_squares_to_zero": True,  # CellComplex refuses a complex with dd != 0
        "euler_check": cell.euler_check(),
    }
    rows = [[args.lattice, args.L, " ".join(map(str, dims)), " ".join(map(str, hom))]]
    return _emit(args, cfg, record, rows, ["lattice", "L", "dims", "homology"])


def cmd_strategy_validate(args):
    from .strategies import validate

    _resolve(args, ["L"] if args.code == "ghz" else [], "the ghz code has no lattice size", L=3)
    _check_strategy(args)
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


def _parse_blocks(text: str):
    """(BX, BY) from a --blocks value of the form BXxBY."""
    m = re.fullmatch(r"(\d+)x(\d+)", text, re.ASCII)
    blocks = (int(m[1]), int(m[2])) if m else (0, 0)
    if min(blocks) < 1:
        raise ValueError(f"--blocks must be BXxBY with positive integers BX and BY, got {text!r}")
    return blocks


def cmd_game_cellulation(args):
    from .codes import toric2d
    from .scoring import CellulationGame, cellulation_game_eval
    from .cellulation import block_cellulation_ops, fan_cellulation_ops

    _resolve(args, ["blocks"] if args.fan else [], "the fan cellulation has no blocks",
             blocks="2x2")
    bx, by = _parse_blocks(args.blocks)
    code = toric2d(args.L)
    strat = fan_cellulation_ops(code) if args.fan else block_cellulation_ops(code, bx, by)
    ev = cellulation_game_eval(CellulationGame(strat), restrict_unit_z=args.restrict_unit_z)
    cfg = {"command": "game cellulation", "L": args.L, "blocks": args.blocks,
           "fan": args.fan, "restrict_unit_z": args.restrict_unit_z}
    inputs = 1 << ev.meta["bits"]  # every input is scored, by one exact sum
    record = {"p_q": _num(ev.p_q), "inputs": inputs, "meta": ev.meta}
    rows = [[args.blocks if not args.fan else "fan", inputs, float(ev.p_q)]]
    return _emit(args, cfg, record, rows, ["cellulation", "inputs", "p_q"])


MAX_THETAS = 10_000  # points in one sweep; each is a dense evaluation


def _parse_thetas(grid: str):
    """The sweep's angles, from START:STOP:STEP or a comma list.  Values that
    are not finite numbers and empty grids are refused, and so is a grid of
    more than MAX_THETAS points, counted before the list is built."""
    sweep = ":" in grid
    usage = f"--thetas takes START:STOP:STEP or a comma list of numbers, got {grid!r}"
    try:
        values = [float(t) for t in grid.split(":" if sweep else ",")]
    except ValueError:
        raise ValueError(usage) from None
    if sweep and len(values) != 3:
        raise ValueError(usage)
    if not all(map(math.isfinite, values)):
        raise ValueError(f"--thetas values must be finite, got {grid!r}")
    if not sweep:
        count = len(values)
    else:
        start, stop, step = values
        if not step > 0:
            raise ValueError(f"--thetas step must be positive, got {grid!r}")
        span = (stop + 1e-12 - start) / step  # may be inf; the loop below makes
        if span < 0:  # floor(span) + 1 points, or one more from rounding
            raise ValueError(f"--thetas grid is empty: start is above stop, got {grid!r}")
        count = math.floor(min(span, MAX_THETAS)) + 1
    if count > MAX_THETAS:
        raise ValueError(f"--thetas grid has more than {MAX_THETAS} points, got {grid!r}")
    if not sweep:
        return values
    out = []
    t = start
    while t <= stop + 1e-12:
        out.append(round(t, 10))
        if t + step == t:
            raise ValueError(f"--thetas step is below the float resolution at {t}, got {grid!r}")
        t += step
    return out


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
    thetas = _parse_thetas(args.thetas)
    from .codes import toric2d, toric2d_winding_z_fixers
    from .dense import deform, state_from_group
    from .scoring import quantum_parity_eval
    from .parity2d import tc2d_parity_ops

    code = toric2d(args.L)
    ops = tc2d_parity_ops(code, args.P)
    fixers = [
        f.scale_i(signs[s])
        for f, s in zip(toric2d_winding_z_fixers(code), args.sector)
    ]
    fixed = code.group.fix_sector(fixers)
    base_state = state_from_group(fixed)
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
