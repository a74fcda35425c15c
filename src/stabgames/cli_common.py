"""What every command handler of the batch runner shares: the JSON form of
a probability, the configuration hash, the --tag check, option resolution,
and the writer of a run's JSON record and CSV table.

The configuration hash is SHA-256 from the interpreter's builtin SHA-2
module, not from hashlib: importing hashlib loads OpenSSL's libcrypto, the
largest single item of a CLI run's memory, for this one digest.  The digest
is the same, and hashlib is the fallback where no builtin module is built.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path

from . import __version__

# lean module first, as CPython's random module takes sha512: the builtin SHA-2
# module is _sha2 since Python 3.12 and _sha256 in 3.10 and 3.11
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def _num(x: Fraction) -> dict:
    """JSON form of an exact probability: its fraction string plus its float."""
    return {"fraction": f"{x.numerator}/{x.denominator}", "float": float(x)}


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    return sha256(blob).hexdigest()[:16]


def _check_tag(tag: str) -> None:
    """Refuse a --tag that is no plain file name in --outdir: the empty tag,
    "." and "..", and any tag holding a path separator.  The outputs are the
    tag with ".json" and ".csv" appended, so dots in a tag are kept."""
    if tag in ("", ".", "..") or any(sep and sep in tag for sep in (os.sep, os.altsep)):
        raise ValueError(f"--tag must be a file name, not empty, '.', '..' or a path; got {tag!r}")


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
    base = str(outdir / (cfg["command"].replace(" ", "_") if args.tag is None else args.tag))
    json_path, csv_path = base + ".json", base + ".csv"
    with open(json_path, "w") as f:
        json.dump(record, f, indent=2, default=str)
        f.write("\n")
    with open(csv_path, "w") as f:
        f.write(",".join(csv_header) + "\n")
        for row in csv_rows:
            f.write(",".join(map(str, row)) + "\n")
    print(json.dumps({k: record[k] for k in ("config_hash", "version")}
                     | {"json": json_path, "csv": csv_path}))
    return 0


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
