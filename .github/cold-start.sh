#!/usr/bin/env bash
# Cold-start checks of the CLI: each command loads only the modules it needs,
# none of them loads hashlib (and with it OpenSSL) for the configuration hash,
# and none of them, nor the exact dense oracle, loads numpy.  A cellulation
# game's input map is built from its complex alone, by games and complexes.  Outputs go to the
# directory given as the one argument.
# Usage, from the repository root: bash .github/cold-start.sh OUTDIR
set -eo pipefail
out="${1:?usage: cold-start.sh OUTDIR}"
export PYTHONPATH=src
python -c "import sys, stabgames.cli; assert not {'numpy', 'hashlib', '_hashlib'} & set(sys.modules)"
python -c "import sys, stabgames.cli; assert stabgames.cli.main(['game', 'parity', '--code', 'tc2d', '--L', '4', '--P', '3', '--outdir', sys.argv[1], '--tag', 'qubit4']) == 0; assert not {'numpy', 'dataclasses', 'inspect', 'hashlib', '_hashlib'} & set(sys.modules); assert not {'stabgames.semion', 'stabgames.parity3d', 'stabgames.cellulation'} & set(sys.modules)" "$out"
python -c "import sys, stabgames.cli; assert stabgames.cli.main(['game', 'magic-square', '--Lx', '8', '--Ly', '10', '--outdir', sys.argv[1], '--tag', 'ds8x10']) == 0; assert not {'numpy', 'dataclasses', 'inspect', 'hashlib', '_hashlib'} & set(sys.modules); assert not {'stabgames.complexes', 'stabgames.strategies', 'stabgames.parity2d', 'stabgames.parity3d', 'stabgames.cellulation', 'stabgames.games', 'stabgames.scoring', 'stabgames.cli_commands'} & set(sys.modules)" "$out"
timeout 20 python -c "import sys, stabgames.cli; assert stabgames.cli.main(['game', 'parity', '--classical', '--P', '20', '--outdir', sys.argv[1], '--tag', 'classical20']) == 0; assert sorted(m for m in sys.modules if m.split('.')[0] == 'stabgames') == ['stabgames', 'stabgames.cli', 'stabgames.cli_common', 'stabgames.games']; assert not {'dataclasses', 'inspect', 'hashlib', '_hashlib'} & set(sys.modules)" "$out"
# a cellulation game is its coarse complex and degree: building its input map loads no scoring engine
python -c "import sys; from stabgames.complexes import build_torus; from stabgames.games import CellulationGame; amap, bits = CellulationGame(build_torus(4, 4), 1).input_map(); assert (bits, len(amap)) == (30, 32); assert sorted(m for m in sys.modules if m.split('.')[0] == 'stabgames') == ['stabgames', 'stabgames.complexes', 'stabgames.games']; assert 'numpy' not in sys.modules"
# the exact dense oracle: an 18-qubit and a 6-ququart cluster state, 25 queries each
python - <<'EOF'
import random, sys
from stabgames.dense import dense_expectation, state_from_group
from stabgames.tableau import StabilizerGroup
from stabgames.weyl import WeylOperator
rng = random.Random(5)
for d, n in ((2, 18), (4, 6)):
    gens = [WeylOperator(d, n, [int(k == j) for k in range(n)],
                         [int(k in ((j - 1) % n, (j + 1) % n)) for k in range(n)], 0)
            for j in range(n)]
    group = StabilizerGroup([g.to_pauli() for g in gens] if d == 2 else gens)
    state = state_from_group(group)
    for _ in range(25):
        op = WeylOperator(d, n, [rng.randrange(d) for _ in range(n)],
                          [rng.randrange(d) for _ in range(n)], rng.randrange(2 * d))
        op = op.to_pauli() if d == 2 else op
        assert abs(dense_expectation(state, op) - group.expectation(op).value) < 1e-12
assert "numpy" not in sys.modules
EOF
