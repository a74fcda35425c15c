"""Record semantics of the package's value and result types.

Every record compares equal only to an instance of its own class with equal
fields, hashes its field tuple when frozen and is unhashable otherwise,
prints as ``Name(field=value, ...)``, refuses assignment when frozen, and
takes its fields positionally or by keyword with the defaults below.
"""

import copy
import pickle
import types
from fractions import Fraction

import numpy as np
import pytest

from stabgames.cellulation import CellulationStrategy, PlaneGraph, block_cellulation_ops
from stabgames.codes import CodeInstance, _DsLattice, toric2d
from stabgames.complexes import CellComplex
from stabgames.dense import DenseState
from stabgames.games import MagicSquareGame, ParityGame, StrategyEvaluation
from stabgames.pauli import PauliOperator
from stabgames.scoring import CellulationGame
from stabgames.semion import MagicSquareOperators, MagicSquareReport
from stabgames.strategies import CompositeOperatorSet, Constraint, ValidationReport
from stabgames.tableau import Expectation, StabilizerGroup
from stabgames.weyl import WeylOperator

# shared parts: a record built twice from them has equal fields
GROUP = StabilizerGroup([PauliOperator.from_support(2, "Z", [0, 1])])
CODE = CodeInstance("pair", 2, 2, GROUP, ((("Z", 0), GROUP.generators[0]),))
PAIRS = [(((0, "X"),), ((0, "Z"),)), (((1, "X"),), ((1, "Z"),))]
CONSTRAINTS = [Constraint("Z", (0, 1), 0, "zz")]
OPS = CompositeOperatorSet(CODE, GROUP, PAIRS, CONSTRAINTS, {"P": 2})
EDGE = CellComplex(1, (("a", "b"), ("e",)), (((), ()), (("a", "b"),)), False)
STRATEGY = block_cellulation_ops(toric2d(4), 2, 2)
AMPS = np.array([1, 0], dtype=complex)

# name -> (build one instance, fields in equality and repr, frozen)
CASES = {
    "PauliOperator": (lambda: PauliOperator(3, 5, 3, 5), ("n", "x", "z", "phase"), True),
    "WeylOperator": (lambda: WeylOperator(4, 2, (5, 1), (0, -1), 9),
                     ("d", "n", "x", "z", "phase"), True),
    "Expectation": (lambda: Expectation("definite", 4, 3), ("kind", "d", "phase_exp"), True),
    "Constraint": (lambda: Constraint("X", (0, 2), 1, "xx"),
                   ("kind", "indices", "phase_exp", "label"), True),
    "ParityGame": (lambda: ParityGame(5), ("p",), True),
    "MagicSquareGame": (lambda: MagicSquareGame(4), ("d",), True),
    "CellComplex": (lambda: CellComplex(1, EDGE.cells, EDGE.boundary_keys, False, {"L": 1}),
                    ("dim", "cells", "boundary_keys", "closed", "meta"), False),
    "PlaneGraph": (lambda: PlaneGraph((0, 1), ((0, 1),), {0: [(0, 0)], 1: [(0, 1)]}),
                   ("vertices", "edges", "rotation", "_faces"), False),
    "CodeInstance": (lambda: CodeInstance("pair", 2, 2, GROUP, CODE.labeled_generators, EDGE, 1),
                     ("kind", "d", "n", "group", "labeled_generators", "cell", "qubit_degree",
                      "meta"), False),
    "_DsLattice": (lambda: _DsLattice(2, 3, {("e", 0, 0, 0): 0}), ("Lx", "Ly", "index"), False),
    "CompositeOperatorSet": (lambda: CompositeOperatorSet(CODE, GROUP, PAIRS, CONSTRAINTS),
                             ("code", "resource", "pairs", "constraints", "meta"), False),
    "ValidationReport": (lambda: ValidationReport(False, True, [[True]], False, [], ["bad"]),
                         ("ok", "commutation_ok", "commutation_matrix", "hermitian_ok",
                          "constraint_results", "problems"), False),
    "CellulationStrategy": (lambda: CellulationStrategy(OPS, EDGE, 1), ("ops", "coarse", "p"), False),
    "MagicSquareOperators": (lambda: MagicSquareOperators(CODE, GROUP, [1], [2], [3], [4]),
                             ("code", "resource", "a_x", "a_z", "b_x", "b_z", "meta"), False),
    "StrategyEvaluation": (lambda: StrategyEvaluation({(0, 0, 0): Fraction(1)}, Fraction(1), 4),
                           ("per_input", "p_q", "mermin", "meta"), False),
    "CellulationGame": (lambda: CellulationGame(STRATEGY), ("strategy", "x_basis", "z_basis"), False),
    "MagicSquareReport": (lambda: MagicSquareReport([(True, 0)], [(False, 2)], {(0, 0): ("definite", 0)},
                                                    True, False, Fraction(8, 9), ["column 0"]),
                          ("row_identities", "col_identities", "cell_constraints",
                           "commuting_rows", "commuting_cols", "p_q", "problems"), False),
    "DenseState": (lambda: DenseState(2, 1, AMPS), ("d", "n", "amps"), False),
}
FROZEN = [name for name, (_, _, frozen) in CASES.items() if frozen]
# caches filled on construction or first use, outside equality and repr
HIDDEN = {"CellComplex": "_index", "CompositeOperatorSet": "_table",
          "CellulationGame": "_map"}
# fields derived from the rest of the state, which refuse assignment
DERIVED = {"DenseState": "amps"}


def _values(obj, fields):
    return tuple(getattr(obj, f) for f in fields)


@pytest.mark.parametrize("name", CASES)
def test_equal_fields_give_equal_records(name):
    make, fields, frozen = CASES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    if frozen:
        assert hash(a) == hash(b) == hash(_values(a, fields))
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("name", CASES)
def test_each_field_decides_equality(name):
    make, fields, _ = CASES[name]
    a = make()
    for f in fields:
        if isinstance(getattr(a, f), np.ndarray):
            continue  # arrays compare elementwise, so only the same array object is equal
        b = copy.copy(a)
        assert b == a
        object.__setattr__(b, f, object())
        assert a != b and b != a, f


@pytest.mark.parametrize("name", HIDDEN)
def test_caches_stay_out_of_equality_and_repr(name):
    make, _, _ = CASES[name]
    a, b = make(), make()
    object.__setattr__(b, HIDDEN[name], None)
    assert a == b
    assert HIDDEN[name] not in repr(a)


@pytest.mark.parametrize("name", CASES)
def test_same_fields_in_another_class_are_unequal(name):
    make, fields, _ = CASES[name]
    a = make()
    other = copy.copy(a)  # same state, in a subclass of the same layout
    object.__setattr__(other, "__class__", type("Other", (type(a),), {"__slots__": ()}))
    assert _values(other, fields) == _values(a, fields)
    assert a != other and other != a
    assert a != types.SimpleNamespace(**{f: getattr(a, f) for f in fields})


@pytest.mark.parametrize("name", CASES)
def test_repr_lists_the_fields(name):
    make, fields, _ = CASES[name]
    a = make()
    assert repr(a) == f"{name}(" + ", ".join(f"{f}={getattr(a, f)!r}" for f in fields) + ")"


def test_repr_text_is_pinned():
    assert repr(CASES["PauliOperator"][0]()) == "PauliOperator(n=3, x=5, z=3, phase=1)"
    assert repr(CASES["WeylOperator"][0]()) == "WeylOperator(d=4, n=2, x=(1, 1), z=(0, 3), phase=1)"
    assert repr(CASES["Expectation"][0]()) == "Expectation(kind='definite', d=4, phase_exp=3)"
    assert repr(CASES["Constraint"][0]()) == "Constraint(kind='X', indices=(0, 2), phase_exp=1, label='xx')"
    assert repr(ParityGame(5)) == "ParityGame(p=5)"
    assert repr(EDGE) == (
        "CellComplex(dim=1, cells=(('a', 'b'), ('e',)), boundary_keys=(((), ()), (('a', 'b'),)), "
        "closed=False, meta={})")
    assert repr(CASES["DenseState"][0]()) == "DenseState(d=2, n=1, amps=array([1.+0.j, 0.+0.j]))"
    # printed in strategy validation problems and in JSON written with default=str
    assert f"{Constraint('Z', (1,), 0)}" == "Constraint(kind='Z', indices=(1,), phase_exp=0, label='')"


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment(name):
    make, fields, _ = CASES[name]
    a = make()
    before = _values(a, fields)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, 0)
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.extra = 0
    assert _values(a, fields) == before


@pytest.mark.parametrize("name", sorted(set(CASES) - set(FROZEN)))
def test_mutable_records_take_assignment(name):
    make, fields, _ = CASES[name]
    a, b = make(), make()
    for f in fields:
        if f == DERIVED.get(name):
            with pytest.raises(AttributeError):
                setattr(b, f, getattr(a, f))
        else:
            setattr(b, f, getattr(a, f))
    assert a == b


@pytest.mark.parametrize("name", CASES)
def test_copies_are_equal(name):
    a = CASES[name][0]()
    assert copy.copy(a) == a


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_pickle(name):
    a = CASES[name][0]()
    assert pickle.loads(pickle.dumps(a)) == a


def test_operators_normalise_on_construction():
    assert PauliOperator(n=2, x=1, z=2, phase=-3) == PauliOperator(2, 1, 2, 1)
    w = WeylOperator(d=4, n=2, x=[5, -1], z=(0, 4), phase=-1)
    assert (w.x, w.z, w.phase) == ((1, 3), (0, 0), 7)
    assert type(w.x) is tuple and type(w.z) is tuple
    with pytest.raises(ValueError):
        PauliOperator(2, 4, 0, 0)
    with pytest.raises(ValueError):
        WeylOperator(4, 2, (0,), (0, 0), 0)


def test_keywords_and_defaults():
    assert Expectation(kind="zero", d=2) == Expectation("zero", 2, 0)
    assert Constraint(kind="X", indices=(0, 1), phase_exp=2).label == ""
    ev = StrategyEvaluation(per_input={}, p_q=Fraction(1))
    assert ev.mermin is None and ev.meta == {}
    assert StrategyEvaluation({}, 1).meta is not ev.meta
    code = CodeInstance(kind="pair", d=2, n=2, group=GROUP, labeled_generators=())
    assert code.cell is None and code.qubit_degree is None and code.meta == {}
    assert CodeInstance("pair", 2, 2, GROUP, ()).meta is not code.meta
    ops = CompositeOperatorSet(code=CODE, resource=GROUP, pairs=PAIRS, constraints=CONSTRAINTS)
    assert ops.meta == {} and CompositeOperatorSet(CODE, GROUP, PAIRS, CONSTRAINTS).meta is not ops.meta
    assert ops.x_op(1) == PauliOperator.single(2, 1, "X") and ops.y_op(0).is_hermitian()
    ms = MagicSquareOperators(code=CODE, resource=GROUP, a_x=[], a_z=[], b_x=[], b_z=[])
    assert ms.meta == {} and MagicSquareOperators(CODE, GROUP, [], [], [], []).meta is not ms.meta
    cell = CellComplex(dim=1, cells=EDGE.cells, boundary_keys=EDGE.boundary_keys, closed=False)
    assert cell.meta == {} and cell.meta is not EDGE.meta
    assert cell.index(0, "b") == 1 and cell.coboundary_indices(0, 0) == (0,)
    assert cell._ranks == {} and cell._ranks is not EDGE._ranks
    assert cell.homology_dim(0) == 1 and cell._ranks == {1: 1}
    graph = PlaneGraph(vertices=(0, 1), edges=((0, 1),), rotation={0: [(0, 0)], 1: [(0, 1)]},
                       _faces=((),))
    assert graph._faces == (((0, 0), (0, 1)),)
    assert StrategyEvaluation({}, 1, meta={"P": 3}).meta == {"P": 3}
    game = CellulationGame(strategy=STRATEGY)
    assert game.x_basis == game.z_basis == (0, 1, 2)
    amap, m = game.input_map()
    assert m == 6 and len(amap) == STRATEGY.players and all(not (a | b) >> m for a, b in amap)
    assert ParityGame(p=3) == ParityGame(3) and MagicSquareGame(d=2) == MagicSquareGame(2)
    with pytest.raises(ValueError):
        ParityGame(2)
    with pytest.raises(ValueError):
        MagicSquareGame(3)


@pytest.mark.parametrize("make", [
    lambda: CompositeOperatorSet(CODE, GROUP, PAIRS, CONSTRAINTS, {}, []),
    lambda: CellulationGame(STRATEGY, (0,)),
    lambda: CellComplex(1, EDGE.cells, EDGE.boundary_keys, False, {}, {}),
    lambda: PauliOperator(1, 0, 0),
    lambda: Expectation(kind="zero"),
])
def test_computed_and_missing_fields_are_refused(make):
    with pytest.raises(TypeError):
        make()
