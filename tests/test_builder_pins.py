"""Byte-level pins on every strategy builder's output, on the torus
complexes and 3D codes those builders start from, and on the canonical rows
of a double-semion group.

Each case serializes one builder's operators (the standard text form of every
composite, in order, plus the header or meta), one complex (its text dump),
one code (its group's text export plus the generator labels) or one group's
canonical form (rows, pivots and ground-space dimension) and compares its
SHA-256 with a recorded digest.  Refactors of the lattice walks, routes, cut
choices, cell layouts and the Howell kernel must leave these digests
unchanged.
"""

import hashlib
import json
from functools import lru_cache

import pytest

from stabgames.cellulation import (
    block_cellulation_ops,
    cycle_dipole_embedding,
    fan_cellulation_ops,
    wheel_embedding,
)
from stabgames.codes import (
    double_semion,
    ds_fixed_group,
    ds_vertex_loop,
    ds_winding_fixers,
    toric2d,
    toric3d_edges,
    toric3d_faces,
    xcube,
)
from stabgames.complexes import build_torus, complex_to_text
from stabgames.parity2d import deform_arc, tc2d_parity_ops
from stabgames.parity3d import tc3d_1form_ops, tc3d_2form_ops, xcube_ops
from stabgames.semion import ds_magic_square_ops
from stabgames.strategies import ghz_ops, serialize_operator_set

tc2d = lru_cache(maxsize=None)(toric2d)  # each size built once for all cases


def _magic_square_text(Lx, Ly):
    ms = ds_magic_square_ops(double_semion(Lx, Ly))
    ops = ms.a_x + ms.a_z + ms.b_x + ms.b_z
    return "\n".join(op.to_text() for op in ops) + "\n" + json.dumps(ms.meta, sort_keys=True)


def _ds_operators_text():
    """The 4x4 double-semion generators, the 8x10 winding fixers and the
    vertex loop at (0, 0) both ways, each in its text form."""
    code = double_semion(8, 10)
    ops = ds_winding_fixers(code) + [ds_vertex_loop(code, 0, 0, ccw) for ccw in (True, False)]
    return double_semion(4, 4).group.export_text() + "\n" + "\n".join(op.to_text() for op in ops)


def _ds_canonical_text():
    """The canonical rows, pivots and ground-space dimension of the 8x10
    double-semion group and of its winding-fixed group."""
    code = double_semion(8, 10)
    parts = []
    for group in (code.group, ds_fixed_group(code)):
        parts += [r.to_text() for r in group.rows]
        parts += [repr(group.pivots), str(group.ground_space_dim())]
    return "\n".join(parts)


def _code_text(code):
    labels = "\n".join(repr(lab) for lab, _ in code.labeled_generators)
    return code.group.export_text() + "\n" + labels


BUILDERS = {
    "ghz-P5": lambda: serialize_operator_set(ghz_ops(5)),
    **{
        f"tc2d-contractible-P{p}": (lambda p=p: serialize_operator_set(tc2d_parity_ops(tc2d(8), p)))
        for p in range(3, 9)
    },
    **{
        f"tc2d-winding-P{p}": (
            lambda p=p: serialize_operator_set(tc2d_parity_ops(tc2d(8), p, winding=True))
        )
        for p in range(3, 9)
    },
    "tc2d-contractible-P4-anchor": lambda: serialize_operator_set(
        tc2d_parity_ops(tc2d(8), 4, anchor=(5, 6))
    ),
    "tc2d-deform-arc": lambda: serialize_operator_set(
        deform_arc(tc2d_parity_ops(tc2d(8), 5), 1, (2, 0))
    ),
    "tc3d-1form": lambda: serialize_operator_set(tc3d_1form_ops(toric3d_faces(3))),
    "tc3d-2form": lambda: serialize_operator_set(tc3d_2form_ops(toric3d_edges(3))),
    "xcube-prism": lambda: serialize_operator_set(xcube_ops(xcube(3), "prism")),
    "xcube-cage": lambda: serialize_operator_set(xcube_ops(xcube(3), "cage")),
    "cellulation-blocks-3x3": lambda: serialize_operator_set(
        block_cellulation_ops(tc2d(6), 3, 3).ops
    ),
    "cellulation-blocks-2x3": lambda: serialize_operator_set(
        block_cellulation_ops(tc2d(6), 2, 3).ops
    ),
    "cellulation-fan": lambda: serialize_operator_set(fan_cellulation_ops(tc2d(6)).ops),
    "cycle-dipole-P5": lambda: serialize_operator_set(cycle_dipole_embedding(tc2d(8), 5)[0]),
    "wheel": lambda: serialize_operator_set(wheel_embedding(tc2d(7))[0]),
    "ds-magic-square-8x10": lambda: _magic_square_text(8, 10),
    "ds-operators": _ds_operators_text,
    "ds-canonical-rows-8x10": _ds_canonical_text,
    "complex-torus2d-2x2": lambda: complex_to_text(build_torus(2, 2)),
    "complex-torus2d-3x3": lambda: complex_to_text(build_torus(3, 3)),
    "complex-torus2d-3x4": lambda: complex_to_text(build_torus(3, 4)),
    "complex-torus3d-3": lambda: complex_to_text(build_torus(3, 3, 3)),
    "complex-torus3d-2x3x4": lambda: complex_to_text(build_torus(2, 3, 4)),
    "code-tc3d-faces-3": lambda: _code_text(toric3d_faces(3)),
    "code-tc3d-edges-3": lambda: _code_text(toric3d_edges(3)),
    "code-xcube-3": lambda: _code_text(xcube(3)),
}

PINS = {
    "code-tc3d-edges-3": "820b901c87263675bfdf02538b68b5f7ba789ef1e411217ff23cfe4508edcd24",
    "code-tc3d-faces-3": "bac9f517ded9d63dcc2d15c02f0a9e3b34c0dc03aee853df0b5a646616f9fad6",
    "code-xcube-3": "559580a8b80778522da9adade105acaff3ea287714318ba669f4e0329306172d",
    "complex-torus2d-2x2": "88b9415f20d7997d15a16c0f63fee2118f9fa17a259767c2dbfb3867484c30a9",
    "complex-torus2d-3x3": "c21eb46294d65dabff4ff84a2390f011c257dc31bdf84c7c45529fe0d713d56b",
    "complex-torus2d-3x4": "da0a0b78e2b41cc9ff2cc6e2bb3c0f4cc1079eefc735696fe9a808c8c4dbef8e",
    "complex-torus3d-2x3x4": "93c312ab5719328d1989ebe36ca2312544fa65d35b4a57753beca0cd9ecb349e",
    "complex-torus3d-3": "eb6065d8c07e10720a2a91cc48bb2b4a4d5cd1a2809fe4f099da8766a9a8e834",
    "cellulation-blocks-2x3": "fbd1e6123a4d23df7ff13235890a8bf174d6d7e6e295b3c4659b815373144435",
    "cellulation-blocks-3x3": "caa5310671f1cf40cb0d4d63b5886b3d722ddad7fcb047d71d82c37e9e61626b",
    "cellulation-fan": "12dd2e4086d4c2c6df1f7b2c52a2a14d631a43cb4849221b252dd17ce350acc2",
    "cycle-dipole-P5": "06eddcd378ba499669a93250518969cbb864486221d9ab3f54685724b664df29",
    "ds-canonical-rows-8x10": "57eb34352fc1797bdc59ff428b8ba67a573f6bd38a8c204823f5292984c0b408",
    "ds-magic-square-8x10": "291513c190620ec91153725662c18ba57cecaa496e91a072a60cd72aac62308c",
    "ds-operators": "ab0fcc7c891123e342215c95026c65bf5cb51677791feebd46fafb14a9258efe",
    "ghz-P5": "750a291289e8970b5a1d00805c4a902010ead85f66ce31a2dd5c953518155444",
    "tc2d-contractible-P3": "ef4316b9981e4200694975bb877be334cc32f3e9cade78273c3cccfe6a8b046f",
    "tc2d-contractible-P4": "717284b988cdfd66087f2bbe9e761b10d5b80bc9e3f9128e01f92ac1fd295cbe",
    "tc2d-contractible-P4-anchor": "c31dd3d70fc6eab1b4971b685c227771e450dfacc18475a91c9958037ba76741",
    "tc2d-contractible-P5": "1a40381b6973809811b5696fc55279c9e186413171c2f573ac9cb3c31f6b119d",
    "tc2d-contractible-P6": "159bcbc2004ba081f473663aafb88f41b61bd4a1ec82bd2e6c35cf9b15fc780b",
    "tc2d-contractible-P7": "08368332874a640e383ff0dc128dad94890343a93a5e36553d273018fbb7a008",
    "tc2d-contractible-P8": "06226ce075518fdbf201414b2061e78930c38c58e8097881a62bc5cdcb3b663d",
    "tc2d-deform-arc": "5cbcbc591e106038c64c7524e57d8d8c985290038be9647c47c407619bde2dd6",
    "tc2d-winding-P3": "cf30b9b6362f2fee262baeccf2b090628fbe02a9ae19ddb30cf9c660230e471b",
    "tc2d-winding-P4": "82ad57fd0d3353f9cf9f29087bcbeea9131703a5c26bd63105d6ba75cc8d0d45",
    "tc2d-winding-P5": "5cb95a6cd734cf7ecf46c20a8c77c87a57543890f573d57553af53c99f91a908",
    "tc2d-winding-P6": "1486a3ce01cb9d6ca9a0cb4f4114075b0ef07bb5eede7cce163912392f0d40cd",
    "tc2d-winding-P7": "834a157d75d46b2de5ae92fb512bf1d0ccd8fbbe952895a5297f43f58ed81e9c",
    "tc2d-winding-P8": "73412dc46a52ae52a32f01f47332fc84b528123d74676faac108332ae0d95440",
    "tc3d-1form": "87cf8e3395359c774a225392beabbfa761abc2cf2b9d62fe925339c500930836",
    "tc3d-2form": "73a3677b0179659da4a1669b03cdb1cca7e810ae0c9769af7d4010be7b8ba230",
    "wheel": "a2f3f0304ad7b38f24cf47af05d51f68de178fead523a882fa1cae0fe8439794",
    "xcube-cage": "bef16ed2476be73575432fdd1a496189569a099ca77d2ab00c105d42539fe6c7",
    "xcube-prism": "0025338f3a7d6a36f5a39f69def19641e4298970a324b23b89806b15aa375f4b",
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builder_output_is_pinned(name):
    digest = hashlib.sha256(BUILDERS[name]().encode()).hexdigest()
    assert digest == PINS[name], f"{name}: output changed"
