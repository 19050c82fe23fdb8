"""The adjoint action, spliced after an inclusion instead of restricted.

Radford's carrier action, ``projection_yd`` and the Peiffer pairing keep
only a restriction of the adjoint action of a big algebra I.  They put
their inclusion stage in front of ``adjoint_stages`` and evaluate on the
small domain.  The reference here is the old formula: materialise
``adjoint_action`` on all of I (x) I, then restrict.  Both must give the
same exact matrix, and the restricted callers must never evaluate a
composite over dim(I)^2 columns.
"""

import pytest

from hopfforge import hopf, radford, simplicial, yd
from hopfforge.hopf import adjoint_action
from hopfforge.linalg import LinMap, composite_map, tensor_space
from hopfforge.radford import induced_braided_hopf
from hopfforge.simplicial import dim2_pipeline, level_projection, peiffer_pairing
from hopfforge.yd import projection_yd


def _materialised_projection_action(p) -> LinMap:
    """incl(h) |>_ad v through the adjoint action on all of I (x) I."""
    big, small = p.big, p.small
    return composite_map(tensor_space(small.space, big.space), big.space,
                         [[p.incl.lin, big.space], adjoint_action(big)])


@pytest.fixture(scope="module")
def projections(proj_sweedler, proj_sign_s3, nerve_c2_id):
    return {
        "proj-sweedler": proj_sweedler,
        "proj-sign-s3": proj_sign_s3,
        "(d0,s0)@1": level_projection(nerve_c2_id, 1, 0, 0),
        "(d0,s0)@2": level_projection(nerve_c2_id, 2, 0, 0),
    }


@pytest.fixture(scope="module")
def pipe_c2(nerve_c2_id):
    return dim2_pipeline(nerve_c2_id)


NAMES = ["proj-sweedler", "proj-sign-s3", "(d0,s0)@1", "(d0,s0)@2"]


@pytest.mark.parametrize("name", NAMES)
def test_projection_yd_action_matches_materialised(projections, name):
    p = projections[name]
    assert projection_yd(p).action == _materialised_projection_action(p)


@pytest.mark.parametrize("name", NAMES)
def test_carrier_action_matches_materialised(projections, name):
    p = projections[name]
    res = induced_braided_hopf(p)
    b = res.subspace
    want = b.corestrict(
        _materialised_projection_action(p)
        @ LinMap.identity(p.small.space).tensor(b.inclusion),
        what="action")
    assert res.braided.carrier.action == want


def test_peiffer_composite_matches_materialised(nerve_c2_id, pipe_c2):
    t, pipe = nerve_c2_id, pipe_c2
    incl1 = pipe.a100.subspace.inclusion
    B = pipe.a100.braided.space
    h2 = t.levels[2]
    want = composite_map(tensor_space(B, B), h2.space, [
        [t.degens[1][0].lin @ incl1, t.degens[1][1].lin @ incl1],
        adjoint_action(h2), pipe.a200.f_cor, pipe.a221.f,
        pipe.a200.subspace.inclusion])
    assert peiffer_pairing(t, pipe).composite == want


def _record_domains(monkeypatch) -> list:
    """Domain dimension of every composite_map call the four modules make."""
    dims = []
    real = composite_map

    def recording(dom, cod, stages):
        dims.append(dom.dim)
        return real(dom, cod, stages)

    for mod in (hopf, radford, yd, simplicial):
        monkeypatch.setattr(mod, "composite_map", recording)
    return dims


def test_restricted_callers_stay_below_the_square(nerve_c2_id, pipe_c2,
                                                  monkeypatch):
    p = level_projection(nerve_c2_id, 2, 0, 0)
    square = p.big.dim ** 2
    dims = _record_domains(monkeypatch)
    induced_braided_hopf(p)
    assert dims and max(dims) < square, dims
    dims.clear()
    peiffer_pairing(nerve_c2_id, pipe_c2)
    assert dims and max(dims) < square, dims
