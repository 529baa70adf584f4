"""The result records keep the semantics they had as dataclasses:
equality by value, a hash and no assignment for the frozen ones, and
the same repr text.  Most are NamedTuples; GridProcess stays a mutable
class and UniformityReport keeps its table out of == and repr."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from circlesys.consys import (ConstructionSequence, CylinderEstimate,
                              SWindowCertificate, UniformityReport,
                              build_sequence, verify_uniformity)
from circlesys.errors import CoherenceError
from circlesys.factor import BoundaryCrossing, RhoTrace, SymbolicPoint
from circlesys.names import DistinctReport, StabilityReport
from circlesys.procsim import (EpsApproxReport, GridPermutation, GridProcess,
                               RequirementReport, build_process)
from circlesys.ratarith import derive_params, dyn_order
from circlesys.words import (B, E, Boundary, BoundaryStats, Interior,
                             LazyCircularWord)

DESK = derive_params([2, 2], [4, 4], [2, 2, 4])
F = Fraction

# each record built from its values, with the repr those values give
RECORDS = [
    (Boundary, (B, 0, 0, 5), "Boundary(letter=-1, pass_index=0, block=0, "
     "offset=5)"),
    (Interior, (1, 0, 2, 3), "Interior(pass_index=1, block=0, copy=2, "
     "inner=3)"),
    (BoundaryStats, (F(1, 4), F(3, 4)), "BoundaryStats(boundary_fraction="
     "Fraction(1, 4), near_fraction=Fraction(3, 4))"),
    (BoundaryCrossing, (2,), "BoundaryCrossing(stage=2)"),
    (SymbolicPoint, (DESK, (0, 1, 9)),
     "SymbolicPoint(params=%r, offsets=(0, 1, 9))" % (DESK,)),
    (ConstructionSequence, (DESK, 2, [[(0, 1)]], [[0], [1]]),
     "ConstructionSequence(params=%r, sigma_size=2, prewords=[[(0, 1)]], "
     "levels=[[0], [1]])" % (DESK,)),
    (CylinderEstimate, (1, 0, 0, [F(1, 2)], F(0), F(0), True),
     "CylinderEstimate(stage=1, base_level=0, u_index=0, proportions="
     "[Fraction(1, 2)], gap=Fraction(0, 1), bound=Fraction(0, 1), "
     "within_bound=True)"),
    (SWindowCertificate, (2, {1: (1, 7)}, None), "SWindowCertificate("
     "max_stage=2, witnesses={1: (1, 7)}, failed_stage=None)"),
    (EpsApproxReport, (F(1, 4), 8, 3, True), "EpsApproxReport(eps="
     "Fraction(1, 4), deleted=8, blocks=3, subordinate=True)"),
    (RequirementReport, ("pass", True, None, False, (2, 0, 2)),
     "RequirementReport(req1='pass', req2=True, req2_witness=None, "
     "req3=False, req3_witness=(2, 0, 2))"),
    (StabilityReport, (3, 4, F(3, 4), F(1, 4)), "StabilityReport(matched=3, "
     "atoms=4, fraction=Fraction(3, 4), bound=Fraction(1, 4))"),
    (DistinctReport, (False, (0, 2)),
     "DistinctReport(distinct=False, witness=(0, 2))"),
    (RhoTrace, ([0, F(1, 8)], [F(1, 8)]),
     "RhoTrace(rhos=[0, Fraction(1, 8)], gaps=[Fraction(1, 8)])"),
]
FROZEN = [record for record in RECORDS if record[0] in (
    Boundary, Interior, BoundaryStats, BoundaryCrossing, SymbolicPoint)]


def ids(records):
    return [cls.__name__ for cls, _, _ in records]


def other_values(cls, values):
    """The values with the last one changed (coherently for a point)."""
    if cls is SymbolicPoint:
        return DESK, (0, 2, 10)
    return values[:-1] + ("other",)


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=ids(RECORDS))
def test_records_compare_by_value_and_keep_their_repr(cls, values, text):
    record = cls(*values)
    assert record == cls(*values) and not record != cls(*values)
    assert record != cls(*other_values(cls, values))
    assert repr(record) == text


@pytest.mark.parametrize("cls, values, text", FROZEN, ids=ids(FROZEN))
def test_frozen_records_hash_and_refuse_assignment(cls, values, text):
    record = cls(*values)
    assert hash(record) == hash(cls(*values))
    assert len({record, cls(*values)}) == 1
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], values[0])


def test_symbolic_point_checks_its_offsets_however_built():
    pt = SymbolicPoint(params=DESK, offsets=(0, 1, 9))
    assert pt._replace(offsets=(0, 2, 10)).offsets == (0, 2, 10)
    for bad in ((0, 1, 10), (0, 0, 0), (1,)):
        with pytest.raises(CoherenceError):
            SymbolicPoint(DESK, bad)
        with pytest.raises(CoherenceError):
            SymbolicPoint(params=DESK, offsets=bad)
        with pytest.raises(CoherenceError):
            pt._replace(offsets=bad)


def test_boundary_never_equals_interior():
    # NamedTuples compare as tuples; a boundary's first field is B or E,
    # negative, and an interior's is a pass index, so no decoded
    # position of one kind equals one of the other
    word = LazyCircularWord([(0,) * 8, (1,) * 8], 2, 4, 8, dyn_order(DESK, 1))
    positions = [word.decode(m) for m in range(len(word))]
    boundaries = {p for p in positions if isinstance(p, Boundary)}
    interiors = {p for p in positions if isinstance(p, Interior)}
    assert len(boundaries) + len(interiors) == len(word)
    assert {p.letter for p in boundaries} <= {B, E}
    assert min(p.pass_index for p in interiors) >= 0
    assert not boundaries & interiors
    assert all(b != i for b in boundaries for i in interiors)


def test_uniformity_report_leaves_its_table_out_of_eq_and_repr():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cs = build_sequence(2, DESK, [[(0, 1), (1, 0)], [(0, 1), (1, 0)]])
    rep = verify_uniformity(cs, 0)
    assert repr(rep) == ("UniformityReport(stage=0, densities=[Fraction(3, "
                         "8), Fraction(3, 8)], strong=True, f_value=3, "
                         "eps=Fraction(0, 1))")
    other = UniformityReport(rep.stage, rep.densities, rep.strong,
                             rep.f_value, rep.eps, np.zeros((1, 1)))
    assert rep == other
    assert rep != UniformityReport(1, rep.densities, rep.strong, rep.f_value,
                                   rep.eps, rep.M)
    assert rep != (rep.stage, rep.densities, rep.strong, rep.f_value, rep.eps)
    with pytest.raises(TypeError):
        hash(rep)
    rep.eps = F(1, 2)
    assert rep.eps == F(1, 2)


def test_grid_process_stays_mutable_with_labels_out_of_eq_and_repr():
    a = build_process(DESK, [[(0, 1), (1, 0)]])
    b = build_process(DESK, [[(0, 1), (1, 0)]])
    assert a == b and a is not b
    assert a != build_process(DESK, [[(1, 0), (0, 1)]])
    assert a.labels is None
    a.labels = "labels"
    assert a == b
    assert repr(a) == ("GridProcess(params=%r, stage=1, cols=%d, rows=2, "
                       "W=%r, h_list=%r)" % (DESK, DESK.q[1], a.W, a.h_list))
    assert a.Z is a.Z               # cached on the instance
    with pytest.raises(TypeError):
        hash(a)
    stage0 = GridProcess(DESK, 0, 1, 2, GridPermutation.identity(1, 2), [])
    assert stage0 == build_process(DESK, [])
