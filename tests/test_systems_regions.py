"""Tests for half-spaces and regions (repro.systems.regions)."""

from fractions import Fraction

import pytest

from repro.smt import Relation, Var, point_satisfies
from repro.systems import HalfSpace, PolyhedralRegion


class TestHalfSpace:
    def test_value_exact(self):
        h = HalfSpace((1, -2), "0.5")
        assert h.value([1, Fraction(1, 4)]) == 1 - Fraction(1, 2) + Fraction(1, 2)

    def test_contains_nonstrict(self):
        h = HalfSpace((1,), 0)
        assert h.contains([0])
        assert h.contains([1])
        assert not h.contains([-1])

    def test_contains_strict(self):
        h = HalfSpace((1,), 0, strict=True)
        assert not h.contains([0])
        assert h.contains([Fraction(1, 10**12)])

    def test_complement_partitions(self):
        h = HalfSpace((1, 0), -1, strict=True)  # x > 1
        comp = h.complement()  # x <= 1
        for point in ([0, 5], [1, 0], [2, -3]):
            assert h.contains(point) != comp.contains(point)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            HalfSpace((1, 2), 0).value([1])

    def test_value_float(self):
        h = HalfSpace((2, 0), 1)
        assert h.value_float([3.0, 9.0]) == pytest.approx(7.0)

    def test_to_atom_agrees_with_contains(self):
        h = HalfSpace((1, -1), 2, strict=True)
        atom = h.to_atom([Var("w0"), Var("w1")])
        # The atom is the membership condition; evaluate it exactly at
        # pinned points.
        for point, expected in [((0, 0), True), ((0, 3), False), ((0, 2), False)]:
            assignment = {f"w{i}": Fraction(v) for i, v in enumerate(point)}
            assert point_satisfies(atom, assignment) == expected
            assert h.contains(list(point)) == expected

    def test_boundary_atom(self):
        h = HalfSpace((1,), -5)
        atom = h.boundary_atom([Var("w0")])
        assert atom.relation is Relation.EQ

    def test_normal_float(self):
        assert list(HalfSpace((1, 2), 0).normal_float()) == [1.0, 2.0]


class TestPolyhedralRegion:
    def test_box_region(self):
        # 0 <= x <= 1
        region = PolyhedralRegion(
            [HalfSpace((1,), 0), HalfSpace((-1,), 1)]
        )
        assert region.contains([0])
        assert region.contains([1])
        assert region.contains([Fraction(1, 2)])
        assert not region.contains([2])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PolyhedralRegion([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            PolyhedralRegion([HalfSpace((1,), 0), HalfSpace((1, 2), 0)])

    def test_margin(self):
        region = PolyhedralRegion([HalfSpace((1,), 0), HalfSpace((-1,), 1)])
        assert region.margin([0.25]) == pytest.approx(0.25)
        assert region.margin([2.0]) == pytest.approx(-1.0)

    def test_to_atoms(self):
        region = PolyhedralRegion([HalfSpace((1, 0), 0, strict=True)])
        atoms = region.to_atoms([Var("a"), Var("b")])
        assert len(atoms) == 1
        assert atoms[0].relation is Relation.LT
