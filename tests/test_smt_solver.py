"""Tests for the ICP definiteness encodings (repro.smt.encodings)."""

import pytest

from repro.exact import RationalMatrix, sylvester_positive_definite
from repro.smt import check_positive_definite_icp


class TestDefinitenessEncoding:
    def test_pd_validated(self):
        p = RationalMatrix([[2, 1], [1, 2]])
        outcome = check_positive_definite_icp(p)
        assert outcome.verdict is True
        assert outcome.faces_checked == 2

    def test_indefinite_refuted_with_witness(self):
        p = RationalMatrix([[1, 2], [2, 1]])
        outcome = check_positive_definite_icp(p)
        assert outcome.verdict is False
        witness = [outcome.counterexample["w0"], outcome.counterexample["w1"]]
        assert p.quadratic_form(witness) <= 0

    def test_negative_definite_refuted(self):
        p = RationalMatrix([[-1, 0], [0, -1]])
        outcome = check_positive_definite_icp(p)
        assert outcome.verdict is False

    def test_plus_det_catches_singular(self):
        p = RationalMatrix([[1, 1], [1, 1]])
        outcome = check_positive_definite_icp(p, plus_det=True)
        assert outcome.verdict is False

    def test_plus_det_on_pd(self):
        p = RationalMatrix([[5, 1], [1, 5]])
        assert check_positive_definite_icp(p, plus_det=True).verdict is True

    def test_singular_without_det_is_undecided_or_refuted(self):
        # q(w) = (w0 - w1)^2: zero on the diagonal, never negative.
        p = RationalMatrix([[1, -1], [-1, 1]])
        outcome = check_positive_definite_icp(p, max_boxes=3_000)
        assert outcome.verdict in (False, None)
        assert outcome.verdict is not True

    def test_requires_symmetric(self):
        with pytest.raises(ValueError):
            check_positive_definite_icp(RationalMatrix([[1, 2], [0, 1]]))

    @pytest.mark.parametrize("plus_det", [False, True])
    def test_agrees_with_sylvester_on_diagonals(self, plus_det):
        for diag in ([3, 1, 2], [1, -1, 2], [2, 2, 0]):
            m = RationalMatrix.diagonal(diag)
            outcome = check_positive_definite_icp(m, plus_det=plus_det)
            expected = sylvester_positive_definite(m)
            if outcome.verdict is not None:
                assert outcome.verdict == expected
