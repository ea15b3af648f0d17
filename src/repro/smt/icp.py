"""Interval-constraint-propagation (ICP) branch-and-prune solver.

A delta-complete decision procedure for conjunctions of polynomial
constraints over a bounding box, in the style of dReal: it either

* proves the conjunction UNSAT over the box (a sound proof, thanks to
  outward-rounded interval arithmetic),
* finds a box over which every constraint *certainly* holds (SAT, with
  an exact rational witness point), or
* narrows down to a box smaller than ``delta`` that it can neither
  verify nor refute (DELTA_SAT — "satisfiable up to delta"), or
* exhausts its branching budget (UNKNOWN).

The solver interleaves HC4-style linear contraction with bisection on
the widest undecided variable.

Two engines share this front door (``IcpSolver.backend``):

``"scalar"``
    the historical one-box-at-a-time depth-first loop in this module —
    pure Python, ``Interval`` arithmetic, the differential oracle;
``"batched"``
    the vectorized frontier engine in :mod:`repro.smt.boxes`, which
    classifies whole populations of boxes per NumPy pass while
    reproducing the scalar engine's arithmetic bit for bit (see that
    module's docstring for the equivalence argument);
``"auto"``
    ``"batched"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

from .interval import Interval
from .terms import Atom, Polynomial, Relation, poly_eval, polynomial_of

__all__ = [
    "Box",
    "ICP_BACKENDS",
    "IcpStatus",
    "IcpResult",
    "IcpSolver",
    "eval_poly_interval",
    "resolve_icp_backend",
    "split_linear",
]

ICP_BACKENDS = ("auto", "scalar", "batched")


def resolve_icp_backend(backend: str) -> str:
    """Resolve ``"auto"`` to a concrete ICP engine: always ``"batched"``."""
    if backend not in ICP_BACKENDS:
        raise KeyError(
            f"unknown ICP backend {backend!r}; known: {ICP_BACKENDS}"
        )
    return "batched" if backend == "auto" else backend


class Box:
    """A product of named intervals."""

    __slots__ = ("intervals",)

    def __init__(self, intervals: Mapping[str, Interval]):
        self.intervals = dict(intervals)

    @classmethod
    def cube(cls, names: Sequence[str], lo: float, hi: float) -> "Box":
        """The box ``[lo, hi]^n`` over the given variable names."""
        return cls({name: Interval(lo, hi) for name in names})

    def __getitem__(self, name: str) -> Interval:
        return self.intervals[name]

    def with_interval(self, name: str, interval: Interval) -> "Box":
        """Copy of the box with one interval replaced."""
        out = dict(self.intervals)
        out[name] = interval
        return Box(out)

    def widest(self) -> tuple[str, float]:
        """``(variable, width)`` of the widest interval, in one pass.

        Ties break to the lexicographically smallest variable name, so
        the split order is deterministic regardless of dict insertion
        order (the batched engine relies on exactly this tie-break).
        """
        best_name = ""
        best_width = -math.inf
        for name in sorted(self.intervals):
            width = self.intervals[name].width
            if width > best_width:
                best_name, best_width = name, width
        return best_name, best_width

    def max_width(self) -> float:
        """Width of the widest interval."""
        return self.widest()[1]

    def widest_variable(self) -> str:
        """Name of the widest interval's variable."""
        return self.widest()[0]

    def midpoint(self) -> dict[str, Fraction]:
        """The exact rational center point of the box."""
        return {
            name: Fraction(iv.midpoint) for name, iv in self.intervals.items()
        }

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {v!r}" for k, v in sorted(self.intervals.items()))
        return f"Box({body})"


def eval_poly_interval(
    poly: Polynomial,
    box: Box,
    powers: dict[tuple[str, int], Interval] | None = None,
) -> Interval:
    """Interval enclosure of a polynomial over a box.

    ``powers`` optionally shares a ``(variable, exponent) -> Interval``
    power table across several evaluations of the *same box* (one
    classification sweep touches every constraint): each distinct power
    is computed once instead of once per monomial occurrence. Cached
    powers are the exact same ``Interval.__pow__`` results, so
    enclosures are unchanged — a regression test pins this.
    """
    if powers is None:
        powers = {}
    total = Interval.point(0)
    for mono, coeff in poly.items():
        part = Interval.point(coeff)
        for var, exp in mono:
            power = powers.get((var, exp))
            if power is None:
                power = box[var] ** exp
                powers[var, exp] = power
            part = part * power
        total = total + part
    return total


def split_linear(
    poly: Polynomial, variable: str
) -> tuple[Polynomial, Polynomial] | None:
    """Split ``poly`` as ``coeff(x_others) * variable + rest(others)``.

    Returns ``(coeff_poly, rest_poly)``, or ``None`` when some monomial
    carries the variable with exponent > 1 (not linear after all). The
    scalar contractor and the batched compiler share this helper so both
    engines contract from identical decompositions.
    """
    coeff_poly: Polynomial = {}
    rest_poly: Polynomial = {}
    for mono, coeff in poly.items():
        exps = dict(mono)
        exp = exps.pop(variable, 0)
        if exp == 0:
            rest_poly[mono] = coeff
        elif exp == 1:
            key = tuple(sorted(exps.items()))
            coeff_poly[key] = coeff_poly.get(key, Fraction(0)) + coeff
        else:
            return None
    return coeff_poly, rest_poly


@dataclass
class PreparedAtom:
    """One constraint, preprocessed once per ``check`` call.

    ``linear`` lists ``(variable, coeff_poly, rest_poly)`` contraction
    plans for every variable that is linear in the polynomial — the
    scalar loop used to rebuild these dicts for every box.
    """

    poly: Polynomial
    relation: Relation
    linear: list[tuple[str, Polynomial, Polynomial]]


def prepare_atoms(atoms: Sequence[Atom]) -> list[PreparedAtom]:
    """Normalize atoms into polynomials plus contraction plans."""
    prepared = []
    for atom in atoms:
        poly = polynomial_of(atom.lhs)
        linear: list[tuple[str, Polynomial, Polynomial]] = []
        if atom.relation is not Relation.NE:
            for variable in _linear_variables(poly):
                plan = split_linear(poly, variable)
                if plan is not None:
                    linear.append((variable, plan[0], plan[1]))
        prepared.append(PreparedAtom(poly, atom.relation, linear))
    return prepared


class IcpStatus(Enum):
    """Verdict vocabulary: UNSAT / SAT / DELTA_SAT / UNKNOWN."""
    UNSAT = "unsat"
    SAT = "sat"
    DELTA_SAT = "delta-sat"
    UNKNOWN = "unknown"


@dataclass
class IcpResult:
    """Outcome of an ICP run: status, witness, search statistics."""
    status: IcpStatus
    witness: dict[str, Fraction] | None = None
    witness_box: Box | None = None
    boxes_explored: int = 0
    splits: int = 0


@dataclass
class IcpSolver:
    """Branch-and-prune over a conjunction of polynomial atoms.

    Parameters
    ----------
    delta:
        Width threshold below which an undecided box is reported as
        DELTA_SAT.
    max_boxes:
        Branching budget; exceeding it yields UNKNOWN.
    contraction_passes:
        HC4-style contraction sweeps per box before splitting.
    backend:
        ``"scalar"`` | ``"batched"`` | ``"auto"`` — see the module
        docstring. Both engines return identical verdicts, witnesses
        and statistics; the scalar loop is the differential oracle.
    """

    delta: float = 1e-7
    max_boxes: int = 200_000
    contraction_passes: int = 2
    backend: str = "auto"
    _stats_boxes: int = field(default=0, repr=False)
    _stats_splits: int = field(default=0, repr=False)

    # ------------------------------------------------------------------
    def check(self, atoms: Sequence[Atom], box: Box) -> IcpResult:
        """Decide the conjunction of ``atoms`` over ``box``."""
        prepared = prepare_atoms(atoms)
        if resolve_icp_backend(self.backend) == "batched":
            from .boxes import batched_check

            return batched_check(self, prepared, box)
        return self._check_scalar(prepared, box)

    def _check_scalar(
        self, prepared: list[PreparedAtom], box: Box
    ) -> IcpResult:
        self._stats_boxes = 0
        self._stats_splits = 0
        stack = [box]
        while stack:
            current = stack.pop()
            self._stats_boxes += 1
            if self._stats_boxes > self.max_boxes:
                return self._result(IcpStatus.UNKNOWN, None, None)
            kind, payload = self._step(prepared, current)
            if kind == "drop":
                continue
            if kind == "sat":
                witness, witness_box = payload
                return self._result(IcpStatus.SAT, witness, witness_box)
            if kind == "delta":
                return self._result(IcpStatus.DELTA_SAT, None, payload)
            current, variable = payload
            low, high = current[variable].split()
            self._stats_splits += 1
            stack.append(current.with_interval(variable, high))
            stack.append(current.with_interval(variable, low))
        return self._result(IcpStatus.UNSAT, None, None)

    # ------------------------------------------------------------------
    def _step(
        self, prepared: list[PreparedAtom], box: Box
    ) -> tuple[str, object]:
        """One scalar branch-and-prune step on a single box.

        Returns ``(kind, payload)`` with kind one of ``"drop"`` (box
        proven empty), ``"sat"`` (payload ``(witness, box)``),
        ``"delta"`` (payload the sub-delta box) or ``"split"`` (payload
        ``(contracted_box, variable)``). The batched engine calls this
        for boxes it defers (extreme magnitudes), so the scalar step is
        the single source of truth for per-box semantics.
        """
        contracted = self._contract(prepared, box)
        if contracted is None:
            return "drop", None
        current = contracted
        verdict, undecided = self._classify(prepared, current)
        if verdict == "infeasible":
            return "drop", None
        # Exact witness attempt: interval enclosures are outward
        # rounded, so a feasible boundary point (e.g. x = 1/2 for
        # 1/2 - x <= 0) never becomes "certainly satisfied"; checking
        # a few candidate points with rational arithmetic settles
        # such boxes as SAT instead of splitting to delta width.
        witness = self._exact_witness(prepared, current)
        if witness is not None:
            return "sat", (witness, current)
        if current.max_width() <= self.delta:
            return "delta", current
        variable = self._pick_split_variable(current, undecided)
        return "split", (current, variable)

    def _result(
        self,
        status: IcpStatus,
        witness: dict[str, Fraction] | None,
        box: Box | None,
    ) -> IcpResult:
        return IcpResult(
            status=status,
            witness=witness,
            witness_box=box,
            boxes_explored=self._stats_boxes,
            splits=self._stats_splits,
        )

    def _classify(
        self,
        prepared: list[PreparedAtom],
        box: Box,
    ) -> tuple[str, list[PreparedAtom]]:
        """Classify a box: 'infeasible', 'satisfied', or 'undecided'."""
        undecided = []
        powers: dict[tuple[str, int], Interval] = {}
        for atom in prepared:
            enclosure = eval_poly_interval(atom.poly, box, powers)
            if self._certainly_violated(enclosure, atom.relation):
                return "infeasible", []
            if not self._certainly_satisfied(enclosure, atom.relation):
                undecided.append(atom)
        if not undecided:
            return "satisfied", []
        return "undecided", undecided

    @staticmethod
    def _certainly_violated(enclosure: Interval, relation: Relation) -> bool:
        if relation is Relation.LE:
            return enclosure.certainly_positive()
        if relation is Relation.LT:
            return enclosure.certainly_nonnegative()
        if relation is Relation.EQ:
            return enclosure.certainly_nonzero()
        # NE is violated only when the enclosure is exactly {0}.
        return enclosure.lo == 0.0 and enclosure.hi == 0.0

    @staticmethod
    def _certainly_satisfied(enclosure: Interval, relation: Relation) -> bool:
        if relation is Relation.LE:
            return enclosure.certainly_nonpositive()
        if relation is Relation.LT:
            return enclosure.certainly_negative()
        if relation is Relation.EQ:
            return enclosure.lo == 0.0 and enclosure.hi == 0.0
        return enclosure.certainly_nonzero()

    def _exact_witness(
        self,
        prepared: list[PreparedAtom],
        box: Box,
    ) -> dict[str, Fraction] | None:
        """Try a few candidate points in the box, exactly (rational arithmetic)."""
        candidates = [box.midpoint()]
        if all(math.isfinite(iv.lo) for iv in box.intervals.values()):
            candidates.append(
                {name: Fraction(iv.lo) for name, iv in box.intervals.items()}
            )
        if all(math.isfinite(iv.hi) for iv in box.intervals.values()):
            candidates.append(
                {name: Fraction(iv.hi) for name, iv in box.intervals.items()}
            )
        for point in candidates:
            if self._satisfies_exactly(prepared, point):
                return point
        return None

    @staticmethod
    def _satisfies_exactly(
        prepared: list[PreparedAtom],
        point: dict[str, Fraction],
    ) -> bool:
        for atom in prepared:
            value = poly_eval(atom.poly, point)
            relation = atom.relation
            satisfied = (
                (relation is Relation.LE and value <= 0)
                or (relation is Relation.LT and value < 0)
                or (relation is Relation.EQ and value == 0)
                or (relation is Relation.NE and value != 0)
            )
            if not satisfied:
                return False
        return True

    def _pick_split_variable(
        self,
        box: Box,
        undecided: list[PreparedAtom],
    ) -> str:
        """Split the widest variable occurring in an undecided constraint.

        Candidates are scanned in sorted name order and the first
        maximal width wins — the deterministic tie-break shared with the
        batched engine's per-column argmax.
        """
        candidates: set[str] = set()
        for atom in undecided:
            for mono in atom.poly:
                for var, _exp in mono:
                    candidates.add(var)
        if not candidates:
            candidates = set(box.intervals)
        return max(sorted(candidates), key=lambda name: box[name].width)

    # ------------------------------------------------------------------
    # HC4-style contraction
    # ------------------------------------------------------------------
    def _contract(
        self,
        prepared: list[PreparedAtom],
        box: Box,
    ) -> Box | None:
        """Shrink ``box`` without losing solutions; ``None`` if emptied."""
        current = box
        for _ in range(self.contraction_passes):
            changed = False
            for atom in prepared:
                for variable, coeff_poly, rest_poly in atom.linear:
                    shrunk = self._contract_one(
                        coeff_poly, rest_poly, atom.relation, variable, current
                    )
                    if shrunk is None:
                        return None
                    if shrunk is not current:
                        current = shrunk
                        changed = True
            if not changed:
                break
        return current

    def _contract_one(
        self,
        coeff_poly: Polynomial,
        rest_poly: Polynomial,
        relation: Relation,
        variable: str,
        box: Box,
    ) -> Box | None:
        """Contract ``variable`` using ``poly = a*x + b`` (a, b interval-valued).

        ``coeff_poly``/``rest_poly`` come from :func:`split_linear`;
        when the enclosure of ``a`` has constant sign, the relation is
        solved for ``x``.
        """
        powers: dict[tuple[str, int], Interval] = {}
        a = eval_poly_interval(coeff_poly, box, powers)
        b = eval_poly_interval(rest_poly, box, powers)
        if a.lo <= 0.0 <= a.hi:
            return box  # coefficient sign unknown: skip
        x = box[variable]
        # Solve a*x + b <= / < / = 0 for x soundly: x stays feasible when
        # min over realizations of a*x + b can be <= 0 (resp. >= 0 for the
        # other side of EQ). Taking the loosest of the endpoint quotients
        # is a sound over-approximation whatever the sign of x.
        if a.lo > 0.0:
            upper = max(_div_up(-b.lo, a.lo), _div_up(-b.lo, a.hi))
            lower = (
                min(_div_down(-b.hi, a.lo), _div_down(-b.hi, a.hi))
                if relation is Relation.EQ
                else -math.inf
            )
        else:  # a.hi < 0
            lower = min(_div_down(-b.lo, a.lo), _div_down(-b.lo, a.hi))
            upper = (
                max(_div_up(-b.hi, a.lo), _div_up(-b.hi, a.hi))
                if relation is Relation.EQ
                else math.inf
            )
        candidate = Interval(lower, upper) if lower <= upper else None
        if candidate is None:
            return None
        shrunk = x.intersect(candidate)
        if shrunk is None:
            return None
        if shrunk.lo == x.lo and shrunk.hi == x.hi:
            return box
        return box.with_interval(variable, shrunk)


def _linear_variables(poly: Polynomial):
    """Variables that appear only with exponent 1 in every monomial."""
    seen: dict[str, bool] = {}
    for mono in poly:
        for var, exp in mono:
            if exp > 1:
                seen[var] = False
            elif var not in seen:
                seen[var] = True
    return [var for var, linear in seen.items() if linear]


def _div_up(num: float, den: float) -> float:
    if den == 0.0:
        return math.inf
    q = num / den
    if math.isnan(q):
        return math.inf
    return math.nextafter(q, math.inf) if math.isfinite(q) else q


def _div_down(num: float, den: float) -> float:
    if den == 0.0:
        return -math.inf
    q = num / den
    if math.isnan(q):
        return -math.inf
    return math.nextafter(q, -math.inf) if math.isfinite(q) else q
