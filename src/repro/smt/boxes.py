"""Batched interval arithmetic and the frontier-at-a-time ICP engine.

The scalar solver in :mod:`repro.smt.icp` processes one box at a time
and pays exact-:class:`~fractions.Fraction` bookkeeping on every
interval operation (the conditional outward rounding in
:mod:`repro.smt.interval` keeps dyadic arithmetic tight by comparing
each float result against the exact rational). This module evaluates a
*population* of boxes per NumPy pass — bounds live in ``(B, V, 2)``
arrays (:class:`BoxArray`) — while reproducing the scalar arithmetic
bit for bit, so the batched engine's verdicts, witnesses, witness
boxes and search statistics are identical to the scalar oracle's.

**How the outward-rounding guarantee survives vectorization.** The
scalar rule is *conditional*: a bound is nudged with ``nextafter`` only
when the float operation was inexact, and only toward the outside.
Recomputing the exact rationals per box would forfeit the batch win, so
the batched kernels recover the exactness test from error-free
transforms instead:

* additions use Knuth's TwoSum — ``err`` is exactly ``(a + b) -
  fl(a + b)``, so rounding down iff ``err < 0`` (up iff ``err > 0``)
  coincides with the scalar comparison against the exact sum;
* products use Dekker splitting (no FMA assumed) — same argument, and
  the four endpoint candidates are ordered by the lexicographic pair
  ``(product, err)``, which orders exactly like the scalar's exact
  rational keys because round-to-nearest is monotone;
* powers repeat the scalar's sequential multiply (including the
  even-power floor at zero), and enclosure accumulation follows the
  scalar monomial order — no einsum reassociation, which would change
  rounding.

The transforms are exact only away from overflow/underflow, so any box
that ever touches a magnitude outside ``[2^-500, 2^500]`` (or a
non-finite value) is flagged and *deferred*: it is re-processed from
scratch by the scalar per-box step (``IcpSolver._step``), which is
always correct. In practice no box in the paper's workloads defers.

**Search order.** A naive breadth-first frontier would diverge from the
scalar depth-first engine (different first witness, exponentially worse
on delta-sat instances). Instead the engine keeps a worklist of pending
boxes keyed by their *path* from the root (``'0'`` = low child, ``'1'``
= high child). Lexicographic path order is exactly DFS preorder, and
children of the chunk prepend in order, so the worklist stays sorted
for free. Each round classifies the ``_CHUNK`` lex-least boxes in one
vectorized pass; terminals (SAT / DELTA_SAT) are tracked by lex-min
path and the worklist is pruned behind the best terminal. At the end
the engine returns the lex-least terminal — the one the scalar DFS
would have reached first — and reconstructs the scalar's
``boxes_explored``/``splits`` counters from the recorded paths, so
budget-exhaustion (UNKNOWN) verdicts also coincide.
"""

from __future__ import annotations

import bisect
from fractions import Fraction
from typing import Sequence

import numpy as np

from .icp import (
    Box,
    IcpResult,
    IcpSolver,
    IcpStatus,
    PreparedAtom,
    prepare_atoms,
)
from .interval import Interval
from .terms import Atom, Polynomial, Relation

__all__ = [
    "BoxArray",
    "batched_check",
    "classify_boxes",
    "compile_atoms",
]

#: Dekker splitter for doubles (2^27 + 1).
_SPLIT = 134217729.0
#: Magnitude guards: outside [2^-500, 2^500] the error-free transforms
#: may lose exactness (overflow of the splitting, subnormal products),
#: so such boxes are deferred to the scalar step.
_BIG = 2.0**500
_TINY = 2.0**-500
_CHUNK = 256


# ----------------------------------------------------------------------
# Box populations
# ----------------------------------------------------------------------

class BoxArray:
    """A population of ``B`` boxes over ``V`` named variables.

    ``bounds`` has shape ``(B, V, 2)`` — ``bounds[b, v, 0]`` is the low
    endpoint of variable ``names[v]`` in box ``b``. Variables are
    stored in sorted name order so per-column argmax reproduces the
    scalar solver's sorted-name tie-break.
    """

    __slots__ = ("names", "bounds")

    def __init__(self, names: Sequence[str], bounds: np.ndarray):
        self.names = tuple(names)
        self.bounds = bounds

    @classmethod
    def from_boxes(cls, boxes: Sequence[Box]) -> "BoxArray":
        names = sorted(boxes[0].intervals)
        bounds = np.empty((len(boxes), len(names), 2), dtype=np.float64)
        for b, box in enumerate(boxes):
            for v, name in enumerate(names):
                iv = box[name]
                bounds[b, v, 0] = iv.lo
                bounds[b, v, 1] = iv.hi
        return cls(names, bounds)

    @property
    def lo(self) -> np.ndarray:
        return self.bounds[:, :, 0]

    @property
    def hi(self) -> np.ndarray:
        return self.bounds[:, :, 1]

    def __len__(self) -> int:
        return self.bounds.shape[0]

    def to_boxes(self) -> list[Box]:
        return [
            Box(
                {
                    name: Interval(
                        float(self.bounds[b, v, 0]), float(self.bounds[b, v, 1])
                    )
                    for v, name in enumerate(self.names)
                }
            )
            for b in range(len(self))
        ]


# ----------------------------------------------------------------------
# Error-free transforms and bit-identical interval kernels
# ----------------------------------------------------------------------

def _guard(bad: np.ndarray, x: np.ndarray) -> None:
    """Flag boxes whose value leaves the exactness-safe magnitude band."""
    ax = np.abs(x)
    ok = (x == 0.0) | ((ax >= _TINY) & (ax <= _BIG))
    np.logical_or(bad, ~ok, out=bad)


def _guard_bounds(bad: np.ndarray, arr: np.ndarray) -> None:
    """Per-box guard over a ``(B, V)`` array of endpoint values."""
    ax = np.abs(arr)
    ok = (arr == 0.0) | ((ax >= _TINY) & (ax <= _BIG))
    np.logical_or(bad, ~ok.all(axis=1), out=bad)


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    s = a + b
    bv = s - a
    av = s - bv
    return s, (a - av) + (b - bv)


def _two_prod(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = a * b
    c = _SPLIT * a
    ahi = c - (c - a)
    alo = a - ahi
    c = _SPLIT * b
    bhi = c - (c - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def _round_lo(value: np.ndarray, err: np.ndarray) -> np.ndarray:
    # Scalar `_lo_of` keeps the float iff Fraction(value) <= exact,
    # i.e. iff the transform error is >= 0.
    return np.where(err < 0.0, np.nextafter(value, -np.inf), value)


def _round_hi(value: np.ndarray, err: np.ndarray) -> np.ndarray:
    return np.where(err > 0.0, np.nextafter(value, np.inf), value)


def _iv_add(lo1, hi1, lo2, hi2, bad):
    s, e = _two_sum(lo1, lo2)
    _guard(bad, s)
    lo = _round_lo(s, e)
    s, e = _two_sum(hi1, hi2)
    _guard(bad, s)
    hi = _round_hi(s, e)
    return lo, hi


def _iv_mul(lo1, hi1, lo2, hi2, bad):
    # Candidate order matches Interval.__mul__; selection by the lex
    # pair (product, err) == selection by the scalar's exact keys.
    ps = []
    es = []
    for a, b in ((lo1, lo2), (lo1, hi2), (hi1, lo2), (hi1, hi2)):
        p, e = _two_prod(a, b)
        _guard(bad, p)
        ps.append(p)
        es.append(e)
    mn_p, mn_e = ps[0], es[0]
    mx_p, mx_e = ps[0], es[0]
    for p, e in zip(ps[1:], es[1:]):
        less = (p < mn_p) | ((p == mn_p) & (e < mn_e))
        mn_p = np.where(less, p, mn_p)
        mn_e = np.where(less, e, mn_e)
        more = (p > mx_p) | ((p == mx_p) & (e > mx_e))
        mx_p = np.where(more, p, mx_p)
        mx_e = np.where(more, e, mx_e)
    return _round_lo(mn_p, mn_e), _round_hi(mx_p, mx_e)


def _iv_pow(lo, hi, exponent, bad):
    if exponent == 0:
        one = np.ones_like(lo)
        return one, one.copy()
    rlo, rhi = lo, hi
    for _ in range(exponent - 1):
        rlo, rhi = _iv_mul(rlo, rhi, lo, hi, bad)
    if exponent % 2 == 0:
        # Even powers are nonnegative; floor at zero exactly like the
        # scalar (`max(result.lo, 0.0)` keeps -0.0, so test `< 0.0`).
        straddle = (lo <= 0.0) & (0.0 <= hi)
        rlo = np.where(straddle & (rlo < 0.0), 0.0, rlo)
    return rlo, rhi


# ----------------------------------------------------------------------
# Compilation: PreparedAtom -> index-based monomial plans
# ----------------------------------------------------------------------

class _CompiledPoly:
    """Monomials as ``(coeff_lo, coeff_hi, ((var_index, exp), ...))`` in
    the polynomial's dict order (the scalar accumulation order)."""

    __slots__ = ("monos",)

    def __init__(self, monos):
        self.monos = monos


class _CompiledAtom:
    __slots__ = ("relation", "poly", "var_mask", "linear")

    def __init__(self, relation, poly, var_mask, linear):
        self.relation = relation
        self.poly = poly
        self.var_mask = var_mask
        self.linear = linear  # [(var_index, coeff_cpoly, rest_cpoly)]


def _safe_bound(x: float) -> bool:
    return x == 0.0 or _TINY <= abs(x) <= _BIG


def _compile_poly(poly: Polynomial, index: dict[str, int]):
    monos = []
    for mono, coeff in poly.items():
        iv = Interval.point(coeff)
        if not (_safe_bound(iv.lo) and _safe_bound(iv.hi)):
            return None
        monos.append(
            (iv.lo, iv.hi, tuple((index[var], exp) for var, exp in mono))
        )
    return _CompiledPoly(monos)


def compile_atoms(
    prepared: Sequence[PreparedAtom], names: Sequence[str]
) -> list[_CompiledAtom] | None:
    """Compile prepared atoms against a sorted variable order.

    Returns ``None`` when a constraint cannot be compiled (a
    coefficient outside the exactness-safe band, or a variable missing
    from the box) — the caller then falls back to the scalar engine.
    """
    index = {name: i for i, name in enumerate(names)}
    compiled = []
    try:
        for atom in prepared:
            poly = _compile_poly(atom.poly, index)
            if poly is None:
                return None
            mask = np.zeros(len(names), dtype=bool)
            for _lo, _hi, mono in poly.monos:
                for vi, _exp in mono:
                    mask[vi] = True
            linear = []
            for variable, coeff_poly, rest_poly in atom.linear:
                cc = _compile_poly(coeff_poly, index)
                rr = _compile_poly(rest_poly, index)
                if cc is None or rr is None:
                    return None
                linear.append((index[variable], cc, rr))
            compiled.append(_CompiledAtom(atom.relation, poly, mask, linear))
    except KeyError:
        return None
    return compiled


def _eval_poly(cpoly: _CompiledPoly, lo, hi, powers, bad):
    """Batched enclosure of a compiled polynomial over ``(B, V)`` bounds.

    Replays the scalar ``eval_poly_interval`` term order exactly:
    ``total = [0,0]``, then per monomial ``part = coeff * prod(powers)``
    accumulated left to right.
    """
    shape = lo.shape[0]
    tlo = np.zeros(shape)
    thi = np.zeros(shape)
    for clo, chi, mono in cpoly.monos:
        plo = np.full(shape, clo)
        phi = np.full(shape, chi)
        for vi, exp in mono:
            power = powers.get((vi, exp))
            if power is None:
                power = _iv_pow(lo[:, vi], hi[:, vi], exp, bad)
                powers[vi, exp] = power
            plo, phi = _iv_mul(plo, phi, power[0], power[1], bad)
        tlo, thi = _iv_add(tlo, thi, plo, phi, bad)
    return tlo, thi


def _violated_mask(elo, ehi, relation):
    if relation is Relation.LE:
        return elo > 0.0
    if relation is Relation.LT:
        return elo >= 0.0
    if relation is Relation.EQ:
        return (elo > 0.0) | (ehi < 0.0)
    return (elo == 0.0) & (ehi == 0.0)


def _satisfied_mask(elo, ehi, relation):
    if relation is Relation.LE:
        return ehi <= 0.0
    if relation is Relation.LT:
        return ehi < 0.0
    if relation is Relation.EQ:
        return (elo == 0.0) & (ehi == 0.0)
    return (elo > 0.0) | (ehi < 0.0)


# ----------------------------------------------------------------------
# Chunk pipeline: contraction, classification, witness, split
# ----------------------------------------------------------------------

def _where_max(a, b):
    """Python ``max(a, b)`` semantics elementwise (first wins ties)."""
    return np.where(b > a, b, a)


def _where_min(a, b):
    return np.where(b < a, b, a)


def _div_up_arr(num, den):
    q = num / den
    q = np.where(np.isnan(q), np.inf, q)
    q = np.where(den == 0.0, np.inf, q)
    return np.where(np.isfinite(q), np.nextafter(q, np.inf), q)


def _div_down_arr(num, den):
    q = num / den
    q = np.where(np.isnan(q), -np.inf, q)
    q = np.where(den == 0.0, -np.inf, q)
    return np.where(np.isfinite(q), np.nextafter(q, -np.inf), q)


def _contract_chunk(solver, compiled, lo, hi, bad):
    """Vectorized HC4 contraction, mutating ``lo``/``hi`` in place.

    Runs every pass unconditionally: contraction is a deterministic
    function of the box, so re-running it on a box the scalar engine
    left alone (its early `no change` break) reproduces the same box.
    """
    n = lo.shape[0]
    empty = np.zeros(n, dtype=bool)
    for _ in range(solver.contraction_passes):
        for atom in compiled:
            is_eq = atom.relation is Relation.EQ
            for vi, coeff_poly, rest_poly in atom.linear:
                powers: dict = {}
                alo, ahi = _eval_poly(coeff_poly, lo, hi, powers, bad)
                blo, bhi = _eval_poly(rest_poly, lo, hi, powers, bad)
                known = ~((alo <= 0.0) & (0.0 <= ahi))
                if not known.any():
                    continue
                pos = alo > 0.0
                nblo = -blo
                nbhi = -bhi
                up_pos = _where_max(
                    _div_up_arr(nblo, alo), _div_up_arr(nblo, ahi)
                )
                lo_neg = _where_min(
                    _div_down_arr(nblo, alo), _div_down_arr(nblo, ahi)
                )
                if is_eq:
                    lo_pos = _where_min(
                        _div_down_arr(nbhi, alo), _div_down_arr(nbhi, ahi)
                    )
                    up_neg = _where_max(
                        _div_up_arr(nbhi, alo), _div_up_arr(nbhi, ahi)
                    )
                else:
                    lo_pos = np.full(n, -np.inf)
                    up_neg = np.full(n, np.inf)
                cand_lo = np.where(pos, lo_pos, lo_neg)
                cand_hi = np.where(pos, up_pos, up_neg)
                cand_empty = known & (cand_lo > cand_hi)
                x_lo = lo[:, vi]
                x_hi = hi[:, vi]
                # Interval.intersect: max(x.lo, c.lo), min(x.hi, c.hi)
                n_lo = np.where(cand_lo > x_lo, cand_lo, x_lo)
                n_hi = np.where(cand_hi < x_hi, cand_hi, x_hi)
                isect_empty = known & ~cand_empty & (n_lo > n_hi)
                empty |= cand_empty | isect_empty
                update = known & ~empty
                lo[:, vi] = np.where(update, n_lo, x_lo)
                hi[:, vi] = np.where(update, n_hi, x_hi)
                # Contracted endpoints are new multiplication operands;
                # re-check they stay inside the exactness band.
                _guard(bad, lo[:, vi])
                _guard(bad, hi[:, vi])
    return empty


def _classify_chunk(compiled, lo, hi, bad):
    n = lo.shape[0]
    powers: dict = {}
    infeasible = np.zeros(n, dtype=bool)
    undecided = []
    for atom in compiled:
        elo, ehi = _eval_poly(atom.poly, lo, hi, powers, bad)
        violated = _violated_mask(elo, ehi, atom.relation)
        satisfied = _satisfied_mask(elo, ehi, atom.relation)
        infeasible |= violated
        undecided.append(~violated & ~satisfied)
    return infeasible, undecided


def _midpoints(lo, hi):
    """Elementwise replica of ``Interval.midpoint``."""
    mid = 0.5 * (lo + hi)
    alt = 0.5 * lo + 0.5 * hi
    mid = np.where(np.isfinite(mid), mid, alt)
    lo_inf = lo == -np.inf
    hi_inf = hi == np.inf
    down = hi - 1.0
    up = lo + 1.0
    mid = np.where(lo_inf & ~hi_inf, np.where(down <= 0.0, down, 0.0), mid)
    mid = np.where(~lo_inf & hi_inf, np.where(up >= 0.0, up, 0.0), mid)
    mid = np.where(lo_inf & hi_inf, 0.0, mid)
    return mid


def _witness_chunk(
    solver, prepared, compiled, order, names, mids, lo, hi, skip, bad
):
    """Batched replica of ``_exact_witness``: screen the scalar's three
    candidate points with degenerate-interval enclosures; only points a
    screen cannot decide fall through to the exact rational check."""
    n = lo.shape[0]
    found = np.zeros(n, dtype=bool)
    witnesses: list[dict | None] = [None] * n
    sorted_pos = [names.index(name) for name in order]
    for candidate in range(3):
        if candidate == 0:
            pts = mids
            eligible = ~skip & ~found
        elif candidate == 1:
            pts = lo
            eligible = ~skip & ~found & np.isfinite(lo).all(axis=1)
        else:
            pts = hi
            eligible = ~skip & ~found & np.isfinite(hi).all(axis=1)
        if not eligible.any():
            continue
        fails = np.zeros(n, dtype=bool)
        unknown = np.zeros(n, dtype=bool)
        powers: dict = {}
        for atom in compiled:
            elo, ehi = _eval_poly(atom.poly, pts, pts, powers, bad)
            violated = _violated_mask(elo, ehi, atom.relation)
            satisfied = _satisfied_mask(elo, ehi, atom.relation)
            fails |= violated
            unknown |= ~violated & ~satisfied
        eligible = eligible & ~bad
        certain = eligible & ~fails & ~unknown
        for i in np.nonzero(certain)[0]:
            found[i] = True
            witnesses[i] = {
                name: Fraction(float(pts[i, vi]))
                for name, vi in zip(order, sorted_pos)
            }
        maybe = eligible & ~fails & unknown
        for i in np.nonzero(maybe)[0]:
            point = {
                name: Fraction(float(pts[i, vi]))
                for name, vi in zip(order, sorted_pos)
            }
            if solver._satisfies_exactly(prepared, point):
                found[i] = True
                witnesses[i] = point
    return found, witnesses


def _make_box(order, names, lo_row, hi_row) -> Box:
    pos = {name: i for i, name in enumerate(names)}
    return Box(
        {
            name: Interval(float(lo_row[pos[name]]), float(hi_row[pos[name]]))
            for name in order
        }
    )


def _process_chunk(solver, prepared, compiled, order, names, lo, hi):
    """Run the scalar per-box step, vectorized, over one chunk.

    Returns one ``(kind, payload)`` outcome per box — ``"drop"``,
    ``("sat", (witness, box))``, ``("delta", box)`` or ``("split",
    (lo_low, hi_low, lo_high, hi_high))`` row arrays. Boxes whose
    arithmetic left the exactness band are recomputed with the scalar
    step on their original bounds.
    """
    n = lo.shape[0]
    orig_lo = lo.copy()
    orig_hi = hi.copy()
    bad = np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):
        _guard_bounds(bad, lo)
        _guard_bounds(bad, hi)
        empty = _contract_chunk(solver, compiled, lo, hi, bad)
        infeasible, undecided = _classify_chunk(compiled, lo, hi, bad)
        dead = empty | infeasible
        mids = _midpoints(lo, hi)
        _guard_bounds(bad, mids)
        found, witnesses = _witness_chunk(
            solver, prepared, compiled, order, names, mids, lo, hi, dead, bad
        )
        widths = hi - lo
        max_width = widths.max(axis=1) if widths.shape[1] else np.zeros(n)
        is_delta = max_width <= solver.delta
        # Split variable: widest among variables of undecided
        # constraints (sorted-name argmax == the scalar tie-break).
        candidates = np.zeros_like(lo, dtype=bool)
        for atom, mask in zip(compiled, undecided):
            candidates |= mask[:, None] & atom.var_mask[None, :]
        no_candidate = ~candidates.any(axis=1)
        if no_candidate.any():
            candidates[no_candidate, :] = True
        masked = np.where(candidates, widths, -np.inf)
        split_vi = (
            masked.argmax(axis=1)
            if widths.shape[1]
            else np.zeros(n, dtype=int)
        )
    outcomes = []
    for i in range(n):
        if bad[i]:
            kind, payload = solver._step(
                prepared, _make_box(order, names, orig_lo[i], orig_hi[i])
            )
            if kind == "split":
                box, variable = payload
                low, high = box[variable].split()
                lo_low = np.array([box[nm].lo for nm in names])
                hi_low = np.array(
                    [
                        low.hi if nm == variable else box[nm].hi
                        for nm in names
                    ]
                )
                lo_high = np.array(
                    [
                        high.lo if nm == variable else box[nm].lo
                        for nm in names
                    ]
                )
                hi_high = np.array([box[nm].hi for nm in names])
                outcomes.append(("split", (lo_low, hi_low, lo_high, hi_high)))
            else:
                outcomes.append((kind, payload))
            continue
        if dead[i]:
            outcomes.append(("drop", None))
            continue
        if found[i]:
            outcomes.append(
                ("sat", (witnesses[i], _make_box(order, names, lo[i], hi[i])))
            )
            continue
        if is_delta[i]:
            outcomes.append(("delta", _make_box(order, names, lo[i], hi[i])))
            continue
        vi = int(split_vi[i])
        mid = mids[i, vi]
        hi_low = hi[i].copy()
        hi_low[vi] = mid
        lo_high = lo[i].copy()
        lo_high[vi] = mid
        outcomes.append(("split", (lo[i].copy(), hi_low, lo_high, hi[i].copy())))
    return outcomes


# ----------------------------------------------------------------------
# The chunked DFS-equivalent search
# ----------------------------------------------------------------------

def batched_check(
    solver: IcpSolver,
    prepared: list[PreparedAtom],
    box: Box,
) -> IcpResult:
    """Decide a prepared conjunction with the batched frontier engine.

    Equivalence with the scalar DFS (see the module docstring): pending
    boxes are processed in lexicographic path order, every tree box
    preceding the surviving terminal is processed exactly once, and the
    scalar's budget rule is replayed from the recorded paths. Any
    verdict this function returns is the verdict — with the same
    witness, witness box and statistics — that ``_check_scalar`` would
    return.
    """
    order = list(box.intervals)
    names = sorted(order)
    compiled = compile_atoms(prepared, names)
    if compiled is None or not names:
        return solver._check_scalar(prepared, box)
    n_vars = len(names)
    paths: list[str] = [""]
    pend_lo = np.array([[box[name].lo for name in names]])
    pend_hi = np.array([[box[name].hi for name in names]])
    records: list[tuple[str, bool]] = []
    term_path: str | None = None
    term_kind = ""
    term_payload = None
    while paths:
        if term_path is not None:
            cut = bisect.bisect_left(paths, term_path)
            if cut == 0:
                break
            paths = paths[:cut]
            pend_lo = pend_lo[:cut]
            pend_hi = pend_hi[:cut]
        take = min(_CHUNK, len(paths))
        chunk_paths = paths[:take]
        chunk_lo = pend_lo[:take].copy()
        chunk_hi = pend_hi[:take].copy()
        paths = paths[take:]
        pend_lo = pend_lo[take:]
        pend_hi = pend_hi[take:]
        outcomes = _process_chunk(
            solver, prepared, compiled, order, names, chunk_lo, chunk_hi
        )
        child_paths: list[str] = []
        child_lo: list[np.ndarray] = []
        child_hi: list[np.ndarray] = []
        for path, (kind, payload) in zip(chunk_paths, outcomes):
            if kind == "drop":
                records.append((path, False))
            elif kind in ("sat", "delta"):
                records.append((path, False))
                if term_path is None or path < term_path:
                    term_path, term_kind, term_payload = path, kind, payload
            else:
                records.append((path, True))
                lo_low, hi_low, lo_high, hi_high = payload
                child_paths.append(path + "0")
                child_lo.append(lo_low)
                child_hi.append(hi_low)
                child_paths.append(path + "1")
                child_lo.append(lo_high)
                child_hi.append(hi_high)
        if child_paths:
            paths = child_paths + paths
            pend_lo = np.vstack(
                [np.asarray(child_lo).reshape(-1, n_vars), pend_lo]
            )
            pend_hi = np.vstack(
                [np.asarray(child_hi).reshape(-1, n_vars), pend_hi]
            )
        # Budget early-out: once more boxes precede the frontier than
        # the budget allows (and no terminal precedes them), the scalar
        # engine would already have given up.
        if len(records) > solver.max_boxes and paths:
            frontier = paths[0]
            if term_path is None or term_path > frontier:
                below = sum(1 for p, _ in records if p < frontier)
                if below > solver.max_boxes:
                    return _unknown_result(solver, records)
    if term_path is not None:
        explored = sum(1 for p, _ in records if p <= term_path)
        if explored > solver.max_boxes:
            return _unknown_result(solver, records)
        solver._stats_boxes = explored
        solver._stats_splits = sum(
            1 for p, split in records if split and p < term_path
        )
        if term_kind == "sat":
            witness, witness_box = term_payload
            return solver._result(IcpStatus.SAT, witness, witness_box)
        return solver._result(IcpStatus.DELTA_SAT, None, term_payload)
    if len(records) > solver.max_boxes:
        return _unknown_result(solver, records)
    solver._stats_boxes = len(records)
    solver._stats_splits = sum(1 for _, split in records if split)
    return solver._result(IcpStatus.UNSAT, None, None)


def _unknown_result(solver: IcpSolver, records) -> IcpResult:
    ordered = sorted(records)
    solver._stats_boxes = solver.max_boxes + 1
    solver._stats_splits = sum(
        1 for _, split in ordered[: solver.max_boxes] if split
    )
    return solver._result(IcpStatus.UNKNOWN, None, None)


# ----------------------------------------------------------------------
# Population classification (benchmark / differential surface)
# ----------------------------------------------------------------------

def classify_boxes(atoms: Sequence[Atom], boxes: Sequence[Box]) -> list[str]:
    """Classify a population of boxes in one vectorized pass.

    Returns the scalar ``_classify`` verdict (``"infeasible"`` /
    ``"satisfied"`` / ``"undecided"``) per box; boxes outside the
    exactness band are classified by the scalar path. This is the
    surface the ICP throughput benchmark measures.
    """
    prepared = prepare_atoms(atoms)
    arr = BoxArray.from_boxes(boxes)
    compiled = compile_atoms(prepared, arr.names)
    solver = IcpSolver(backend="scalar")
    if compiled is None:
        return [
            solver._classify(prepared, box)[0] for box in boxes
        ]
    n = len(arr)
    lo = np.ascontiguousarray(arr.lo)
    hi = np.ascontiguousarray(arr.hi)
    bad = np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):
        _guard_bounds(bad, lo)
        _guard_bounds(bad, hi)
        infeasible, undecided_masks = _classify_chunk(compiled, lo, hi, bad)
    undecided = np.zeros(n, dtype=bool)
    for mask in undecided_masks:
        undecided |= mask
    out = []
    for i in range(n):
        if bad[i]:
            out.append(solver._classify(prepared, boxes[i])[0])
        elif infeasible[i]:
            out.append("infeasible")
        elif undecided[i]:
            out.append("undecided")
        else:
            out.append("satisfied")
    return out
