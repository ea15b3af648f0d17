"""Generic LMI feasibility via the deep-cut ellipsoid method.

Solves feasibility problems of the form

    find x in R^d  such that  F_j(x) := F_j0 + sum_i x_i F_ji  ≻  margin_j I
                              for every block j,

which is the shape of the piecewise-quadratic S-procedure synthesis
problems (Section VI-B.2 of the paper): the decision vector collects the
entries of several ``P_i`` matrices and the S-procedure multipliers.

The ellipsoid method needs only a separation oracle: at an infeasible
``x``, the most-violated block has a unit eigenvector ``v`` with
``v^T F_j(x) v < margin_j``, and ``g_i = -v^T F_ji v`` defines a valid
deep cut. Convergence is geometric in volume — slow but extremely
robust, matching the role this solver plays (candidates for a problem
the paper reports as numerically delicate).

The oracle has two implementations:

* the *tensorized* one (default): every block is compiled once into a
  stacked ``(d, n, n)`` coefficient tensor (:class:`CompiledLmiSystem`),
  same-sized blocks are batched, and one iteration is a handful of
  einsum / batched-``eigh`` calls. A Cholesky screen skips the
  eigendecomposition of block groups that are already feasible, and an
  optional *active-set* mode (``sweep_every=K``) re-checks only the
  recently violated blocks between full sweeps;
* the original per-block Python loop (``batch_oracle=False``), kept as
  the differential oracle the property suite compares against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LmiBlock",
    "CompiledLmiSystem",
    "EllipsoidResult",
    "solve_lmi_ellipsoid",
    "sampled_cut",
    "cut_fingerprint",
]


@dataclass
class LmiBlock:
    """One constraint ``F0 + sum_i x_i F[i] ⪰ margin I`` (symmetric data)."""

    f0: np.ndarray
    coefficients: list[np.ndarray]
    margin: float = 0.0
    name: str = ""

    def __post_init__(self):
        self.f0 = np.asarray(self.f0, dtype=float)
        self.coefficients = [np.asarray(f, dtype=float) for f in self.coefficients]
        size = self.f0.shape[0]
        for f in self.coefficients:
            if f.shape != (size, size):
                raise ValueError("coefficient block size mismatch")

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """``F0 + sum_i x_i F_i`` at the point ``x``."""
        matrix = self.f0.copy()
        for value, coefficient in zip(x, self.coefficients):
            if value:
                matrix += value * coefficient
        return matrix

    def violation(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """``(margin - lambda_min, eigenvector)`` — positive means violated."""
        matrix = self.evaluate(x)
        eigenvalues, vectors = np.linalg.eigh(matrix)
        return self.margin - float(eigenvalues[0]), vectors[:, 0]


def sampled_cut(
    block: LmiBlock, vector: np.ndarray, name: str = ""
) -> LmiBlock:
    """Restrict ``block`` to one direction: ``v^T F(x) v >= margin |v|^2``.

    The returned 1x1 block is *implied* by the matrix constraint, so
    adding it never excludes a point that is margin-feasible for the
    original block — the soundness invariant the CEGIS metamorphic
    fuzz check pins. The direction is normalized so cut fingerprints
    (:func:`cut_fingerprint`) are scale-invariant.
    """
    v = np.asarray(vector, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm <= 0.0 or not np.isfinite(norm):
        raise ValueError("sampled_cut needs a nonzero finite direction")
    v = v / norm
    f0 = np.array([[float(v @ block.f0 @ v)]])
    coefficients = [
        np.array([[float(v @ f @ v)]]) for f in block.coefficients
    ]
    return LmiBlock(
        f0,
        coefficients,
        margin=block.margin,
        name=name or (f"cut:{block.name}" if block.name else "cut"),
    )


def cut_fingerprint(
    block_name: str, vector: np.ndarray, digits: int = 6
) -> tuple:
    """Hashable identity of a sampled cut: block + normalized direction.

    Directions are normalized to unit length, sign-canonicalized (the
    first nonzero component made positive — ``v`` and ``-v`` induce the
    same quadratic cut) and rounded to ``digits`` decimals, so
    near-identical witnesses from different refutation rounds collapse
    to one fingerprint and the loop cannot stall re-adding them.
    """
    v = np.asarray(vector, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm > 0.0 and np.isfinite(norm):
        v = v / norm
    rounded = np.round(v, digits) + 0.0  # fold -0.0 into +0.0
    for component in rounded:
        if component != 0.0:
            if component < 0.0:
                rounded = -rounded + 0.0
            break
    return (block_name, tuple(float(c) for c in rounded))


@dataclass
class _BlockGroup:
    """Same-sized blocks stacked for batched evaluation."""

    size: int
    indices: np.ndarray  # original block indices, shape (B,)
    f0: np.ndarray  # (B, n, n)
    tensor: np.ndarray  # (B, d, n, n)
    margins: np.ndarray  # (B,)
    eye: np.ndarray  # (n, n), shared identity


class CompiledLmiSystem:
    """An LMI block system precompiled into stacked coefficient tensors.

    Each block's coefficient list becomes one ``(d, n, n)`` tensor, and
    blocks of identical matrix size are grouped so the separation oracle
    evaluates them with a single ``tensordot`` and (when needed) one
    batched ``eigh`` per group instead of a Python loop per block.
    """

    def __init__(self, blocks: list[LmiBlock], dimension: int):
        if not blocks:
            raise ValueError(
                "cannot compile an empty LMI system: at least one "
                "LmiBlock is required"
            )
        if dimension < 1:
            raise ValueError("dimension must be positive")
        for block in blocks:
            if len(block.coefficients) != dimension:
                raise ValueError(
                    f"block {block.name!r} has {len(block.coefficients)} "
                    f"coefficients, expected {dimension}"
                )
        self.blocks = list(blocks)
        self.dimension = int(dimension)
        by_size: dict[int, list[int]] = {}
        for index, block in enumerate(blocks):
            by_size.setdefault(block.f0.shape[0], []).append(index)
        self.groups: list[_BlockGroup] = []
        #: block index -> (group position in self.groups, row within group)
        self._where = np.empty((len(blocks), 2), dtype=int)
        for position, (size, indices) in enumerate(sorted(by_size.items())):
            self.groups.append(
                _BlockGroup(
                    size=size,
                    indices=np.asarray(indices, dtype=int),
                    f0=np.stack([blocks[i].f0 for i in indices]),
                    tensor=np.stack(
                        [np.stack(blocks[i].coefficients) for i in indices]
                    ),
                    margins=np.array(
                        [blocks[i].margin for i in indices], dtype=float
                    ),
                    eye=np.eye(size),
                )
            )
            for row, index in enumerate(indices):
                self._where[index] = (position, row)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def with_cuts(self, cuts: list[LmiBlock]) -> "CompiledLmiSystem":
        """A new compiled system with ``cuts`` appended.

        Group tensors for sizes untouched by the cuts are shared with
        ``self`` (no re-stacking); only the groups whose size gains a
        block are rebuilt. This keeps per-round recompilation in a
        CEGIS loop proportional to the number of cuts, not to the size
        of the base system.
        """
        if not cuts:
            return self
        for cut in cuts:
            if len(cut.coefficients) != self.dimension:
                raise ValueError(
                    f"cut {cut.name!r} has {len(cut.coefficients)} "
                    f"coefficients, expected {self.dimension}"
                )
        combined = CompiledLmiSystem.__new__(CompiledLmiSystem)
        combined.blocks = self.blocks + list(cuts)
        combined.dimension = self.dimension
        touched = {cut.f0.shape[0] for cut in cuts}
        by_size: dict[int, list[int]] = {}
        for index, block in enumerate(combined.blocks):
            by_size.setdefault(block.f0.shape[0], []).append(index)
        reusable = {group.size: group for group in self.groups}
        combined.groups = []
        combined._where = np.empty((len(combined.blocks), 2), dtype=int)
        for position, (size, indices) in enumerate(sorted(by_size.items())):
            if size not in touched and size in reusable:
                old = reusable[size]
                group = _BlockGroup(
                    size=size,
                    indices=np.asarray(indices, dtype=int),
                    f0=old.f0,
                    tensor=old.tensor,
                    margins=old.margins,
                    eye=old.eye,
                )
            else:
                group = _BlockGroup(
                    size=size,
                    indices=np.asarray(indices, dtype=int),
                    f0=np.stack(
                        [combined.blocks[i].f0 for i in indices]
                    ),
                    tensor=np.stack(
                        [
                            np.stack(combined.blocks[i].coefficients)
                            for i in indices
                        ]
                    ),
                    margins=np.array(
                        [combined.blocks[i].margin for i in indices],
                        dtype=float,
                    ),
                    eye=np.eye(size),
                )
            combined.groups.append(group)
            for row, index in enumerate(indices):
                combined._where[index] = (position, row)
        return combined

    # ------------------------------------------------------------------
    def _group_values(
        self, group: _BlockGroup, x: np.ndarray, rows: np.ndarray | None
    ) -> np.ndarray:
        """``F_j(x)`` for the (selected rows of the) group, shape (B, n, n)."""
        f0 = group.f0 if rows is None else group.f0[rows]
        tensor = group.tensor if rows is None else group.tensor[rows]
        return f0 + np.tensordot(x, tensor, axes=([0], [1]))

    @staticmethod
    def _group_min_eigen(
        group: _BlockGroup, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched ``(lambda_min, eigenvector)`` per stacked matrix."""
        if group.size == 1:
            return values[:, 0, 0], np.ones((values.shape[0], 1))
        eigenvalues, vectors = np.linalg.eigh(values)
        return eigenvalues[:, 0], vectors[:, :, 0]

    def evaluate(self, index: int, x: np.ndarray) -> np.ndarray:
        """``F_j(x)`` of one block via its compiled tensor (``f0 + x·F``)."""
        position, row = self._where[index]
        group = self.groups[position]
        return group.f0[row] + np.tensordot(
            x, group.tensor[row], axes=([0], [0])
        )

    def violations(self, x: np.ndarray) -> np.ndarray:
        """All block violations ``margin - lambda_min`` in block order."""
        out = np.empty(self.n_blocks)
        for group in self.groups:
            values = self._group_values(group, x, None)
            lambda_min, _ = self._group_min_eigen(group, values)
            out[group.indices] = group.margins - lambda_min
        return out

    def gradient(self, index: int, vector: np.ndarray) -> np.ndarray:
        """Deep-cut gradient ``g_i = -v^T F_ji v`` for block ``index``."""
        position, row = self._where[index]
        tensor = self.groups[position].tensor[row]
        return -np.einsum("inm,n,m->i", tensor, vector, vector)

    def oracle(
        self, x: np.ndarray, active: np.ndarray | None = None
    ) -> tuple[float, np.ndarray, int, np.ndarray]:
        """Most-violated block over the (active subset of) blocks.

        Returns ``(worst, eigenvector, block_index, violations)`` where
        ``violations`` holds ``margin - lambda_min`` per block in
        original order (``-inf`` for blocks that were skipped: inactive
        ones, and — only when some *other* block is violated — blocks
        whose group passed the Cholesky feasibility screen, so their
        exact eigenvalues were never needed).

        A group whose shifted stack ``F_j(x) - margin_j I`` admits a
        batched Cholesky factorization is feasible throughout, so its
        eigendecomposition is skipped entirely; when every group passes
        (the converged case) one exact eigen pass confirms feasibility
        and reports the true worst violation.
        """
        violations = np.full(self.n_blocks, -np.inf)
        vectors: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        screened: list[tuple[int, np.ndarray | None, np.ndarray]] = []
        for position, group in enumerate(self.groups):
            rows: np.ndarray | None = None
            if active is not None:
                mask = active[group.indices]
                if not mask.any():
                    continue
                rows = np.nonzero(mask)[0]
            values = self._group_values(group, x, rows)
            margins = group.margins if rows is None else group.margins[rows]
            shifted = values - margins[:, None, None] * group.eye
            try:
                np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                pass
            else:  # whole group strictly feasible: skip its eigh for now
                screened.append((position, rows, values))
                continue
            lambda_min, group_vectors = self._group_min_eigen(group, values)
            indices = (
                group.indices if rows is None else group.indices[rows]
            )
            violations[indices] = margins - lambda_min
            vectors[position] = (indices, group_vectors)
        if not vectors or violations.max() <= 0.0:
            # Nothing violated among the eigendecomposed groups: resolve
            # the screened groups exactly so the reported worst (and the
            # feasibility verdict) matches the per-block oracle.
            for position, rows, values in screened:
                group = self.groups[position]
                lambda_min, group_vectors = self._group_min_eigen(
                    group, values
                )
                margins = (
                    group.margins if rows is None else group.margins[rows]
                )
                indices = (
                    group.indices if rows is None else group.indices[rows]
                )
                violations[indices] = margins - lambda_min
                vectors[position] = (indices, group_vectors)
        worst_index = int(np.argmax(violations))
        worst = float(violations[worst_index])
        position = int(self._where[worst_index][0])
        indices, group_vectors = vectors[position]
        vector = group_vectors[int(np.nonzero(indices == worst_index)[0][0])]
        return worst, vector, worst_index, violations


@dataclass
class EllipsoidResult:
    """Outcome of an ellipsoid-method run (best iterate + flags)."""
    x: np.ndarray
    feasible: bool
    iterations: int
    worst_violation: float
    history: list[float] = field(default_factory=list)
    #: a cut of depth >= 1 claimed the initial ball empty (in floats)
    proved_infeasible: bool = False


def solve_lmi_ellipsoid(
    blocks: list[LmiBlock],
    dimension: int,
    initial_radius: float = 1e3,
    max_iterations: int = 50_000,
    record_history: bool = False,
    batch_oracle: bool = True,
    sweep_every: int | None = None,
    compiled: CompiledLmiSystem | None = None,
    initial_center: np.ndarray | None = None,
) -> EllipsoidResult:
    """Run the deep-cut ellipsoid method until feasibility or collapse.

    ``batch_oracle`` selects the tensorized separation oracle (compiled
    coefficient tensors, batched ``eigh``, Cholesky feasibility screen);
    ``False`` runs the original per-block Python loop, kept as the
    differential oracle. ``sweep_every=K`` (tensorized oracle only)
    enables active-set mode: between full sweeps, only the blocks that
    were violated at the last full sweep are re-checked, with a full
    sweep forced every ``K`` iterations and before any feasibility or
    best-iterate claim. ``compiled`` reuses an existing
    :class:`CompiledLmiSystem` (e.g. shared with the barrier polisher)
    instead of compiling ``blocks`` again. ``initial_center`` recenters
    the starting ellipsoid (default: the origin) — the ``center`` of
    :func:`repro.sdp.solve_lmi_hybrid`, through which the CEGIS loop
    keeps the initial ball around the previous round's near-feasible
    iterate.

    A cut of depth >= 1 strips the whole ellipsoid: the run then stops
    with ``proved_infeasible=True`` and the best iterate. The claim is
    computed in floats and covers only the ball of ``initial_radius``
    around the start, so it is numerical evidence that the system is
    empty there, not an exact proof.
    """
    if dimension < 1:
        raise ValueError("dimension must be positive")
    if not blocks:
        raise ValueError(
            "solve_lmi_ellipsoid needs at least one LmiBlock "
            "(got an empty block list)"
        )
    for block in blocks:
        if len(block.coefficients) != dimension:
            raise ValueError(
                f"block {block.name!r} has {len(block.coefficients)} "
                f"coefficients, expected {dimension}"
            )
    system: CompiledLmiSystem | None = None
    if batch_oracle:
        system = compiled if compiled is not None else CompiledLmiSystem(
            blocks, dimension
        )
    if initial_center is None:
        x = np.zeros(dimension)
    else:
        x = np.asarray(initial_center, dtype=float).copy()
        if x.shape != (dimension,):
            raise ValueError(
                f"initial_center has shape {x.shape}, expected "
                f"({dimension},)"
            )
    shape = (initial_radius**2) * np.eye(dimension)  # ellipsoid matrix
    history: list[float] = []
    best_x = x.copy()
    best_violation = np.inf
    d = float(dimension)
    active: np.ndarray | None = None
    since_sweep = 0
    for iteration in range(1, max_iterations + 1):
        if system is not None:
            full_sweep = (
                sweep_every is None
                or active is None
                or since_sweep >= sweep_every
            )
            worst, gradient_vector, worst_index, violations = system.oracle(
                x, active=None if full_sweep else active
            )
            if not full_sweep and worst <= 0.0:
                # The active subset is satisfied; confirm on everything.
                full_sweep = True
                worst, gradient_vector, worst_index, violations = (
                    system.oracle(x)
                )
            if full_sweep:
                since_sweep = 0
                if sweep_every is not None:
                    active = violations > 0.0
                    active[worst_index] = True
            else:
                since_sweep += 1
        else:
            full_sweep = True
            worst, gradient_vector, worst_block = _most_violated(blocks, x)
        if record_history:
            history.append(worst)
        # Partial (active-set) sweeps underestimate the true violation,
        # so the best-iterate bookkeeping only trusts full sweeps.
        if full_sweep and worst < best_violation:
            best_violation = worst
            best_x = x.copy()
        if worst <= 0.0:
            return EllipsoidResult(x, True, iteration, worst, history)
        # Deep cut: g^T (y - x) + violation <= 0 for all feasible y,
        # where g_i = -v^T F_ji v.
        if system is not None:
            g = system.gradient(worst_index, gradient_vector)
        else:
            g = np.array(
                [
                    -gradient_vector @ coefficient @ gradient_vector
                    for coefficient in worst_block.coefficients
                ]
            )
        g_norm_sq = float(g @ shape @ g)
        if g_norm_sq <= 0 or not np.isfinite(g_norm_sq):
            break
        g_norm = np.sqrt(g_norm_sq)
        # Depth of the cut (normalized); > 1 certifies an empty ellipsoid.
        depth = worst / g_norm
        if depth >= 1.0:
            # The deep cut strips the entire ellipsoid: no feasible
            # point within the initial ball, up to float rounding.
            return EllipsoidResult(
                best_x, False, iteration, best_violation, history,
                proved_infeasible=True,
            )
        depth = max(depth, 0.0)
        if dimension == 1:
            # Degenerate update: interval bisection on the cut.
            step = shape @ g / g_norm
            x = x - 0.5 * (1 + depth) * step
            shape = np.atleast_2d(shape * (1 - depth) ** 2 / 4.0)
            if shape[0, 0] < 1e-24:
                break
            continue
        tau = (1 + d * depth) / (d + 1)
        delta = (d**2 / (d**2 - 1)) * (1 - depth**2)
        sigma = 2 * (1 + d * depth) / ((d + 1) * (1 + depth))
        step = shape @ g / g_norm
        x = x - tau * step
        shape = delta * (shape - sigma * np.outer(step, step))
        shape = 0.5 * (shape + shape.T)
        if np.trace(shape) < 1e-24:
            break
    return EllipsoidResult(best_x, False, max_iterations, best_violation, history)


def _most_violated(
    blocks: list[LmiBlock], x: np.ndarray
) -> tuple[float, np.ndarray, LmiBlock]:
    if not blocks:
        raise ValueError(
            "separation oracle called with an empty block list: an LMI "
            "system needs at least one LmiBlock"
        )
    worst = -np.inf
    worst_vector = None
    worst_block = None
    for block in blocks:
        violation, vector = block.violation(x)
        if violation > worst:
            worst = violation
            worst_vector = vector
            worst_block = block
    return worst, worst_vector, worst_block
