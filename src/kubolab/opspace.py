"""Operator-space algebra at finite volume.

Normalized trace, Hilbert-Schmidt inner product, the three operator norms,
the dagger conjugation, and the left/right/diamond products with their
generalized commutators.  At finite volume the three product maps coincide
with the matrix product; they are kept as distinct named entry points so
that every algebraic identity can be exercised in the form it is stated.

Everything here is a pure function; ensembles may be mapped over
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CovariantOperator, ModelMismatchError


@dataclass
class OperatorNorms:
    norm1: float
    norm2: float
    norminf: float


@dataclass
class EnsembleOperator:
    """Weighted finite family of realizations standing in for E{.}."""

    realizations: list[tuple[CovariantOperator, float]]

    def __post_init__(self):
        if not self.realizations:
            raise ValueError("ensemble needs at least one realization")
        tags = {op.model.tag for op, _ in self.realizations}
        if len(tags) > 1:
            raise ModelMismatchError("ensemble realizations on different lattices")
        total = sum(w for _, w in self.realizations)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"ensemble weights sum to {total}, expected 1")

    @classmethod
    def single(cls, op: CovariantOperator) -> "EnsembleOperator":
        return cls([(op, 1.0)])

    @classmethod
    def uniform(cls, ops: list[CovariantOperator]) -> "EnsembleOperator":
        w = 1.0 / len(ops)
        return cls([(op, w) for op in ops])


def trace_per_unit_volume(a) -> complex:
    """Normalized trace sum_realizations w * tr(A_w) / N."""
    if isinstance(a, CovariantOperator):
        a = EnsembleOperator.single(a)
    return complex(
        sum(w * np.trace(op.matrix) / op.n for op, w in a.realizations)
    )


def hs_inner(a: CovariantOperator, b: CovariantOperator) -> complex:
    """<<A, B>> = tr(A* B) / N, sesquilinear with the first slot conjugated."""
    a.require_same_model(b)
    return complex(np.vdot(a.matrix, b.matrix) / a.n)


def norms(a: CovariantOperator) -> OperatorNorms:
    """Trace-per-volume, Hilbert-Schmidt-per-volume and sup norms via SVD."""
    sv = np.linalg.svd(a.matrix, compute_uv=False)
    n = a.n
    return OperatorNorms(
        norm1=float(np.sum(sv) / n),
        norm2=float(np.sqrt(np.sum(sv**2) / n)),
        norminf=float(sv[0]) if sv.size else 0.0,
    )


def norm2(a: CovariantOperator) -> float:
    return float(np.linalg.norm(a.matrix) / np.sqrt(a.n))


def dagger(a: CovariantOperator) -> CovariantOperator:
    """Conjugation A -> A^dd; the conjugate transpose at finite volume."""
    return CovariantOperator(a.matrix.conj().T, a.model)


def prod_left(b: CovariantOperator, a: CovariantOperator) -> CovariantOperator:
    """Left module product B (.)_L A of a bounded B against A."""
    b.require_same_model(a)
    return CovariantOperator(b.matrix @ a.matrix, b.model)


def prod_right(a: CovariantOperator, b: CovariantOperator) -> CovariantOperator:
    """Right module product A (.)_R B, defined through the conjugation.

    Evaluated as (B* (.)_L A^dd)^dd, which collapses to the matrix product
    at finite volume; the detour matters only in infinite dimension.
    """
    a.require_same_model(b)
    return dagger(prod_left(dagger(b), dagger(a)))


def prod_diamond(a: CovariantOperator, b: CovariantOperator) -> CovariantOperator:
    """Bilinear product of two Hilbert-Schmidt-class operators."""
    a.require_same_model(b)
    return CovariantOperator(a.matrix @ b.matrix, a.model)


def comm_odot(b: CovariantOperator, a: CovariantOperator) -> CovariantOperator:
    """[B, A]_odot = B (.)_L A - A (.)_R B."""
    left = prod_left(b, a)
    right = prod_right(a, b)
    return CovariantOperator(left.matrix - right.matrix, a.model)


def comm_diamond(a: CovariantOperator, b: CovariantOperator) -> CovariantOperator:
    """[A, B]_diamond = A <> B - B <> A."""
    return CovariantOperator(
        prod_diamond(a, b).matrix - prod_diamond(b, a).matrix, a.model
    )


def comm_ddagger(h: CovariantOperator, a: CovariantOperator) -> CovariantOperator:
    """[H, A]_dd = H A - (H A^dd)^dd, the commutator form built for an
    unbounded H; reduces to H A - A H entrywise."""
    h.require_same_model(a)
    ha = h.matrix @ a.matrix
    had = h.matrix @ a.matrix.conj().T
    return CovariantOperator(ha - had.conj().T, a.model)
