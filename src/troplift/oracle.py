"""Brute-force membership test by minimal-support row-space vectors.

A point w lies in the valuation image of the solution set of M*y = 0
exactly when, for every minimal-support vector c of the row space of M,
the minimum of valuation(c_j) + w_j over the support is attained at
least twice.  Affine systems A*x = b reduce to this with M = [A | -b]
and w extended by 0.  Supports are visited by size, skipping any that
contains a circuit already found, so every nonzero row-space vector
inside a visited support S covers S: a zero would put a smaller circuit
inside.  Any two such vectors are then multiples (else a combination
would have a zero), and the first one found is the circuit on S.  The
enumeration is exponential in the number of columns and guarded
accordingly; it exists purely to cross-check the polynomial decision
procedure and never sits on its code path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from troplift.linalg import Matrix, kernel_basis
from troplift.series import INF, PuiseuxFraction

__all__ = [
    "Circuit",
    "TooLargeError",
    "homogenize",
    "minimal_support_vectors",
    "member_oracle",
    "MAX_ORACLE_COLUMNS",
]

MAX_ORACLE_COLUMNS = 13


class TooLargeError(ValueError):
    """The exponential support enumeration was asked to exceed its guard."""


@dataclass(frozen=True)
class Circuit:
    """A row-space vector of inclusion-minimal nonzero support."""

    support: frozenset
    vector: tuple


def homogenize(inst):
    """The matrix [A | -b]; solutions of A*x=b are kernel vectors (x, 1)."""
    return Matrix.from_rows(
        [list(row) + [-c] for row, c in zip(inst.matrix, inst.rhs)])


def _support_vector(matrix, support):
    """The first nonzero row-space vector vanishing off `support`, or None.

    It is the first nonzero image c*M over the `kernel_basis` of the row
    combinations c that vanish on the other columns.
    """
    m = matrix.nrows
    complement = [j for j in range(matrix.ncols) if j not in support]
    constraint = [[matrix[i][j] for i in range(m)] for j in complement]
    zero = PuiseuxFraction.zero()
    for c in kernel_basis(constraint, ncols=m):
        img = [zero] * matrix.ncols
        for j in support:
            acc = zero
            for i in range(m):
                if c[i] and matrix[i][j]:
                    acc = acc + c[i] * matrix[i][j]
            img[j] = acc
        if any(img):
            return tuple(img)
    return None


def minimal_support_vectors(matrix, max_cols=MAX_ORACLE_COLUMNS):
    """All circuits of the row space, by exhaustive support enumeration."""
    n = matrix.ncols
    if n > max_cols:
        raise TooLargeError(
            "%d columns exceed the enumeration guard of %d" % (n, max_cols))
    masks = sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))
    circuits = []
    for mask in masks:
        support = frozenset(j for j in range(n) if mask >> j & 1)
        if any(c.support <= support for c in circuits):
            continue
        vec = _support_vector(matrix, support)
        if vec is None:
            continue
        if not all(vec[j] for j in support):
            raise AssertionError("row-space vector does not cover its support")
        circuits.append(Circuit(support=support, vector=vec))
    return circuits


def member_oracle(inst, v, max_cols=MAX_ORACLE_COLUMNS):
    """True iff v is the valuation vector of some exact solution of A*x=b.

    INF coordinates pin the matching unknowns to zero before the circuit
    criterion is evaluated.
    """
    coords = list(v)
    if len(coords) != inst.n:
        raise ValueError("point length does not match instance")
    kept = [j for j, c in enumerate(coords) if c != INF]
    matrix = homogenize(replace(inst, matrix=tuple(
        tuple(row[j] for j in kept) for row in inst.matrix)))
    w = [Fraction(coords[j]) for j in kept] + [Fraction(0)]
    circuits = minimal_support_vectors(matrix, max_cols=max_cols)
    for circ in circuits:
        values = [circ.vector[j].valuation() + w[j] for j in circ.support]
        low = min(values)
        if sum(1 for val in values if val == low) < 2:
            return False
    return True
