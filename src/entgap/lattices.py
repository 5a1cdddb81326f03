"""Interaction graphs and assembly of 2-local Hamiltonians.

A lattice is a list of bonds on ``n_sites`` qudits; assembling it with a
two-site coupling produces the sum of that coupling embedded on every
bond, stored as one sparse matrix.  Its matvec serves Lanczos; small
systems also get a dense copy, built the first time it is read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .models import parse_identifier
from .operators import DENSE_CUTOFF, HermitianOperator, MatrixFreeOperator, json_int

if TYPE_CHECKING:
    from scipy import sparse

MAX_SIDE = 2 ** 20


@dataclass(frozen=True)
class LatticeSpec:
    """Vertex count, local dimension and bond list (pairs i < j)."""

    n_sites: int
    local_dim: int
    bonds: tuple

    def __post_init__(self):
        for name in ("n_sites", "local_dim"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2, got {getattr(self, name)}")
        seen = set()
        for (i, j) in self.bonds:
            if not (0 <= i < self.n_sites and 0 <= j < self.n_sites):
                raise ValueError(f"bond ({i},{j}) out of range")
            if i == j:
                raise ValueError(f"bond ({i},{j}) is a self-loop")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate bond {key}")
            seen.add(key)
        object.__setattr__(
            self, "bonds", tuple((min(i, j), max(i, j)) for (i, j) in self.bonds)
        )

    @property
    def dim(self) -> int:
        return self.local_dim ** self.n_sites

    @classmethod
    def star(cls, k: int, local_dim: int = 2) -> "LatticeSpec":
        """Center site 0 bonded to k points."""
        if k < 1:
            raise ValueError("star needs k >= 1")
        bonds = tuple((0, i) for i in range(1, k + 1))
        return cls(k + 1, local_dim, bonds)

    @classmethod
    def ring(cls, n: int, local_dim: int = 2) -> "LatticeSpec":
        if n < 3:
            raise ValueError("ring needs n >= 3")
        bonds = tuple((i, (i + 1) % n) for i in range(n))
        return cls(n, local_dim, bonds)

    @classmethod
    def chain(cls, n: int, local_dim: int = 2) -> "LatticeSpec":
        if n < 2:
            raise ValueError("chain needs n >= 2")
        bonds = tuple((i, i + 1) for i in range(n - 1))
        return cls(n, local_dim, bonds)

    @classmethod
    def triangle(cls, local_dim: int = 2) -> "LatticeSpec":
        return cls(3, local_dim, ((0, 1), (1, 2), (0, 2)))

    @classmethod
    def tetrahedron(cls, local_dim: int = 2) -> "LatticeSpec":
        bonds = tuple((i, j) for i in range(4) for j in range(i + 1, 4))
        return cls(4, local_dim, bonds)

    @classmethod
    def complete(cls, n: int, local_dim: int = 2) -> "LatticeSpec":
        if n < 2:
            raise ValueError("complete graph needs n >= 2")
        bonds = tuple((i, j) for i in range(n) for j in range(i + 1, n))
        return cls(n, local_dim, bonds)

    @classmethod
    def from_identifier(cls, text: str, local_dim: int = 2) -> "LatticeSpec":
        """Build a lattice from its CLI identifier (see ``LATTICES``) with
        sites of dimension ``local_dim``; a file sets its own."""
        return parse_identifier(text, LATTICES, local_dim)

    @classmethod
    def from_file(cls, path: str) -> "LatticeSpec":
        """Read lattice JSON: an object with ``n_sites``, ``local_dim`` and
        ``bonds`` (a list of site-index pairs); other keys are ignored."""
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or not {"n_sites", "local_dim", "bonds"} <= data.keys():
            raise ValueError("lattice JSON must be an object with n_sites, local_dim and bonds")
        if not isinstance(data["bonds"], list):
            raise ValueError("bonds must be a list of site-index pairs")
        bonds = []
        for b in data["bonds"]:
            if not isinstance(b, list) or len(b) != 2:
                raise ValueError(f"bond {b!r} must be a pair of site indices")
            bonds.append(tuple(json_int(site, "bond endpoint") for site in b))
        return cls(
            n_sites=json_int(data["n_sites"], "n_sites"),
            local_dim=json_int(data["local_dim"], "local_dim"),
            bonds=tuple(bonds),
        )


# name -> (form, builder, parameter types), read by ``models.parse_identifier``
LATTICES = {
    "star": ("star:<k>", LatticeSpec.star, (int,)),
    "ring": ("ring:<N>", LatticeSpec.ring, (int,)),
    "chain": ("chain:<N>", LatticeSpec.chain, (int,)),
    "triangle": ("triangle", LatticeSpec.triangle, ()),
    "tetrahedron": ("tetrahedron", LatticeSpec.tetrahedron, ()),
    "complete": ("complete:<n>", LatticeSpec.complete, (int,)),
    "file": ("file:<path.json>", lambda path, local_dim: LatticeSpec.from_file(path), (str,)),
}


@dataclass(frozen=True)
class AssembledLattice:
    """Sum of the coupling over all bonds as one sparse matrix, float64
    for a real coupling; the matrix-free apply and the dense form (when
    the side is at most ``DENSE_CUTOFF``) both read it."""

    spec: LatticeSpec
    coupling: HermitianOperator
    matrix: sparse.csr_array

    @cached_property
    def matrix_free(self) -> MatrixFreeOperator:
        """The sparse matvec; accepts (D,) or (D, B)."""
        dims = (self.spec.local_dim,) * self.spec.n_sites
        return MatrixFreeOperator(self.spec.dim, self.matrix.__matmul__, dims)

    @cached_property
    def dense(self) -> HermitianOperator | None:
        """Dense copy of ``matrix`` on first read; None above the cutoff."""
        if self.spec.dim > DENSE_CUTOFF:
            return None
        # cast while sparse: a float64 toarray would stay alive beside its complex copy
        return HermitianOperator(self.matrix.astype(complex).toarray(), self.matrix_free.dims)

    def sector(self, up: int) -> MatrixFreeOperator:
        """The block of ``matrix`` on the basis states with ``up`` sites in
        state 1 (in index order), its entries sliced from ``matrix``.

        ValueError unless the sites are qubits, 0 <= up <= n_sites and
        the coupling keeps the number of 1s on its two sites, so that no
        entry of ``matrix`` leaves the block.
        """
        n, d = self.spec.n_sites, self.spec.local_dim
        if d != 2:
            raise ValueError(f"sector needs qubit sites, got local dimension {d}")
        if not 0 <= up <= n:
            raise ValueError(f"up must lie in [0, {n}], got {up}")
        ones = np.array([0, 1, 1, 2])  # 1s in the two-site states 00, 01, 10, 11
        out, inp = np.nonzero(self.coupling.matrix)
        if np.any(ones[out] != ones[inp]):
            raise ValueError("coupling changes the number of 1s on a bond; it has no sectors")
        index = np.arange(self.spec.dim)
        count = sum((index >> k) & 1 for k in range(n))
        keep = np.flatnonzero(count == up)
        block = self.matrix[keep][:, keep]
        return MatrixFreeOperator(keep.size, block.__matmul__)


def _bond_matrix(h2: np.ndarray, i: int, j: int, spec: LatticeSpec) -> sparse.csr_array:
    """``h2`` on sites i < j (first factor on i), identity elsewhere.

    A basis index is the number whose base-d digits are the site states,
    site 0 most significant.  Each nonzero h2[p, q] links every index
    with digits (q // d, q % d) on (i, j) to the one with (p // d, p % d)
    there and the same other digits.
    """
    from scipy import sparse

    d, n = spec.local_dim, spec.n_sites
    # int32 indices: MAX_SIDE keeps every index below 2**31
    free = np.arange(spec.dim, dtype=np.int32).reshape((d,) * n)[
        tuple(0 if k in (i, j) else slice(None) for k in range(n))
    ].ravel()
    pair = np.arange(d * d, dtype=np.int32)
    offset = (pair // d) * d ** (n - 1 - i) + (pair % d) * d ** (n - 1 - j)
    out, inp = np.nonzero(h2)
    rows = (offset[out, None] + free).ravel()
    cols = (offset[inp, None] + free).ravel()
    data = np.repeat(h2[out, inp], free.size)
    return sparse.csr_array((data, (rows, cols)), shape=(spec.dim, spec.dim))


def assemble(spec: LatticeSpec, coupling: HermitianOperator) -> AssembledLattice:
    """Embed the two-site coupling on every bond of the lattice and sum
    the bond matrices in bond order."""
    from scipy import sparse

    if coupling.n_subsystems != 2 or coupling.dims[0] != coupling.dims[1]:
        raise ValueError("coupling must act on two factors of equal dimension")
    if coupling.dims[0] != spec.local_dim:
        raise ValueError(
            f"coupling local dimension {coupling.dims[0]} does not match "
            f"lattice local dimension {spec.local_dim}"
        )
    side = spec.dim
    if side > MAX_SIDE:
        raise ValueError(f"side {side} exceeds the maximum {MAX_SIDE}")
    h2 = coupling.matrix if coupling.matrix.imag.any() else coupling.matrix.real
    matrix = sparse.csr_array((side, side), dtype=h2.dtype)
    for (i, j) in spec.bonds:
        matrix = matrix + _bond_matrix(h2, i, j, spec)
    return AssembledLattice(spec=spec, coupling=coupling, matrix=matrix)


def star_ground_energy_heisenberg(k: int) -> float:
    """Ground energy of the Heisenberg coupling on a star with k points.

    The center couples to the collective spin of the points; the minimum
    sits in the maximal-point-spin sector, giving -(k + 2) exactly.
    """
    if k < 1:
        raise ValueError("star needs k >= 1")
    return -(k + 2.0)


# Ground-state energies per bond for the Heisenberg antiferromagnet on
# lattices we never diagonalize; shipped as reference data with source
# tags (review compilation, linear spin-wave theory, or finite-sample ED).
REFERENCE_ENERGIES = {
    "hexagonal": {"coordination": 3, "e0_per_bond": -1.452, "source": "review"},
    "square": {"coordination": 4, "e0_per_bond": -1.338, "source": "review"},
    "cubic": {"coordination": 6, "e0_per_bond": -1.194, "source": "spin-wave"},
    "kagome": {"coordination": 4, "e0_per_bond": -0.874, "source": "review"},
    "triangular": {"coordination": 6, "e0_per_bond": -0.726, "source": "review"},
    "checkerboard": {"coordination": 6, "e0_per_bond": -0.67, "source": "small-sample ED"},
}
