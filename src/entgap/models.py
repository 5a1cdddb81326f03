"""Constructors for the named two-site couplings and projector Hamiltonians.

Spin couplings (Heisenberg, XY, XXZ) act on two qubits; the projector
families (maximally entangled, symmetric, completely entangled subspace,
Choi, unextendible product basis) act on two qudits.  Every constructor
returns a :class:`~entgap.operators.HermitianOperator`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .operators import HermitianOperator, operator_from_json

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

MAX_PROJECTOR_DIM = 32  # side d^2 beyond this is pointless at desk scale


def _proj(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex).ravel()
    return np.outer(v, v.conj())


def basis_state(d: int, i: int) -> np.ndarray:
    e = np.zeros(d, dtype=complex)
    e[i] = 1.0
    return e


def max_entangled_state(d: int) -> np.ndarray:
    """|phi_d> = sum_i |ii> / sqrt(d)."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


def singlet() -> np.ndarray:
    """(|01> - |10>)/sqrt(2)."""
    return np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def heisenberg_pair() -> HermitianOperator:
    """Antiferromagnetic Heisenberg coupling: sum of the three Pauli products.

    Spectrum {-3, 1, 1, 1}; equals 4(I - singlet projector) - 3I.
    """
    m = (
        np.kron(SIGMA_X, SIGMA_X)
        + np.kron(SIGMA_Y, SIGMA_Y)
        + np.kron(SIGMA_Z, SIGMA_Z)
    )
    return HermitianOperator(m, (2, 2))


def xy_pair(gamma: float, lam: float) -> HermitianOperator:
    """Anisotropic XY coupling with a transverse field shared between both sites.

    (1+g)/2 XX + (1-g)/2 YY + l/2 (Z1 + Z2); the half field makes the
    coupling summable over a ring where each site sits on two bonds.
    """
    m = (
        (1 + gamma) / 2 * np.kron(SIGMA_X, SIGMA_X)
        + (1 - gamma) / 2 * np.kron(SIGMA_Y, SIGMA_Y)
        + lam / 2 * (np.kron(SIGMA_Z, ID2) + np.kron(ID2, SIGMA_Z))
    )
    return HermitianOperator(m, (2, 2))


def xxz_pair(delta: float) -> HermitianOperator:
    """XXZ coupling XX + YY + delta ZZ (delta = 1 recovers Heisenberg)."""
    m = (
        np.kron(SIGMA_X, SIGMA_X)
        + np.kron(SIGMA_Y, SIGMA_Y)
        + delta * np.kron(SIGMA_Z, SIGMA_Z)
    )
    return HermitianOperator(m, (2, 2))


def max_entangled_projector_hamiltonian(d: int) -> HermitianOperator:
    """I minus the projector onto |phi_d>: one ground state at 0, d^2 - 1 levels at 1."""
    if d < 2:
        raise ValueError("subsystem dimension must be >= 2")
    if d > MAX_PROJECTOR_DIM:
        raise ValueError(f"d = {d} exceeds the projector-family guard {MAX_PROJECTOR_DIM}")
    m = np.eye(d * d) - _proj(max_entangled_state(d))
    return HermitianOperator(m, (d, d))


def swap_operator(d: int) -> np.ndarray:
    """Permutation operator exchanging the two d-dimensional factors."""
    v = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            v[i * d + j, j * d + i] = 1.0
    return v


def symmetric_projector_hamiltonian(d: int) -> HermitianOperator:
    """(I + SWAP)/2: antisymmetric states at 0, symmetric states at 1."""
    if d < 2:
        raise ValueError("subsystem dimension must be >= 2")
    if d > MAX_PROJECTOR_DIM:
        raise ValueError(f"d = {d} exceeds the projector-family guard {MAX_PROJECTOR_DIM}")
    m = (np.eye(d * d) + swap_operator(d)) / 2
    return HermitianOperator(m, (d, d))


def ces_projector(d: int) -> np.ndarray:
    """Projector onto a completely entangled subspace of dimension (d-1)^2.

    The subspace is the orthocomplement of span{v_t (x) v_t} for 2d-1
    distinct real t, with v_t = (1, t, ..., t^(d-1)).  That span has
    dimension exactly 2d-1 (Vandermonde), leaving d^2 - (2d-1) = (d-1)^2,
    the largest dimension a subspace without product states can have.
    It contains the whole antisymmetric subspace.
    """
    ts = np.linspace(-1.0, 1.0, 2 * d - 1)
    cols = []
    for t in ts:
        v = t ** np.arange(d)
        v = v / np.linalg.norm(v)
        cols.append(np.kron(v, v))
    w = np.column_stack(cols).astype(complex)
    u, s, _ = np.linalg.svd(w, full_matrices=False)
    rank = int(np.count_nonzero(s > 1e-10 * s[0]))
    if rank != 2 * d - 1:
        raise RuntimeError(f"symmetric product span has rank {rank}, expected {2 * d - 1}")
    span_proj = u[:, :rank] @ u[:, :rank].conj().T
    return np.eye(d * d) - span_proj


def ces_hamiltonian(d: int) -> HermitianOperator:
    """I minus the CES projector: the (d-1)^2 completely entangled states sit at 0."""
    if d < 3:
        raise ValueError("the CES construction needs d >= 3")
    if d > 6:
        raise ValueError("CES Hamiltonians are limited to d <= 6")
    m = np.eye(d * d) - ces_projector(d)
    return HermitianOperator(m, (d, d))


def choi_hamiltonian() -> HermitianOperator:
    """Two-qutrit Hamiltonian built from the Choi positive map.

    2(|00><00| + |11><11| + |22><22|) + |02><02| + |10><10| + |21><21|
    - 3 |psi+><psi+|; ground energy -1, minimum separable energy 0, and
    PPT states reach (3 - 2*sqrt(3))/3 below zero.
    """
    def ket(i, j):
        return np.kron(basis_state(3, i), basis_state(3, j))

    m = 2.0 * (_proj(ket(0, 0)) + _proj(ket(1, 1)) + _proj(ket(2, 2)))
    m += _proj(ket(0, 2)) + _proj(ket(1, 0)) + _proj(ket(2, 1))
    m -= 3.0 * _proj(max_entangled_state(3))
    return HermitianOperator(m, (3, 3))


def tiles_upb_states() -> list[np.ndarray]:
    """The five-state 3x3 'Tiles' unextendible product basis."""
    e = [basis_state(3, i) for i in range(3)]
    s2 = np.sqrt(2)
    states = [
        np.kron(e[0], (e[0] - e[1]) / s2),
        np.kron(e[2], (e[1] - e[2]) / s2),
        np.kron((e[0] - e[1]) / s2, e[2]),
        np.kron((e[1] - e[2]) / s2, e[0]),
        np.kron(e[0] + e[1] + e[2], e[0] + e[1] + e[2]) / 3.0,
    ]
    return states


UPB_BASES = {"tiles": tiles_upb_states}


def upb_hamiltonian(basis: str = "tiles") -> HermitianOperator:
    """Projector onto an unextendible product basis.

    The UPB spans the excited manifold at energy 1; its orthocomplement
    (which contains no product state) is the ground manifold at 0.
    """
    try:
        states = UPB_BASES[basis]()
    except KeyError:
        raise ValueError(f"unknown UPB id {basis!r}; known: {sorted(UPB_BASES)}") from None
    dim = states[0].size
    m = np.zeros((dim, dim), dtype=complex)
    for v in states:
        m += _proj(v)
    d = int(round(np.sqrt(dim)))
    return HermitianOperator(m, (d, d))


# name -> (form, builder, parameter types), read by ``parse_identifier``
MODELS = {
    "heisenberg": ("heisenberg", heisenberg_pair, ()),
    "xy": ("xy:<gamma>:<lambda>", xy_pair, (float, float)),
    "xxz": ("xxz:<delta>", xxz_pair, (float,)),
    "maxent": ("maxent:<d>", max_entangled_projector_hamiltonian, (int,)),
    "symproj": ("symproj:<d>", symmetric_projector_hamiltonian, (int,)),
    "ces": ("ces:<d>", ces_hamiltonian, (int,)),
    "choi": ("choi", choi_hamiltonian, ()),
    "upb": ("upb:tiles", upb_hamiltonian, (str,)),
    "file": ("file:<path.json>", lambda p: operator_from_json(Path(p).read_text()), (str,)),
}


def parse_identifier(text: str, table: dict, *tail):
    """Build what a CLI identifier names: ``table[name]`` is (form, builder,
    parameter types); the builder gets the converted parameters, then ``tail``.
    A ``file:`` path is one parameter, colons and all.  An unknown name, or
    parameters that do not fit the form or are not finite, raise ValueError
    before any build."""
    name, colon, rest = text.partition(":")
    params = [rest] if name == "file" and colon else text.split(":")[1:]
    if name not in table:
        known = ", ".join(form for form, _, _ in table.values())
        raise ValueError(f"unknown identifier {text!r}; known forms: {known}")
    form, build, types = table[name]
    try:
        args = [kind(p) for kind, p in zip(types, params, strict=True)]
    except ValueError:
        raise ValueError(f"identifier {text!r} needs the form {form}") from None
    if not np.isfinite([a for a in args if isinstance(a, float)]).all():
        raise ValueError(f"identifier {text!r} needs finite numbers in the form {form}")
    return build(*args, *tail)


def from_identifier(text: str) -> HermitianOperator:
    """Build a model Hamiltonian from its CLI identifier (see ``MODELS``)."""
    return parse_identifier(text, MODELS)
