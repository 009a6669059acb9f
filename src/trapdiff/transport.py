"""Discrete-ordinates solution of the trapped-transport equation in the
Laplace domain.

The one-dimensional transport equation with an isotropic point source and
a trapping reaction picks up an s-dependent total cross-section
sigma_t(s) = sigma_a + sigma_s + (sigma_trap * LPhi(s) + 1) * s, where
LPhi is the Laplace transform of the waiting-time survival function. On a
half-range Gauss-Legendre quadrature with N ordinates +-mu_i, separable
solutions exp(-x/nu) phi(nu, mu_i) exist for N pairs of eigenvalues +-nu.
The half-range reduction of the analytical discrete-ordinates method
(Barichello & Siewert, JQSRT 1999) finds lambda = 1/nu^2 as the
eigenvalues of an N x N matrix; the principal root nu = 1/sqrt(lambda)
is the decaying mode, Re nu >= 0. Superposing the decaying modes gives
the scalar density transform at distance x from the source plane.

`spectra` solves every node of an inversion contour in one stacked
eigenvalue call and `density_transform` gives the (x, node) transform;
`ado_spectrum` and `laplace_density` do the same at a single point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, NumericFailureError
from .specfun import QuadratureSet
from .waiting import WaitingTimeModel

__all__ = [
    "TransportParams",
    "AdoSpectrum",
    "sigma_t",
    "spectra",
    "ado_spectrum",
    "density_transform",
    "laplace_density",
]

# acceptable dispersion-relation residual of an eigenvalue
_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class TransportParams:
    """Physical inputs of the trapped-transport problem.

    Cross-sections are in inverse time units (unit speed makes inverse
    length equivalent); `trapping` scales the waiting-time survival term,
    and `waiting` may be None only when trapping is zero.
    """

    sigma_a: float
    sigma_s: float
    sigma_trap: float
    waiting: WaitingTimeModel | None
    speed: float = 1.0

    def __post_init__(self):
        if self.sigma_a < 0.0 or self.sigma_s <= 0.0:
            raise ValueError("need sigma_a >= 0 and sigma_s > 0")
        if self.sigma_trap < 0.0:
            raise ValueError(f"trapping rate must be >= 0, got {self.sigma_trap}")
        if self.sigma_trap > 0.0 and self.waiting is None:
            raise ValueError("trapping requires a waiting-time model")
        if self.speed <= 0.0:
            raise ValueError(f"speed must be positive, got {self.speed}")


@dataclass(frozen=True)
class AdoSpectrum:
    """Decaying-half discrete-ordinates spectrum at one transform point.

    Holds the N eigenvalues with Re nu >= 0, their normalization
    integrals, and the complex total cross-section they were computed
    with.
    """

    params: TransportParams
    quadrature: QuadratureSet
    s: complex
    sigma_t: complex
    eigenvalues: np.ndarray
    normalizations: np.ndarray


def _rates(params: TransportParams, s_nodes: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """sigma_t(s) and the source factor 1 + sigma_trap * LPhi(s) per node,
    from one LPhi evaluation per node (none when sigma_trap is zero)."""
    source = np.ones_like(s_nodes)
    if params.sigma_trap > 0.0:
        lphi = [params.waiting.laplace_survival(s) for s in s_nodes.tolist()]
        source = 1.0 + params.sigma_trap * np.array(lphi)
    return params.sigma_a + params.sigma_s + source * s_nodes, source


def sigma_t(params: TransportParams, s: complex) -> complex:
    """Total cross-section in the Laplace domain.

    The trapping term is skipped entirely when sigma_trap is zero, so
    trap-free problems never evaluate the waiting-time transform.
    """
    st, _ = _rates(params, np.array([complex(s)]))
    return complex(st[0])


def spectra(params: TransportParams, quadrature: QuadratureSet, s_nodes
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decaying discrete-ordinates spectrum at every transform point.

    Returns (sigma_t, source, nu, norm): per node j, the total
    cross-section, the source factor 1 + sigma_trap * LPhi, the N
    eigenvalues nu[j] with Re nu >= 0, and their normalization integrals
    norm[j] = sum_i w_i mu_i (phi(nu, mu_i)^2 - phi(nu, -mu_i)^2) with
    phi(nu, mu) = (sigma_s nu / 2) / (sigma_t nu - mu). Raises
    NumericFailureError (DegenerateSpectrumError on a ray collision) at
    the first node whose spectrum fails a check.
    """
    s_nodes = np.asarray(s_nodes, dtype=complex)
    mu = np.asarray(quadrature.nodes)
    w = np.asarray(quadrature.weights)
    st, source = _rates(params, s_nodes)

    # lambda = 1/nu^2 are the eigenvalues of
    # sigma_t M^-2 (sigma_t I - sigma_s 1 w^T), taken in the similar,
    # complex-symmetric form sigma_t (sigma_t M^-2 - sigma_s v v^T) with
    # v = sqrt(w) / mu, in which LAPACK resolves them several times better
    idx = np.arange(quadrature.order)
    v = np.sqrt(w) / mu
    scatter = params.sigma_s * np.outer(v, v)
    matrices = -st[:, None, None] * scatter
    matrices[:, idx, idx] += st[:, None] ** 2 / mu**2
    lams = np.linalg.eigvals(matrices)
    finite = np.isfinite(lams).all(axis=1)
    if not finite.all():
        j = int(np.argmin(finite))
        raise NumericFailureError("eigenvalue solve produced non-finite values",
                                  s=complex(s_nodes[j]))
    nus = 1.0 / np.sqrt(lams)

    c = 0.5 * params.sigma_s
    norms = np.empty_like(nus)
    for j, s in enumerate(s_nodes.tolist()):
        nu, st_j = nus[j], st[j]
        # eigenfunctions are singular on the quadrature rays mu_i / sigma_t
        gap = np.abs(nu[:, None] - mu / st_j).min(axis=1)
        hit = gap < 1e-12 * np.maximum(1.0, np.abs(nu))
        if hit.any():
            raise DegenerateSpectrumError(
                f"eigenvalue {nu[hit][0]} collides with a quadrature ray", s=s)
        phi_plus = c * nu[:, None] / (st_j * nu[:, None] - mu)
        phi_minus = c * nu[:, None] / (st_j * nu[:, None] + mu)
        res = np.abs(1.0 - (phi_plus + phi_minus) @ w)
        bad = ~(res <= _RESIDUAL_TOL)
        if bad.any():
            k = int(np.argmax(bad))
            raise NumericFailureError(
                f"dispersion residual {res[k]:.3e} at eigenvalue {nu[k]}",
                s=s, nu=complex(nu[k]))
        norms[j] = (phi_plus**2 - phi_minus**2) @ (w * mu)
        if np.any(np.abs(norms[j]) < 1e-300):
            raise NumericFailureError("vanishing mode normalization", s=s)
    return st, source, nus, norms


def ado_spectrum(params: TransportParams, quadrature: QuadratureSet,
                 s: complex) -> AdoSpectrum:
    """Decaying discrete-ordinates spectrum at transform point s."""
    s = complex(s)
    st, _, nus, norms = spectra(params, quadrature, [s])
    return AdoSpectrum(params=params, quadrature=quadrature, s=s,
                       sigma_t=complex(st[0]), eigenvalues=nus[0],
                       normalizations=norms[0])


def density_transform(params: TransportParams, quadrature: QuadratureSet,
                      s_nodes, xs) -> np.ndarray:
    """Laplace-domain scalar density as an (x, node) array.

    Sums the decaying modes excited by an isotropic unit pulse at x = 0;
    the trapping factor (sigma_trap * LPhi(s) + 1) rescales the effective
    source. Even in x by symmetry. Works one node at a time so that no
    (x, node, mode) array is formed.
    """
    _, source, nus, norms = spectra(params, quadrature, s_nodes)
    ax = np.abs(np.asarray(xs, dtype=float))[:, None]
    out = np.empty((ax.shape[0], nus.shape[0]), dtype=complex)
    for j in range(nus.shape[0]):
        out[:, j] = source[j] * np.sum(np.exp(-ax / nus[j]) / norms[j], axis=1)
    return out


def laplace_density(params: TransportParams, quadrature: QuadratureSet,
                    s: complex, x: float) -> complex:
    """Laplace-domain scalar density at distance x from the source plane."""
    values = density_transform(params, quadrature, [complex(s)], [x])
    return complex(values[0, 0])
