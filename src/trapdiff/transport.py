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
eigenvalues of the N x N matrix sigma_t (sigma_t M^-2 - sigma_s v v^T),
v = sqrt(w) / mu; the principal root nu = 1/sqrt(lambda) is the decaying
mode, Re nu >= 0. Superposing the decaying modes gives the scalar density
transform at distance x from the source plane.

That matrix is diagonal plus rank one, so lambda = sigma_t^2 z where z
runs over the N roots of the secular equation (Golub, SIAM Rev. 1973)

    1 = rho * sum_i v_i^2 / (d_i - z),  d_i = 1/mu_i^2, rho = sigma_s/sigma_t,

which is the dispersion relation in another variable. All N roots of a
node are found at once by the Aberth-Ehrlich iteration (Aberth, Math.
Comp. 1973), O(N^2) per sweep instead of the O(N^3) of a dense eigen
solve. Each root starts from its first-order pole shift
z_k = d_k - rho v_k^2 (exact when N = 1). The Newton ratio of the
polynomial prod_i (d_i - z) * f(z) is written f / (f' - f sum_i 1/(d_i - z)),
so an exact root takes a zero step rather than a 0/0. A root is frozen
once its step falls to 4e-15 |z|, or once its step stops shrinking below
1e-12 |z|: the iteration converges cubically, so a step that no longer
shrinks there is rounding noise. Nodes are solved in blocks of
`_BLOCK`, so the (root, pole) work arrays stay small.

Cross-sections are in inverse time units. A speed c other than one only
rescales space: the density is u_c(x, t) = u_1(x / c, t) / c.

`spectra` solves every node of an inversion contour and is the one way
to get a spectrum; `density_transform` gives the (x, node) transform and
`laplace_density` its value at a single point and x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, NumericFailureError
from .specfun import QuadratureSet
from .waiting import WaitingTimeModel

__all__ = [
    "TransportParams",
    "spectra",
    "density_transform",
    "laplace_density",
]

# acceptable dispersion-relation residual of an eigenvalue
_RESIDUAL_TOL = 1e-9
# secular roots: nodes solved together, iteration cap, relative step at
# which a root is frozen, and relative step below which a step that
# stopped shrinking counts as rounding noise
_BLOCK = 16
_MAX_ITER = 50
_STEP_TOL = 4e-15
_NOISE_TOL = 1e-12


@dataclass(frozen=True)
class TransportParams:
    """Physical inputs of the trapped-transport problem.

    Cross-sections are in inverse time units and `speed` converts time to
    length; `sigma_trap` scales the waiting-time survival term, and
    `waiting` may be None only when trapping is zero. Every number must
    be finite.
    """

    sigma_a: float
    sigma_s: float
    sigma_trap: float
    waiting: WaitingTimeModel | None
    speed: float = 1.0

    def __post_init__(self):
        rates = (self.sigma_a, self.sigma_s, self.sigma_trap, self.speed)
        if not all(math.isfinite(v) for v in rates):
            raise ValueError(f"rates and speed must be finite, got "
                             f"{', '.join(map(repr, rates))}")
        if self.sigma_a < 0.0 or self.sigma_s <= 0.0:
            raise ValueError("need sigma_a >= 0 and sigma_s > 0")
        if self.sigma_trap < 0.0:
            raise ValueError(f"trapping rate must be >= 0, got {self.sigma_trap}")
        if self.sigma_trap > 0.0 and self.waiting is None:
            raise ValueError("trapping requires a waiting-time model")
        if self.speed <= 0.0:
            raise ValueError(f"speed must be positive, got {self.speed}")


def _rates(params: TransportParams, s_nodes: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """sigma_t(s) and the source factor 1 + sigma_trap * LPhi(s) per node,
    from one LPhi evaluation per node (none when sigma_trap is zero)."""
    source = np.ones_like(s_nodes)
    if params.sigma_trap > 0.0:
        lphi = [params.waiting.laplace_survival(s) for s in s_nodes.tolist()]
        source = 1.0 + params.sigma_trap * np.array(lphi)
    return params.sigma_a + params.sigma_s + source * s_nodes, source


def _secular_roots(rho: np.ndarray, d: np.ndarray, v2: np.ndarray,
                   s_nodes: np.ndarray) -> np.ndarray:
    """All N roots z of 1 = rho_j sum_i v2_i / (d_i - z) for each node j.

    Aberth-Ehrlich iteration from the pole shifts d_k - rho_j v2_k; each
    sweep updates only the roots still moving, listed by (node, root)
    index. Returns a (node, N) array; raises NumericFailureError if a
    root turns non-finite or has not converged after `_MAX_ITER` sweeps.
    """
    n = d.shape[0]
    z = d - rho[:, None] * v2
    jn, kn = np.divmod(np.arange(z.size), n)
    last = np.full(z.size, np.inf)
    for _ in range(_MAX_ITER):
        zk, rk = z[jn, kn], rho[jn]
        inv_pole = 1.0 / (d - zk[:, None])
        term = inv_pole * v2
        f = 1.0 - rk * term.sum(axis=1)
        df = -rk * (term * inv_pole).sum(axis=1)
        newton = f / (df - f * inv_pole.sum(axis=1))
        own = np.arange(jn.shape[0])
        gaps = zk[:, None] - z[jn]
        gaps[own, kn] = 1.0
        inv_gap = 1.0 / gaps
        inv_gap[own, kn] = 0.0
        step = newton / (1.0 - newton * inv_gap.sum(axis=1))
        zk = zk - step
        finite = np.isfinite(zk)
        if not finite.all():
            raise NumericFailureError(
                "secular root iteration produced non-finite values",
                s=complex(s_nodes[jn[np.argmin(finite)]]))
        z[jn, kn] = zk
        size, scale = np.abs(step), np.abs(zk)
        moving = (size > _STEP_TOL * scale) & (
            (size < last) | (size > _NOISE_TOL * scale))
        if not moving.any():
            return z
        jn, kn, last = jn[moving], kn[moving], size[moving]
    raise NumericFailureError(
        f"secular roots not converged after {_MAX_ITER} iterations",
        s=complex(s_nodes[jn[0]]))


def _block_spectra(sigma_s: float, mu: np.ndarray, w: np.ndarray,
                   st: np.ndarray, s_nodes: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues nu and normalizations of one block of nodes, checked
    against ray collisions, the dispersion relation and vanishing
    normalizations."""
    z = _secular_roots(sigma_s / st, 1.0 / mu**2, w / mu**2, s_nodes)
    nu = 1.0 / np.sqrt(st[:, None] ** 2 * z)
    # eigenfunctions are singular on the quadrature rays mu_i / sigma_t
    gap = np.abs(nu[:, :, None] - mu / st[:, None, None]).min(axis=2)
    hit = gap < 1e-12 * np.abs(nu)
    if hit.any():
        j, k = np.argwhere(hit)[0]
        raise DegenerateSpectrumError(
            f"eigenvalue {nu[j, k]} collides with a quadrature ray",
            s=complex(s_nodes[j]))
    # the dispersion relation from phi(nu, +-mu), independently of z
    c = 0.5 * sigma_s
    ray = st[:, None, None] * nu[:, :, None]
    phi_plus = c * nu[:, :, None] / (ray - mu)
    phi_minus = c * nu[:, :, None] / (ray + mu)
    res = np.abs(1.0 - ((phi_plus + phi_minus) * w).sum(axis=2))
    bad = ~(res <= _RESIDUAL_TOL)
    if bad.any():
        j, k = np.argwhere(bad)[0]
        raise NumericFailureError(
            f"dispersion residual {res[j, k]:.3e} at eigenvalue {nu[j, k]}",
            s=complex(s_nodes[j]), nu=complex(nu[j, k]))
    norm = ((phi_plus**2 - phi_minus**2) * (w * mu)).sum(axis=2)
    tiny = (np.abs(norm) < 1e-300).any(axis=1)
    if tiny.any():
        raise NumericFailureError("vanishing mode normalization",
                                  s=complex(s_nodes[np.argmax(tiny)]))
    return nu, norm


def spectra(params: TransportParams, quadrature: QuadratureSet, s_nodes
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decaying discrete-ordinates spectrum at every transform point.

    Returns (sigma_t, source, nu, norm): per node j, the total
    cross-section, the source factor 1 + sigma_trap * LPhi, the N
    eigenvalues nu[j] with Re nu >= 0, and their normalization integrals
    norm[j] = sum_i w_i mu_i (phi(nu, mu_i)^2 - phi(nu, -mu_i)^2) with
    phi(nu, mu) = (sigma_s nu / 2) / (sigma_t nu - mu). Raises
    NumericFailureError (DegenerateSpectrumError on a ray collision) if
    the spectrum of a node fails a check.
    """
    s_nodes = np.asarray(s_nodes, dtype=complex)
    mu = np.asarray(quadrature.nodes)
    w = np.asarray(quadrature.weights)
    st, source = _rates(params, s_nodes)
    nus = np.empty((s_nodes.shape[0], quadrature.order), dtype=complex)
    norms = np.empty_like(nus)
    for lo in range(0, s_nodes.shape[0], _BLOCK):
        blk = slice(lo, lo + _BLOCK)
        nus[blk], norms[blk] = _block_spectra(params.sigma_s, mu, w,
                                              st[blk], s_nodes[blk])
    return st, source, nus, norms


def density_transform(params: TransportParams, quadrature: QuadratureSet,
                      s_nodes, xs) -> np.ndarray:
    """Laplace-domain scalar density as an (x, node) array.

    Sums the decaying modes excited by an isotropic unit pulse at x = 0;
    the trapping factor (sigma_trap * LPhi(s) + 1) rescales the effective
    source, and the speed c stretches space: modes decay as
    exp(-|x| / (c nu)) and carry a factor 1/c. Even in x by symmetry.
    Works one node at a time so that no (x, node, mode) array is formed.
    """
    _, source, nus, norms = spectra(params, quadrature, s_nodes)
    ax = np.abs(np.asarray(xs, dtype=float))[:, None]
    lengths = params.speed * nus
    amplitude = source / params.speed
    out = np.empty((ax.shape[0], nus.shape[0]), dtype=complex)
    for j in range(nus.shape[0]):
        out[:, j] = amplitude[j] * np.sum(np.exp(-ax / lengths[j]) / norms[j],
                                          axis=1)
    return out


def laplace_density(params: TransportParams, quadrature: QuadratureSet,
                    s: complex, x: float) -> complex:
    """Laplace-domain scalar density at distance x from the source plane."""
    values = density_transform(params, quadrature, [complex(s)], [x])
    return complex(values[0, 0])
