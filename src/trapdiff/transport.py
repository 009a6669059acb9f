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
solve. The Newton ratio of the polynomial prod_i (d_i - z) * f(z) is
written f / (f' - f sum_i 1/(d_i - z)), so an exact root takes a zero
step rather than a 0/0. A root is frozen once its step falls to
4e-15 |z|, or to within the rounding-error bound of f at the root,
8 eps sum_i |rho v_i^2 / (d_i - z)| / |f'(z)| (the `erretm` test of
LAPACK's dlaed4): near rho = 1 the smallest root is fixed by f only to
more than 1e-12 |z|, so no bound relative to |z| alone would let it go.

Nodes are solved in the order of (Im s, Re s), in B = ceil(nodes / 16)
strided blocks: block b holds the b-th, (b + B)-th, ... node of that
order, so the (root, pole) work arrays stay small, and the i-th nodes of
blocks b - 1 and b - 2, already solved, are the two predecessors of the
i-th node of block b. The roots depend on s only through rho, so a node
of block b >= 2 starts from the secant in rho through its predecessors'
roots, z1 + (z1 - z0) (rho - rho1) / (rho1 - rho0), the first-order
predictor of continuation methods (Allgower & Georg, Numerical
Continuation Methods, 1990); block 1 starts from its predecessor's
roots z1. On fig1a's eight late-time contours a secant start takes
about 1.9 steps per root, the predecessor's roots alone 2.6, and the
first-order pole shifts z_k = d_k - rho v_k^2 (exact when N = 1), block
0's start, take about 4. The nodes of several inversion contours, one
per output time, can thus be solved as one stack; the results come back
in the caller's order.

Cross-sections are in inverse time units. A speed c other than one only
rescales space: the density is u_c(x, t) = u_1(x / c, t) / c.

`spectra` solves every node of one or more inversion contours and is
the one way to get a spectrum; `modes` turns it into the decay rate
1/(c nu) and the amplitude source/(c norm) of each (node, mode), the
interface the profile driver shares with the closed form of `fde`, and
`laplace_density` is their sum at one transform point and one x. The
mode sums are `mode_sum`: on an evenly spaced x grid exp(-|x_k| rate)
is the exponential at the first |x| of a side of x = 0 times a power of
exp(-h rate), so a transform takes three complex exps per (node, mode),
and running products along x, instead of one exp per (x, node, mode)
entry. It fills a block of x rows at a time, so no (x, node, mode)
array is formed. The dispersion check takes one reciprocal per (node,
mode, ordinate) entry. `certifiable` tells, before any solve, the nodes
whose roots lie too close to their poles for that check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailureError
from .specfun import QuadratureSet
from .waiting import WaitingTimeModel

__all__ = [
    "TransportParams",
    "spectra",
    "modes",
    "mode_sum",
    "laplace_density",
    "certifiable",
]

# acceptable dispersion-relation residual of an eigenvalue
_RESIDUAL_TOL = 1e-9
# least root-pole gap rho w_i (rho = sigma_s / sigma_t) whose residual
# rounding, ~eps / (rho w_i), stays below a quarter of _RESIDUAL_TOL
_MIN_GAP = 4.0 * np.finfo(float).eps / _RESIDUAL_TOL
# secular roots: nodes solved together (also the node count whose
# (x, node, mode) array bounds the scratch of `mode_sum`), iteration
# cap, relative step at which a root is frozen, and the rounding-error
# bound of f(z) = 1 - rho sum_i v2_i / (d_i - z) in units of
# sum_i |rho v2_i / (d_i - z)| (LAPACK dlaed4's erretm), below which a
# step is rounding noise
_BLOCK = 16
_MAX_ITER = 50
_STEP_TOL = 4e-15
_NOISE_BOUND = 8.0 * np.finfo(float).eps
# how far, relative to max |x|, a grid point may sit off the evenly
# spaced grid through its ends
_GRID_TOL = 1e-12


@dataclass(frozen=True)
class TransportParams:
    """Physical inputs of the trapped-transport problem.

    Cross-sections are in inverse time units and `speed` converts time to
    length; `sigma_trap` scales the survival term of the waiting-time law
    `waiting` (0: no trapping). Every number must be finite.
    """

    sigma_a: float
    sigma_s: float
    sigma_trap: float
    waiting: WaitingTimeModel
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


def _aberth_steps(rho: np.ndarray, d: np.ndarray, v2: np.ndarray,
                  z: np.ndarray, jn: np.ndarray, kn: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """One Aberth-Ehrlich sweep over the roots z[jn, kn]: their steps, and
    whether each step is within the rounding-error bound of f at its
    root, `_NOISE_BOUND` sum_i |rho v2_i / (d_i - z)| / |f'(z)|.

    The (root, pole) work arrays are updated in place rather than
    allocated anew for each operation (fresh pages for arrays this large
    cost about as much as the arithmetic), and freed on return."""
    zk, rk = z[jn, kn], rho[jn]
    inv_pole = d - zk[:, None]
    np.divide(1.0, inv_pole, out=inv_pole)
    term = inv_pole * v2
    f = 1.0 - rk * term.sum(axis=1)
    noise = _NOISE_BOUND * np.abs(rk) * np.abs(term).sum(axis=1)
    term *= inv_pole
    df = -rk * term.sum(axis=1)
    newton = f / (df - f * inv_pole.sum(axis=1))
    own = np.arange(jn.shape[0])
    inv_gap = z[jn]  # turned into 1 / (z_k - z_i), 0 at i = k
    np.subtract(zk[:, None], inv_gap, out=inv_gap)
    inv_gap[own, kn] = 1.0
    np.divide(1.0, inv_gap, out=inv_gap)
    inv_gap[own, kn] = 0.0
    step = newton / (1.0 - newton * inv_gap.sum(axis=1))
    return step, np.abs(step) * np.abs(df) <= noise


def _secular_roots(rho: np.ndarray, d: np.ndarray, v2: np.ndarray,
                   s_nodes: np.ndarray, z: np.ndarray | None) -> np.ndarray:
    """All N roots z of 1 = rho_j sum_i v2_i / (d_i - z) for each node j.

    Aberth-Ehrlich iteration from the start guesses z, a (node, N) array
    that is refined in place and returned, or with z None from the pole
    shifts d_k - rho_j v2_k. Each sweep updates only the roots still
    moving, listed by (node, root) index. A root is frozen once its step
    falls to `_STEP_TOL` |z| or within the rounding-error bound of the
    step. Raises NumericFailureError if a root turns non-finite or has
    not converged after `_MAX_ITER` sweeps.
    """
    n = d.shape[0]
    if z is None:
        z = d - rho[:, None] * v2
    jn, kn = np.divmod(np.arange(z.size), n)
    for _ in range(_MAX_ITER):
        step, in_noise = _aberth_steps(rho, d, v2, z, jn, kn)
        zk = z[jn, kn] - step
        finite = np.isfinite(zk)
        if not finite.all():
            raise NumericFailureError(
                "secular root iteration produced non-finite values",
                s=complex(s_nodes[jn[np.argmin(finite)]]))
        z[jn, kn] = zk
        moving = (np.abs(step) > _STEP_TOL * np.abs(zk)) & ~in_noise
        if not moving.any():
            return z
        jn, kn = jn[moving], kn[moving]
    raise NumericFailureError(
        f"secular roots not converged after {_MAX_ITER} iterations",
        s=complex(s_nodes[jn[0]]))


def _dispersion(sigma_s: float, mu: np.ndarray, w: np.ndarray,
                st: np.ndarray, nu: np.ndarray, s_nodes: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Dispersion residual and normalization of every mode (node, k),
    independently of the secular roots, after checking that no
    eigenvalue nu sits on a quadrature ray mu_i / sigma_t.

    With ray = sigma_t nu and q_i = 1 / ((ray - mu_i)(ray + mu_i)), the
    eigenfunction phi(nu, +-mu) = (sigma_s nu / 2) / (ray -+ mu) gives
    sum_i w_i (phi(nu, mu_i) + phi(nu, -mu_i)) = sigma_s ray nu sum_i w_i q_i
    and the normalization sum_i w_i mu_i (phi(nu, mu_i)^2 - phi(nu, -mu_i)^2)
    = sigma_s^2 ray nu^2 sum_i w_i mu_i^2 q_i^2: one reciprocal per
    (node, mode, ordinate) entry. Raises NumericFailureError on a ray
    collision, |ray - mu_i| < 1e-12 |ray|.
    """
    ray = st[:, None] * nu
    q = ray[:, :, None] - mu
    hit = np.abs(q).min(axis=2) < 1e-12 * np.abs(ray)
    if hit.any():
        j, k = np.argwhere(hit)[0]
        raise NumericFailureError(
            f"eigenvalue {nu[j, k]} collides with a quadrature ray",
            s=complex(s_nodes[j]))
    # the (node, mode, ordinate) array is updated in place, as in a sweep
    q *= ray[:, :, None] + mu
    np.divide(1.0, q, out=q)
    res = np.abs(1.0 - sigma_s * ray * nu * np.einsum("jki,i->jk", q, w))
    norm = (sigma_s**2 * ray * nu**2
            * np.einsum("jki,jki,i->jk", q, q, w * mu**2))
    return res, norm


def _block_spectra(sigma_s: float, mu: np.ndarray, w: np.ndarray,
                   st: np.ndarray, s_nodes: np.ndarray, z: np.ndarray | None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Secular roots, eigenvalues nu and normalizations of one block of
    nodes from the start guesses z (None: the pole shifts), checked
    against ray collisions, the dispersion relation and vanishing
    normalizations."""
    z = _secular_roots(sigma_s / st, 1.0 / mu**2, w / mu**2, s_nodes, z)
    nu = 1.0 / np.sqrt(st[:, None] ** 2 * z)
    res, norm = _dispersion(sigma_s, mu, w, st, nu, s_nodes)
    bad = ~(res <= _RESIDUAL_TOL)
    if bad.any():
        j, k = np.argwhere(bad)[0]
        raise NumericFailureError(
            f"dispersion residual {res[j, k]:.3e} at eigenvalue {nu[j, k]}",
            s=complex(s_nodes[j]), nu=complex(nu[j, k]))
    tiny = (np.abs(norm) < 1e-300).any(axis=1)
    if tiny.any():
        raise NumericFailureError("vanishing mode normalization",
                                  s=complex(s_nodes[np.argmax(tiny)]))
    return z, nu, norm


def _node_stack(s_nodes) -> np.ndarray:
    """s_nodes as a complex array if it is one-dimensional, else ValueError."""
    s_nodes = np.asarray(s_nodes, dtype=complex)
    if s_nodes.ndim != 1:
        raise ValueError(f"need a one-dimensional stack of transform "
                         f"points, got shape {s_nodes.shape}")
    return s_nodes


def spectra(params: TransportParams, quadrature: QuadratureSet, s_nodes
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Decaying discrete-ordinates spectrum at every transform point.

    Returns (sigma_t, source, nu, norm): per node j, the total
    cross-section, the source factor 1 + sigma_trap * LPhi, the N
    eigenvalues nu[j] with Re nu >= 0, and their normalization integrals
    norm[j] = sum_i w_i mu_i (phi(nu, mu_i)^2 - phi(nu, -mu_i)^2) with
    phi(nu, mu) = (sigma_s nu / 2) / (sigma_t nu - mu). Raises
    NumericFailureError if the spectrum of a node fails a check (a ray
    collision among them), and ValueError, before any solve, unless
    s_nodes is a one-dimensional stack.

    The nodes are solved in the strided blocks of the module docstring,
    from the pole shifts in block 0 and from the secant in rho through
    the two predecessors' roots after it; its ratio is taken as 0 (the
    start is z1) in block 1, where rho1 = rho0, and where it is not
    finite. The results come back in the order of s_nodes.
    """
    s_nodes = _node_stack(s_nodes)
    mu = np.asarray(quadrature.nodes)
    w = np.asarray(quadrature.weights)
    st, source = _rates(params, s_nodes)
    rho = params.sigma_s / st
    nus = np.empty((s_nodes.shape[0], quadrature.order), dtype=complex)
    norms = np.empty_like(nus)
    order = np.lexsort((s_nodes.real, s_nodes.imag))
    stride = -(-s_nodes.shape[0] // _BLOCK)
    # (rho, roots) of blocks b - 1 and b - 2, whose i-th nodes precede
    # ours; each start is a new array, which the solve refines in place
    last = before = None
    for b in range(stride):
        blk = order[b::stride]
        start = None
        if last is not None:
            m = blk.shape[0]
            (rho1, z1), (rho0, z0) = last, before or last
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ratio = (rho[blk] - rho1[:m]) / (rho1[:m] - rho0[:m])
            ratio[~np.isfinite(ratio)] = 0.0
            start = z1[:m] + (z1[:m] - z0[:m]) * ratio[:, None]
        roots, nus[blk], norms[blk] = _block_spectra(
            params.sigma_s, mu, w, st[blk], s_nodes[blk], start)
        before, last = last, (rho[blk], roots)
    return st, source, nus, norms


def _uniform_grid(xs) -> tuple[np.ndarray, float]:
    """xs as a float array and its step; raises ValueError unless xs is
    increasing and evenly spaced (a single point has step 0)."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError(f"need a non-empty one-dimensional x grid, "
                         f"got shape {xs.shape}")
    if xs.size == 1:
        return xs, 0.0
    step = (xs[-1] - xs[0]) / (xs.size - 1)
    ideal = xs[0] + step * np.arange(xs.size)
    scale = max(abs(xs[0]), abs(xs[-1]))
    if not (np.all(np.diff(xs) > 0.0)
            and np.all(np.abs(xs - ideal) <= _GRID_TOL * scale)):
        raise ValueError("x grid must be increasing and evenly spaced")
    return xs, step


def modes(params: TransportParams, quadrature: QuadratureSet, s_nodes
          ) -> tuple[np.ndarray, np.ndarray]:
    """Decay rate and amplitude of every decaying mode (node, k), from
    one `spectra` call over s_nodes: the (node, N) arrays
    rate = 1 / (c nu) and coef = source / (c norm), whose `mode_sum`
    is the Laplace-domain scalar density of an isotropic unit pulse at
    x = 0. The trapping factor (sigma_trap * LPhi(s) + 1) rescales the
    effective source, and the speed c stretches space: modes decay as
    exp(-|x| / (c nu)) and carry a factor 1/c.
    """
    _, source, nus, norms = spectra(params, quadrature, s_nodes)
    return 1.0 / (params.speed * nus), (source / params.speed)[:, None] / norms


def mode_sum(xs, rate: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """The (x, node) sum sum_k coef[j, k] exp(-|x| rate[j, k]) over the
    modes k of each node j, for rates with Re rate >= 0.

    xs must be increasing and evenly spaced with step h, or a single
    point (ValueError otherwise). Split at x = 0, each side is a run of
    |x| growing by h, so along it a mode's exponentials are the one at
    its first |x| times powers of r = exp(-h rate), |r| <= 1. The rows
    of a run are filled m at a time as the previous row times a table of
    r^1 ... r^m, and each block of rows is contracted with coef in one
    `einsum`: three complex exps per (node, mode), and rounding that
    grows like (m + k / m) eps at the k-th point. m is chosen so that
    table and block together hold no more than `_BLOCK` * len(xs) *
    modes entries, the (x, node, mode) array of `_BLOCK` nodes.
    """
    xs, step = _uniform_grid(xs)
    count, nodes = xs.shape[0], rate.shape[0]
    rows = max(1, min(count, _BLOCK * count // (2 * max(nodes, 1))))
    table = np.empty((rows,) + rate.shape, dtype=complex)
    table[:] = np.exp(-step * rate)
    np.multiply.accumulate(table, axis=0, out=table)
    block = np.empty_like(table)
    out = np.empty((count, nodes), dtype=complex)
    # x >= 0 and the reversed x < 0: runs of |x| growing away from 0
    split = int(np.searchsorted(xs, 0.0))
    runs = [slice(split, None)] + ([slice(split - 1, None, -1)] if split else [])
    for run in runs:
        dest = out[run]
        if not dest.shape[0]:
            continue
        last = np.exp(-abs(xs[run][0]) * rate)
        np.einsum("jk,jk->j", last, coef, out=dest[0])
        for lo in range(1, dest.shape[0], rows):
            size = min(rows, dest.shape[0] - lo)
            part = np.multiply(table[:size], last, out=block[:size])
            np.einsum("xjk,jk->xj", part, coef, out=dest[lo:lo + size])
            last = part[-1].copy()
    return out


def certifiable(params: TransportParams, quadrature: QuadratureSet, s_nodes
                ) -> np.ndarray:
    """Per node, whether the dispersion check of `spectra` can certify its
    roots: whether the smallest gap |rho| min_i w_i is `_MIN_GAP` or more."""
    st, _ = _rates(params, _node_stack(s_nodes))
    return np.abs(params.sigma_s / st) * min(quadrature.weights) >= _MIN_GAP


def laplace_density(params: TransportParams, quadrature: QuadratureSet,
                    s: complex, x: float) -> complex:
    """Laplace-domain scalar density at distance x from the source plane."""
    return complex(mode_sum([x], *modes(params, quadrature, [complex(s)]))[0, 0])
