"""Discrete-ordinates solution of the trapped-transport equation in the
Laplace domain.

The one-dimensional transport equation with an isotropic point source and
a trapping reaction is a trap-free kernel, total cross-section
sigma_t = sigma_a + sigma_s + p, under the exact memory: the source
factor S = 1 + sigma_trap LPhi(s) and p = s S, LPhi the Laplace transform
of the waiting-time survival (`waiting.WaitingTimeModel.memory`). This
module is that kernel, DO; the harness' kernel x memory table
(`harness.PAIRINGS`) pairs it with a memory, the exact one for RTE. On a
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
1 = rho sum_i v_i^2 / (d_i - z), d_i = 1/mu_i^2, rho = sigma_s/sigma_t:
the dispersion relation in another variable. As sum_i w_i = 1 and
v_i^2 = w_i d_i, it is solved deflated (as LAPACK's dlaed4 shifts its
origin to a pole),

    f(z) = loss - rho z sum_i w_i / (d_i - z) = 0,  loss = 1 - rho,

with loss taken as (sigma_a + p) / sigma_t: formed by cancellation, it
cost the diffusive root z ~ 3 loss / rho a relative eps sigma_t /
|sigma_a + p| and turned profiles negative from sigma_s t ~ 1e17. The
eigenvalue nu = 1 / (sigma_t sqrt(z)), signed so that Re nu >= 0, never
forms sigma_t^2 z, which overflows from sigma_s ~ 1e154. All N roots of
a node are found at once by the Aberth-Ehrlich iteration (Aberth, Math.
Comp. 1973), O(N^2) per sweep instead of the O(N^3) of a dense eigen
solve. The Newton ratio of the polynomial prod_i (d_i - z) * f(z) is
written f / (f' - f sum_i 1/(d_i - z)), so an exact root takes a zero
step rather than a 0/0. A root is frozen after a step delta, with no
confirming sweep, once either of two tests holds at the new root z:

- |delta| <= 4e-15 |z| (a Newton step that small skips the O(N) Aberth
  correction);
- the next step, as the Newton model of the polynomial estimates it,
  gamma |delta|^2 with gamma = |f'' / (2 f')| + |sum_i 1/(d_i - z)|,
  is 4e-15 |z| or less (an error estimate from data at one point, after
  Smale 1986), and |delta| <= |z|. gamma bounds the signed curvature
  |f'' / (2 f') - sum_i 1/(d_i - z)| by the sum of its two moduli: the
  signed form alone froze roots of two N = 120 stacks too early. The
  model does not see the rounding of z - delta, which |delta| <= |z|
  keeps below 2 eps |z|: at sigma_s = 1e100 the diffusive root falls to
  1e-101 through 1e-17, 1e-33, 1e-49, each the rounding of the last.

Every point is solved, in the caller's order, in B = ceil(points / 16)
strided blocks: block b holds the b-th, (b + B)-th, ... point, so the
(root, pole) work arrays stay small, and the i-th points of blocks b - 1
and b - 2, already solved, are the two predecessors of the i-th point of
block b. The warm starts below assume that consecutive points are
neighbours along a contour, as the profile driver passes them (each
stack's distinct points in (Re s, Im s) order). The roots depend on p
only through rho, and each solved root z has the derivative
dz/drho = -1 / (rho^2 sum_i v_i^2 / (d_i - z)^2), a slope sum that its
mode's normalization needs too. So a node of block 1 starts from the
Taylor step z1 + z1' (rho - rho1) at its predecessor, and a node of
block b >= 2 from the cubic Hermite extrapolation through (rho0, z0,
z0') and (rho1, z1, z1'), the predictor of continuation methods
(Allgower & Georg, Numerical Continuation Methods, 1990) with the
derivatives of both points; where tau = (rho - rho0) / (rho1 - rho0) is
not finite or |tau| > 4 (a regular chain has tau ~ 2), the cubic would
magnify the predecessors' rounding, and the node takes the Taylor step
instead. On fig1a's eight late-time contours, 445 distinct points of 544
nodes, this takes about 1.25 steps per root (16,681 updates of 13,350
roots, in 67 sweeps), against about 4 from block 0's start, the
first-order pole shifts z_k = d_k - rho v_k^2 (exact when N = 1). The
nodes of several inversion contours, one per output time, can thus be
solved as one stack; row j of the results is point j.

Cross-sections are in inverse time units. A speed c other than one only
rescales space: the density is u_c(x, t) = u_1(x / c, t) / c.

`spectra` is the one way to get a spectrum: it solves the points p of
one or more inversion contours and names a failing point by its index in
p. `modes` takes a memory's (S, p), calls `spectra` on p and gives the
decay rate 1/(c nu) and amplitude S/(c norm) of each (node, mode), the
interface the diffusion kernel of `fde` shares; `laplace_density` is
their sum at one s and one x under the exact memory, RTE's transform
for the oracles that invert it pointwise (`perfbench`'s reference
values are its Talbot inversion). `mode_sum` sums a stack's modes into
an x vector, up to a front: on an evenly spaced grid exp(-|x_k| rate)
is the one at the first |x| of a side of x = 0 times a power of
exp(-h rate), three complex exps per (node, mode) and no (x, node)
array.
`_secular_sums` is the one evaluation of f: each sweep calls it on the
roots still moving, and `_block_spectra` on a block's returned roots, to
certify them (f not finite: a root on a pole, its eigenvalue on a
quadrature ray; |f| at most 1e-9 times the smaller of 1 and f's rounding
scale |loss| + |rho z| sum_i |w_i / (d_i - z)|, so that a diffusive root
of z ~ 1e-101 at sigma_s = 1e100 is held to its own scale) and to read
normalizations and dz/drho from the same slope sums. The scale is never
below |loss| in floating point, so |f| <= 1e-9 min(1, |loss|) passes as
it stands, and the certificate forms the scale's sum only for the roots
past that floor (none on the panel and late-time stacks) and for its
failure message. Each weighted row
sum over the N poles (sum_i w_i r_i, w_i |r_i|, v2_i r_i^2 and v2_i
r_i^3, r_i = 1 / (d_i - z)) is one `einsum` with the weights cast to the
row's type, not a product array and a `.sum`, and not a BLAS
matrix-vector product, whose OpenBLAS threads spin on a second core.
`certifiable` tells, before any solve, the points p whose roots lie too
close to their poles for that certificate.
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

# acceptable secular-function residual |f(z)| of a returned root
_RESIDUAL_TOL = 1e-9
# least root-pole gap rho w_i (rho = sigma_s / sigma_t) whose residual
# rounding, ~eps / (rho w_i), stays below a quarter of _RESIDUAL_TOL
_MIN_GAP = 4.0 * np.finfo(float).eps / _RESIDUAL_TOL
# secular roots: nodes solved together, iteration cap, and relative step
# at which a root is frozen
_BLOCK = 16
_MAX_ITER = 50
_STEP_TOL = 4e-15
# largest |tau| = |rho - rho0| / |rho1 - rho0| at which a node starts from
# the Hermite cubic through its two predecessors (a regular chain has
# tau ~ 2); past it, or where rho1 = rho0, from the Taylor step at rho1
_HERMITE_REACH = 4.0
# most entries of `mode_sum`'s table (4 rows at 68 nodes, 30 modes): einsum
# sums a lone row over 8192, its buffer, unlike a row of a larger block
_TABLE = 2**13
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


def _gap_sums(z: np.ndarray, jn: np.ndarray, kn: np.ndarray) -> np.ndarray:
    """sum_{i != k} 1 / (z_k - z_i) over the node of each root z[jn, kn]."""
    own = np.arange(jn.shape[0])
    inv_gap = z[jn]  # turned into 1 / (z_k - z_i), 0 at i = k
    np.subtract(z[jn, kn][:, None], inv_gap, out=inv_gap)
    inv_gap[own, kn] = 1.0
    np.divide(1.0, inv_gap, out=inv_gap)
    inv_gap[own, kn] = 0.0
    return inv_gap.sum(axis=1)


def _row_sums(a: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i a[..., i] weights[i], one `einsum` pass; the real weights
    are cast to a's type once here, not per row inside einsum."""
    return np.einsum("...i,i->...", a, weights.astype(a.dtype, copy=False))


def _secular_sums(loss: np.ndarray, rho: np.ndarray, d: np.ndarray,
                  w: np.ndarray, z: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """At roots z, with loss and rho of each one's node (broadcast against
    z): 1 / (d_i - z) and its square, i on a new last axis, f(z) and the
    slope sum_i v2_i / (d_i - z)^2 (f' = -rho times it). A root on a pole
    gets a non-finite f, and no warning."""
    inv_pole = d - z[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(1.0, inv_pole, out=inv_pole)
    f = loss - rho * z * _row_sums(inv_pole, w)
    square = inv_pole * inv_pole
    return inv_pole, square, f, _row_sums(square, w * d)


def _aberth_steps(loss: np.ndarray, rho: np.ndarray, d: np.ndarray,
                  w: np.ndarray, z: np.ndarray, jn: np.ndarray,
                  kn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Aberth-Ehrlich sweep over the roots z[jn, kn]: their steps
    delta, and whether each root is frozen after its step by one of the
    module docstring's two tests at the new root z - delta; gamma's
    f'' / (2 f') = sum_i v2_i / (d_i - z)^3 / sum_i v2_i / (d_i - z)^2
    costs one more row sum. A Newton step of `_STEP_TOL` |z| or less is
    taken without the gap sum, whose correction would move z by far less
    than an ulp. `_secular_sums`' square is cubed in place: fresh pages
    for arrays this large cost about as much as the arithmetic."""
    zk = z[jn, kn]
    inv_pole, cube, f, slope = _secular_sums(loss[jn], rho[jn], d, w, zk)
    df = -rho[jn] * slope
    pole_sum = inv_pole.sum(axis=1)
    step = f / (df - f * pole_sum)
    cube *= inv_pole
    gamma = np.abs(_row_sums(cube, w * d) / slope) + np.abs(pole_sum)
    del inv_pole, cube  # freed before the gap sums' work array is formed
    busy = np.abs(step) > _STEP_TOL * np.abs(zk)  # Newton steps, so far
    step[busy] /= 1.0 - step[busy] * _gap_sums(z, jn[busy], kn[busy])
    size, new = np.abs(step), np.abs(zk - step)
    tol = _STEP_TOL * new
    return step, (size <= tol) | ((gamma * size**2 <= tol) & (size <= new))


def _secular_roots(loss: np.ndarray, rho: np.ndarray, d: np.ndarray,
                   w: np.ndarray, nodes: np.ndarray, z: np.ndarray | None
                   ) -> np.ndarray:
    """All N roots z of f(z) = 0 (`_secular_sums`) for each node j.

    Aberth-Ehrlich iteration from the start guesses z, a (node, N) array
    that is refined in place and returned, or with z None from the pole
    shifts d_k - rho_j v2_k. Each sweep updates only the roots still
    moving, listed by (node, root) index; a root is frozen after the step
    that `_aberth_steps` certifies, with no confirming sweep. Raises
    NumericFailureError, naming the node, if a root turns non-finite or
    has not converged after `_MAX_ITER` sweeps.
    """
    n = d.shape[0]
    if z is None:
        z = d - rho[:, None] * (w * d)
    jn, kn = np.divmod(np.arange(z.size), n)
    for _ in range(_MAX_ITER):
        step, frozen = _aberth_steps(loss, rho, d, w, z, jn, kn)
        zk = z[jn, kn] - step
        finite = np.isfinite(zk)
        if not finite.all():
            raise NumericFailureError(
                "secular root iteration produced non-finite values",
                node=int(nodes[jn[np.argmin(finite)]]))
        z[jn, kn] = zk
        if frozen.all():
            return z
        jn, kn = jn[~frozen], kn[~frozen]
    raise NumericFailureError(
        f"secular roots not converged after {_MAX_ITER} iterations",
        node=int(nodes[jn[0]]))


def _block_spectra(loss: np.ndarray, rho: np.ndarray, st: np.ndarray,
                   d: np.ndarray, w: np.ndarray, nodes: np.ndarray,
                   z: np.ndarray | None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Secular roots z, eigenvalues nu, normalizations and dz/drho of one
    block of nodes from the start guesses z (None: the pole shifts), all
    certified and read from one more `_secular_sums` at the roots; no
    normalization may vanish. A failure names its node by its entry of
    `nodes`. f's rounding scale |loss| + |rho z| sum_i w_i |1 / (d_i - z)|
    never falls below |loss|, so a residual |f| <= 1e-9 min(1, |loss|) is
    certified as it is, and the scale is formed only for the roots past
    that floor."""
    z = _secular_roots(loss, rho, d, w, nodes, z)
    nu = 1.0 / (st[:, None] * np.sqrt(z))
    nu *= np.copysign(1.0, nu.real)  # the decaying mode, Re nu >= 0
    inv_pole, _, f, slope = _secular_sums(loss[:, None], rho[:, None], d, w,
                                          z)
    res = np.abs(f)
    jn, kn = np.nonzero(~(res <= _RESIDUAL_TOL
                          * np.minimum(1.0, np.abs(loss))[:, None]))
    if jn.size:
        scale = np.abs(loss[jn]) + np.abs(rho[jn] * z[jn, kn]) * _row_sums(
            np.abs(inv_pole[jn, kn]), w)
        bad = ~(res[jn, kn] <= _RESIDUAL_TOL * np.minimum(1.0, scale))
        if bad.any():
            i = np.argmax(bad)
            j, k = jn[i], kn[i]
            raise NumericFailureError(
                f"dispersion residual {res[j, k]:.3e} of scale "
                f"{scale[i]:.3e} at eigenvalue {nu[j, k]}"
                if np.isfinite(res[j, k]) else
                f"eigenvalue {nu[j, k]} collides with a quadrature ray",
                node=int(nodes[j]), nu=complex(nu[j, k]))
    slope *= rho[:, None] ** 2
    norm = slope / (st[:, None] * nu)
    tiny = (np.abs(norm) < 1e-300).any(axis=1)
    if tiny.any():
        raise NumericFailureError("vanishing mode normalization",
                                  node=int(nodes[np.argmax(tiny)]))
    return z, nu, norm, -1.0 / slope


def _node_stack(points) -> np.ndarray:
    """points as a complex array if it is one-dimensional, else ValueError."""
    points = np.asarray(points, dtype=complex)
    if points.ndim != 1:
        raise ValueError(f"need a one-dimensional stack of transform "
                         f"points, got shape {points.shape}")
    return points


def spectra(params: TransportParams, quadrature: QuadratureSet, p
            ) -> tuple[np.ndarray, np.ndarray]:
    """Decaying discrete-ordinates spectrum of the trap-free kernel,
    sigma_t = sigma_a + sigma_s + p, at every point p (params' trapping is
    not read): (nu, norm), per node j the N eigenvalues nu[j], Re nu >= 0,
    and their normalizations norm[j] = sum_i w_i mu_i (phi(nu, mu_i)^2 -
    phi(nu, -mu_i)^2), phi(nu, mu) = (sigma_s nu / 2) / (sigma_t nu - mu),
    computed as rho^2 sqrt(z) sum_i v2_i / (d_i - z)^2, z = (sigma_t nu)^-2.
    NumericFailureError names a point that fails a check (a ray collision
    among them) by its index in p; ValueError, before any solve, unless p
    is a one-dimensional stack.

    Every entry of p is solved, in the given order, in the strided blocks
    of the module docstring, from the pole shifts in block 0, from the
    Taylor step at the predecessor in block 1, and from the Hermite cubic
    through the two predecessors after it, or the Taylor step where that
    is not within `_HERMITE_REACH` of them; the starts are good when
    consecutive entries are neighbours along a contour. Row j is entry j.
    """
    p = _node_stack(p)
    d = 1.0 / np.asarray(quadrature.nodes) ** 2
    w = np.asarray(quadrature.weights)
    st = params.sigma_a + params.sigma_s + p
    rho = params.sigma_s / st
    loss = (params.sigma_a + p) / st
    nus = np.empty((p.shape[0], quadrature.order), dtype=complex)
    norms = np.empty_like(nus)
    stride = -(-p.shape[0] // _BLOCK)
    # (rho, roots, dz/drho) of blocks b - 1 and b - 2, whose i-th nodes
    # precede ours; each start is a new array, which the solve refines in
    # place
    last = before = None
    for b in range(stride):
        blk = np.arange(b, p.shape[0], stride)
        start = None
        if last is not None:
            m = blk.shape[0]
            rho1, z1, dz1 = (a[:m] for a in last)
            ahead = (rho[blk] - rho1)[:, None]
            start = z1 + dz1 * ahead
            if before is not None:
                rho0, z0, dz0 = (a[:m] for a in before)
                gap = rho1 - rho0
                with np.errstate(divide="ignore", invalid="ignore",
                                 over="ignore"):
                    tau = (rho[blk] - rho0) / gap
                ok = np.isfinite(tau) & (np.abs(tau) <= _HERMITE_REACH)
                # the Hermite cubic in Newton form about rho1: the Taylor
                # step plus (rho - rho1)^2 / gap times
                # z1' - chord + tau (z0' + z1' - 2 chord)
                tau, gap = tau[ok, None], gap[ok, None]
                chord = (z1[ok] - z0[ok]) / gap
                start[ok] += ahead[ok] * (tau - 1.0) * (
                    dz1[ok] - chord + tau * (dz0[ok] + dz1[ok] - 2.0 * chord))
        roots, nus[blk], norms[blk], dz = _block_spectra(
            loss[blk], rho[blk], st[blk], d, w, blk, start)
        before, last = last, (rho[blk], roots, dz)
    return nus, norms


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


def modes(params: TransportParams, quadrature: QuadratureSet, source, p
          ) -> tuple[np.ndarray, np.ndarray]:
    """The DO kernel under a memory's (S, p) stack (source, p): the (node,
    N) arrays rate = 1 / (c nu) and coef = (S / c) / norm of the decaying
    modes, from one `spectra` call over p. Under the exact memory their
    `mode_sum` is the Laplace-domain density of an isotropic unit pulse at
    x = 0, which the speed c stretches."""
    nus, norms = spectra(params, quadrature, p)
    return 1.0 / (params.speed * nus), (source / params.speed)[:, None] / norms


def mode_sum(xs, rate: np.ndarray, coef: np.ndarray,
             front: float = math.inf) -> np.ndarray:
    """At each x, sum_{j,k} coef[j, k] exp(-|x| rate[j, k]) over a stack,
    Re rate >= 0; 0, and not summed, past |x| > front. xs must be
    increasing and evenly spaced with step h, or one point (ValueError).

    Each side of x = 0 is a run of |x| growing by h: the amplitudes
    a = coef exp(-|x| rate) at its first point are carried m rows at a
    time, a <- a r^m, r = exp(-h rate), and each block is the `einsum`
    of a table of r^1 ... r^m with a. Rounding grows like (m + k / m) eps
    at the k-th point; m depends on the stack alone, so no value depends
    on where the front lies."""
    xs, step = _uniform_grid(xs)
    rate, coef = rate.ravel(), coef.ravel()
    rows = max(1, _TABLE // max(rate.shape[0], 1))
    out = np.zeros(xs.shape[0], dtype=complex)
    split, lo = np.searchsorted(xs, [0.0, -front])
    hi = np.searchsorted(xs, front, side="right")
    table = np.empty((max(0, min(rows, max(hi - split, split - lo) - 1)),
                      rate.shape[0]), dtype=complex)
    if table.shape[0]:
        np.exp(-step * rate, out=table[0])
    for row in range(1, table.shape[0]):  # accumulate's bits vary by length
        np.multiply(table[row - 1], table[0], out=table[row])
    # x >= 0 and the reversed x < 0, each from its point nearest 0
    for dest, first in ((out[split:hi], split),
                        (out[lo:split][::-1], split - 1)):
        if not dest.shape[0]:
            continue
        amp = -abs(xs[first]) * rate
        np.exp(amp, out=amp)
        amp *= coef
        dest[0] = amp.sum()
        for row in range(1, dest.shape[0], rows):
            size = min(rows, dest.shape[0] - row)
            np.einsum("xs,s->x", table[:size], amp, out=dest[row:row + size])
            amp *= table[-1]
    return out


def certifiable(params: TransportParams, quadrature: QuadratureSet, p
                ) -> np.ndarray:
    """Per point p, whether the dispersion check of `spectra` can certify
    its roots: whether the gap |rho| min_i w_i is `_MIN_GAP` or more."""
    st = params.sigma_a + params.sigma_s + _node_stack(p)
    return np.abs(params.sigma_s / st) * min(quadrature.weights) >= _MIN_GAP


def laplace_density(params: TransportParams, quadrature: QuadratureSet,
                    s: complex, x: float) -> complex:
    """Laplace-domain scalar density at distance x from the source plane,
    the DO kernel under the exact memory at one s: RTE's transform, for
    the oracles that invert it pointwise."""
    memory = params.waiting.memory(params.sigma_trap, [complex(s)])
    return complex(mode_sum([x], *modes(params, quadrature, *memory))[0])
