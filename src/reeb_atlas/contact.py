"""Star-shaped energy levels in R^4 and the contact geometry they carry.

A positive weight on the unit sphere determines a degree-2 homogeneous
Hamiltonian ``H`` whose unit level is a star-shaped hypersurface.  The
standard primitive ``lambda0 = (1/2) sum(q_j dp_j - p_j dq_j)`` restricts
to a tight contact form there, and the Reeb vector field coincides with
the Hamiltonian vector field under the convention ``i_{X_H} omega = -dH``
(which makes ``lambda0(X_H) = H``, hence ``= 1`` on the level).

Coordinates throughout are ``x = (q1, p1, q2, p2)``.  Every point-wise
function takes a batch of points as an array of shape ``(..., 4)`` (one point
is the ``(4,)`` case) and returns values of shape ``(...)``, vectors of shape
``(..., 4)`` and matrices of shape ``(..., 4, 4)``; tangent vectors broadcast
against the points.  Checks apply to every row, and an error names the first
offending row.
"""

import functools
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (ConfigError, DomainError, FrameDegeneracyError,
                     OffLevelError, check_keys)

__all__ = [
    "OMEGA",
    "StarForm",
    "XiFrame",
    "complement_basis",
    "omega_form",
    "project_to_sigma",
    "reeb_vector",
    "sobol_points",
    "xi_frame",
    "xi_projector",
    "sphere_samples",
]

# matrix of omega = dq1^dp1 + dq2^dp2
OMEGA = kernels.OMEGA

# largest exponent of a weight's monomial: the positivity check holds one
# running product per power, so its memory grows with the exponent
_MAX_EXPONENT = 32


def omega_form(u, v):
    """Symplectic form omega(u, v), row-wise over the last axis."""
    return np.vecdot(u @ OMEGA, v)


def complement_basis(rows):
    """Orthonormal basis of the complement of the orthonormal ``rows`` in
    R^4, by Gram-Schmidt of the coordinate axes with norm cutoff 1e-8."""
    basis = list(rows)
    for e in np.eye(4):
        for b in basis:
            e = e - (e @ b) * b
        if np.linalg.norm(e) > 1e-8:
            basis.append(e / np.linalg.norm(e))
    return np.array(basis[len(rows):])


def _real(v):
    """v as a float, or NaN if it is not a real number (neither a string nor
    a boolean is)."""
    return (float(v) if isinstance(v, numbers.Real) and not isinstance(v, bool)
            else np.nan)


def _first_row(mask):
    """Index of the first True entry of a boolean array, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _sobol_directions():
    """The 30-bit Sobol direction numbers of dimensions 1..4, one row per
    bit: van der Corput for dimension 1, then Joe & Kuo's (2008) primitive
    polynomials 3, 7 and 11 with initial numbers (1), (1, 3) and (1, 3, 1),
    continued by the Bratley-Fox recurrence."""
    columns = [[1] * 30]
    for poly, m in ((3, [1]), (7, [1, 3]), (11, [1, 3, 1])):
        s = len(m)
        for j in range(s, 30):
            new = m[j - s]
            for k in range(1, s + 1):
                if poly >> (s - k) & 1:
                    new ^= m[j - k] << k
            m.append(new)
        columns.append(m)
    return np.array([[c[j] << (29 - j) for c in columns] for j in range(30)])


_SOBOL_DIRECTIONS = _sobol_directions()


def sobol_points(d, skip, n):
    """Points skip .. skip + n - 1 of the unscrambled d-dim Sobol sequence,
    bit for bit those of scipy's ``qmc.Sobol(d, scramble=False)``: point k
    is the XOR of the directions of the bits of gray(k) (Antonov & Saleev
    1979), so each next point XORs one direction, that of the lowest set
    bit of its index.  A window outside d in 1..4, [0, 2^30] raises."""
    if not 1 <= d <= 4 or skip < 0 or n < 0 or skip + n > 2**30:
        raise DomainError(f"Sobol window of {n} points from {skip} in {d} "
                          "dimensions is outside d in 1..4, [0, 2^30]")
    v = _SOBOL_DIRECTIONS[:, :d]
    first = np.bitwise_xor.reduce(v[(skip ^ skip >> 1) >> np.arange(30) & 1 == 1])
    k = np.arange(skip + 1, skip + n)
    steps = np.take(v, np.bitwise_count((k & -k) - 1), axis=0)  # lowest set bits
    return np.bitwise_xor.accumulate(np.vstack([first, steps]))[:n] * 2.0**-30


# Cephes ndtri (Moshier 1989): the rational approximations of the central
# branch and of the tail below x = 8, highest power first; Q0 and Q1 have a
# leading 1
_EXP_M2 = 0.13533528323661269189  # exp(-2), where the branches meet
_S2PI = 2.50662827463100050242E0  # sqrt(2 pi)
_NDTRI_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0)
_NDTRI_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0)
_NDTRI_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4)
_NDTRI_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_LIBM_LOG = np.frompyfunc(math.log, 1, 1)


def _horner(x, ans, coef):
    """Cephes' ``polevl`` from ``ans = coef[0]``, ``p1evl`` from ``ans = x +
    coef[0]``: each step one multiply, then one add, as the C code rounds."""
    ans = ans * x + coef[0]  # a new array, updated in place from here
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _ndtri(p):
    """The inverse normal CDF of p clipped to [1e-12, 1 - 1e-12], bit for bit
    scipy's ``special.ndtri``: Cephes' routine in its own operation order,
    both logarithms through libm's ``log`` (numpy's SIMD ``log`` differs in
    the last bit on some inputs).  The clip keeps the tail's x =
    sqrt(-2 log y) below 7.44, so only the central branch (P0/Q0, exp(-2) <
    y < 1 - exp(-2)) and the tail below x = 8 (P1/Q1) are reachable; Cephes'
    third branch is not ported."""
    y0 = np.clip(p, 1e-12, 1 - 1e-12)
    upper = y0 > 1.0 - _EXP_M2  # mirrored to 1 - y0, a positive tail
    y = np.where(upper, 1.0 - y0, y0)
    mid = y > _EXP_M2
    tail = ~mid
    out = np.empty_like(y0)
    c = y[mid] - 0.5
    c2 = c * c
    ratio = (c2 * _horner(c2, _NDTRI_P0[0], _NDTRI_P0[1:])
             / _horner(c2, c2 + _NDTRI_Q0[0], _NDTRI_Q0[1:]))
    out[mid] = (c + c * ratio) * _S2PI
    x = np.sqrt(-2.0 * _LIBM_LOG(y[tail]).astype(float))
    z = 1.0 / x
    x1 = (z * _horner(z, _NDTRI_P1[0], _NDTRI_P1[1:])
          / _horner(z, z + _NDTRI_Q1[0], _NDTRI_Q1[1:]))
    v = x - _LIBM_LOG(x).astype(float) / x - x1
    out[tail] = np.where(upper[tail], v, -v)
    return out


def sphere_samples(n, seed_skip=0):
    """Quasi-uniform points on the unit sphere S^3 in R^4.

    Unscrambled Sobol points mapped through the inverse normal CDF
    (``_ndtri``) and normalized; deterministic, and the first n points of a
    longer run are always the same (prefix property used by the orbit
    search).  The first ``seed_skip`` points are skipped; a draw from 0 drops
    index 1 (the all-1/2 point maps to the origin).  A skip outside
    [0, 2^30 - n - 8] raises.
    """
    g = _ndtri(sobol_points(4, seed_skip, n + 8))
    norms = np.linalg.norm(g, axis=1)
    g = g[norms > 1e-9][:n]  # the sequence opens with 0 and 1/2 points
    return g / np.linalg.norm(g, axis=1, keepdims=True)


@functools.cache
def _positivity_sample():
    """The positivity check's 10^4 sphere points: drawn once, read-only."""
    u = sphere_samples(10_000).T
    u.flags.writeable = False
    return u


@dataclass(frozen=True, eq=False)
class StarForm:
    """A tight contact form encoded by a star-shaped energy level.

    Two encodings are supported.  ``weighted`` stores a finite monomial list
    for a polynomial p on R^4; the weight is f(x) = p(x/|x|) and
    H(x) = |x|^2 / f(x/|x|).  ``ellipsoid`` stores the two semiaxis squares
    exactly and uses H = |z1|^2/r1^2 + |z2|^2/r2^2 directly, so the analytic
    ground-truth cases carry no projection noise.
    """

    kind: str
    r_squared: np.ndarray | None = None
    exps: np.ndarray | None = None
    coeffs: np.ndarray | None = None
    name: str = ""
    # kernels.ellipsoid_tables or kernels.weight_tables, built at construction
    tables: tuple | None = field(default=None, repr=False)

    # -- constructors -------------------------------------------------------

    @classmethod
    def ellipsoid(cls, r1_squared, r2_squared, name=""):
        r = np.array([_real(r1_squared), _real(r2_squared)])
        k = _first_row(~np.isfinite(r) | (r <= 0))
        if k is not None:
            raise ConfigError("ellipsoid semiaxis squares must be positive "
                              f"finite reals, not {(r1_squared, r2_squared)[k]!r}",
                              f"/r_squared/{k}")
        return cls(kind="ellipsoid", r_squared=r, name=name,
                   tables=kernels.ellipsoid_tables(2.0 / r))

    @classmethod
    def weighted(cls, monomials, name=""):
        """Build from a non-empty list of ((e1,e2,e3,e4), coeff) monomials of
        integer exponents in [0, ``_MAX_EXPONENT``] and finite coefficients;
        the first bad entry raises ``ConfigError`` with its pointer.  The
        weight must be positive on a 10^4-point quasi-uniform sample of the
        unit sphere, its powers taken by running products."""
        if not isinstance(monomials, (list, tuple)) or not monomials:
            raise ConfigError(f"monomials {monomials!r} are not a non-empty list",
                              "/monomials")
        for k, (exp, coeff) in enumerate(monomials):
            if not isinstance(exp, (list, tuple)) or len(exp) != 4:
                raise ConfigError(f"monomial exponents {exp!r} are not a list "
                                  "of four", f"/monomials/{k}/exp")
            for j, e in enumerate(exp):
                if not _real(e).is_integer() or not 0 <= e <= _MAX_EXPONENT:
                    raise ConfigError(
                        f"monomial exponent {e!r} is not an integer in "
                        f"[0, {_MAX_EXPONENT}]", f"/monomials/{k}/exp/{j}")
            if not np.isfinite(_real(coeff)):
                raise ConfigError("monomial coefficients must be finite reals, "
                                  f"not {coeff!r}", f"/monomials/{k}/coeff")
        exps = np.array([[int(e) for e in exp] for exp, _ in monomials])
        coeffs = np.array([_real(coeff) for _, coeff in monomials])
        tables = kernels.weight_tables(exps, coeffs)
        form = cls(kind="weighted", exps=exps, coeffs=coeffs, name=name,
                   tables=tables)
        u = _positivity_sample()
        powers = np.empty((exps.max() + 1, *u.shape))
        powers[0] = 1.0
        for k in range(1, len(powers)):
            np.multiply(powers[k - 1], u, out=powers[k])
        e = exps.T  # each monomial's four factors, multiplied left to right
        vals = coeffs @ (powers[e[0], 0] * powers[e[1], 1] * powers[e[2], 2]
                         * powers[e[3], 3])
        if vals.min() <= 0:
            raise DomainError(
                f"weight is not positive on the sphere (min {vals.min():.3e})"
            )
        return form

    # -- JSON wire format ---------------------------------------------------

    @classmethod
    def from_json_dict(cls, data):
        """The form its type's constructor builds from the encoding's values:
        an object of its ``type``, the key that encodes that type and an
        optional string ``name``; a monomial is an object of ``exp`` and
        ``coeff``.  Else ``ConfigError`` points into ``data`` at the first of:
        the type, a missing key, an unknown key, the name, a bad value."""
        kind = data.get("type") if isinstance(data, dict) else None
        if kind not in ("ellipsoid", "weighted"):
            raise ConfigError("a form is an object of type ellipsoid or weighted",
                              "/type" if isinstance(data, dict) else "")
        key = "r_squared" if kind == "ellipsoid" else "monomials"
        check_keys(data, ("type", key), ("name",), "")
        name, value = data.get("name", ""), data[key]
        if not isinstance(name, str):
            raise ConfigError(f"form name {name!r} is not a string", "/name")
        if kind == "ellipsoid":
            if not isinstance(value, list) or len(value) != 2:
                raise ConfigError("ellipsoid semiaxis squares must be two "
                                  f"positive finite reals, not {value!r}",
                                  "/r_squared")
            return cls.ellipsoid(*value, name=name)
        if isinstance(value, list):
            for k, m in enumerate(value):
                check_keys(m, ("exp", "coeff"), (), f"/monomials/{k}")
            value = [(m["exp"], m["coeff"]) for m in value]
        return cls.weighted(value, name=name)

    @property
    def form_hash(self):
        """Census key of the form: a digest of its encoding.  The ellipsoid
        payload spells each radius as numpy 2 prints a float64 scalar, under
        any numpy version, so saved censuses keep their key; tests pin the
        digests."""
        if self.kind == "ellipsoid":
            body = {"type": "ellipsoid",
                    "r_squared": [f"np.float64({float(v)!r})"
                                  for v in self.r_squared]}
        else:
            body = {
                "type": "weighted",
                "monomials": [
                    {"exp": [int(e) for e in ex], "coeff": repr(float(c))}
                    for ex, c in zip(self.exps, self.coeffs)
                ],
            }
        if self.name:
            body["name"] = self.name
        blob = json.dumps(body, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    # -- Hamiltonian --------------------------------------------------------

    def _parts(self, x, order, what):
        """(H, grad H, Hess H) at x up to ``order`` from the form's kernel,
        looked up on ``kernels`` at each call, where perfbench rebinds it."""
        x = np.asarray(x, dtype=float)
        if np.count_nonzero(np.vecdot(x, x) == 0.0):
            raise DomainError(f"{what} is undefined at the origin")
        kernel = (kernels.ellipsoid_h_parts if self.kind == "ellipsoid"
                  else kernels.weighted_h_parts)
        return kernel(self.tables, x, order)

    def H(self, x):
        return self._parts(x, 0, "H")[0]

    # the former name of the batch evaluation, still used outside the package
    H_batch = H

    def grad_H(self, x):
        return self._parts(x, 1, "grad H")[1]

    # nothing in the package calls it; perfbench/tracing.py counts it by name
    def hess_H(self, x):
        return self._parts(x, 2, "hess H")[2]


# ---------------------------------------------------------------------------
# points on the level, Reeb field, contact-plane frame
# ---------------------------------------------------------------------------

def project_to_sigma(form, x):
    """Radially project x onto the unit level (exact: H is 2-homogeneous)."""
    x = np.asarray(x, dtype=float)
    h = form.H(x)
    if np.count_nonzero(h <= 0):
        raise DomainError("cannot project a point with non-positive energy")
    return x / np.sqrt(h)[..., None]


def _check_on_level(form, x):
    err = np.abs(form.H(x) - 1.0)
    k = _first_row(err > 1e-7)
    if k is not None:
        raise OffLevelError(
            f"|H(x) - 1| = {err.flat[k]:.3e} exceeds 1e-07 at "
            f"{np.reshape(x, (-1, 4))[k]}")


def reeb_vector(form, x, check=True):
    """Reeb field at points of the level: R = X_H = grad H @ OMEGA, with
    lambda0(R) = 1.  ``check`` refuses points off the level by over 1e-7."""
    x = np.asarray(x, dtype=float)
    if check:
        _check_on_level(form, x)
    return form.grad_H(x) @ OMEGA


def xi_projector(form, x):
    """Symplectic projection onto the contact plane at level points x.

    Returns ``v -> v - dH(v) x/2 - omega(x/2, v) R``.  The contact plane,
    where lambda0 and dH vanish, is the omega-orthogonal complement of the
    plane spanned by x/2 and R = grad H @ OMEGA, so it kills both and fixes xi.
    """
    x = np.asarray(x, dtype=float)
    Y = 0.5 * x
    gH = form.grad_H(x)
    R = gH @ OMEGA

    def proj(v):
        return (v - np.vecdot(gH, v)[..., None] * Y
                - omega_form(Y, v)[..., None] * R)

    return proj


@dataclass(frozen=True)
class XiFrame:
    """Symplectic frames (e1, e2) of the contact plane at points.

    ``e1`` and ``e2`` have shape (..., 4).  lambda0 and dH vanish on both
    vectors, dlambda0(e1, e2) = 1 exactly after normalization, and e1 is
    Euclidean-orthogonal to e2 with equal norms, so the induced complex
    structure (e1 -> e2) is the standard one in frame coordinates.
    ``project`` is the ``xi_projector`` at the same points that built them.
    """

    e1: np.ndarray
    e2: np.ndarray
    project: object

    def coords(self, w):
        """Frame coordinates (..., 2) of contact-plane vectors w = a e1 + b e2."""
        return np.stack([omega_form(w, self.e2), -omega_form(w, self.e1)],
                        axis=-1)


# quaternion units j and k acting on x = (q1, p1, q2, p2): index and sign maps
_J_IDX, _J_SIGN = np.array([2, 3, 0, 1]), np.array([-1.0, 1.0, 1.0, -1.0])
_K_IDX, _K_SIGN = np.array([3, 2, 1, 0]), np.array([-1.0, -1.0, 1.0, 1.0])
# smallest norm of a frame generator, and of dlambda0(f1, f2), before scaling
_FRAME_MIN_NORM = 1e-6


def _frame_norm(x, n):
    k = _first_row(n < _FRAME_MIN_NORM)
    if k is not None:
        raise FrameDegeneracyError(np.reshape(x, (-1, 4))[k], n.flat[k])
    return n[..., None]


def xi_frame(form, x):
    """Global symplectic frame of the contact plane at points x.

    The quaternion fields j*xhat and k*xhat are projected symplectically
    onto the contact plane (the omega-orthogonal complement of the plane
    spanned by x/2 and R), Gram-Schmidt orthonormalized in that order, and
    rescaled so dlambda0(e1, e2) = 1.  A point off the level by more than
    1e-7 raises ``OffLevelError``.
    """
    x = np.asarray(x, dtype=float)
    _check_on_level(form, x)
    proj = xi_projector(form, x)
    xh = x / kernels.norm(x)[..., None]
    u1, u2 = proj(_J_SIGN * xh[..., _J_IDX]), proj(_K_SIGN * xh[..., _K_IDX])

    f1 = u1 / _frame_norm(x, kernels.norm(u1))
    u2 = u2 - np.vecdot(u2, f1)[..., None] * f1
    f2 = u2 / _frame_norm(x, kernels.norm(u2))
    c = omega_form(f1, f2)
    _frame_norm(x, np.abs(c))
    f2 = np.where(c[..., None] < 0, -f2, f2)
    scale = 1.0 / np.sqrt(np.abs(c))[..., None]
    return XiFrame(e1=f1 * scale, e2=f2 * scale, project=proj)
