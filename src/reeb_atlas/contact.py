"""Star-shaped energy levels in R^4 and the contact geometry they carry.

A positive weight on the unit sphere determines a degree-2 homogeneous
Hamiltonian ``H`` whose unit level is a star-shaped hypersurface.  The
standard primitive ``lambda0 = (1/2) sum(q_j dp_j - p_j dq_j)`` restricts
to a tight contact form there, and the Reeb vector field coincides with
the Hamiltonian vector field under the convention ``i_{X_H} omega = -dH``
(which makes ``lambda0(X_H) = H``, hence ``= 1`` on the level).

Coordinates throughout are ``x = (q1, p1, q2, p2)``.
"""

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

from . import kernels
from .errors import DomainError, FrameDegeneracyError, OffLevelError

__all__ = [
    "OMEGA",
    "StarForm",
    "XiFrame",
    "lambda0",
    "omega_form",
    "project_to_sigma",
    "reeb_vector",
    "xi_frame",
    "xi_project",
    "xi_projector",
    "sphere_samples",
]

# matrix of omega = dq1^dp1 + dq2^dp2
OMEGA = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])

_LEVEL_TOL = 1e-9


def omega_form(u, v):
    """Symplectic form omega(u, v)."""
    return u @ OMEGA @ v


def lambda0(x, v):
    """The primitive 1-form lambda0 at x applied to v: (1/2) omega(x, v)."""
    return 0.5 * (x @ OMEGA @ v)


def sphere_samples(n, dim=4, seed_skip=0):
    """Quasi-uniform points on the unit sphere S^{dim-1}.

    Unscrambled Sobol points mapped through the inverse normal CDF and
    normalized; deterministic, and the first n points of a longer run are
    always the same (prefix property used by the orbit search).
    """
    import warnings

    from scipy.special import ndtri

    eng = qmc.Sobol(d=dim, scramble=False)
    if seed_skip:
        eng.fast_forward(seed_skip)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        u = eng.random(n + 8)
    g = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(g, axis=1)
    g = g[norms > 1e-9][:n]  # the sequence opens with 0 and 1/2 points
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _canonical_payload(kind, name, r_squared=None, exps=None, coeffs=None):
    if kind == "ellipsoid":
        body = {"type": "ellipsoid", "r_squared": [repr(v) for v in r_squared]}
    else:
        body = {
            "type": "weighted",
            "monomials": [
                {"exp": [int(e) for e in ex], "coeff": repr(float(c))}
                for ex, c in zip(exps, coeffs)
            ],
        }
    if name:
        body["name"] = name
    return body


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
    _positivity_checked: bool = field(default=False, repr=False)

    # -- constructors -------------------------------------------------------

    @classmethod
    def ellipsoid(cls, r1_squared, r2_squared, name=""):
        r = np.array([float(r1_squared), float(r2_squared)])
        if not np.all(np.isfinite(r)) or np.any(r <= 0):
            raise DomainError("ellipsoid semiaxis squares must be positive finite")
        return cls(kind="ellipsoid", r_squared=r, name=name)

    @classmethod
    def round_sphere(cls, name="round-sphere"):
        return cls.ellipsoid(1.0, 1.0, name=name)

    @classmethod
    def weighted(cls, monomials, name="", positivity_samples=10_000):
        """Build from a list of ((e1,e2,e3,e4), coeff) monomials.

        The weight must be positive on a 10^4-point quasi-uniform sample of
        the unit sphere; forms failing the check are rejected.
        """
        exps = np.array([m[0] for m in monomials], dtype=np.int64)
        coeffs = np.array([m[1] for m in monomials], dtype=float)
        if exps.ndim != 2 or exps.shape[1] != 4 or np.any(exps < 0):
            raise DomainError("monomial exponents must be non-negative 4-tuples")
        if not np.all(np.isfinite(coeffs)):
            raise DomainError("monomial coefficients must be finite")
        form = cls(kind="weighted", exps=exps, coeffs=coeffs, name=name,
                   _positivity_checked=True)
        pts = sphere_samples(positivity_samples)
        vals = form._poly_batch(pts)
        if vals.min() <= 0:
            raise DomainError(
                f"weight is not positive on the sphere (min {vals.min():.3e})"
            )
        return form

    # -- JSON wire format ---------------------------------------------------

    @classmethod
    def from_json_dict(cls, data):
        from decimal import Decimal, InvalidOperation

        def parse_real(v, where):
            try:
                out = float(Decimal(str(v)))
            except (InvalidOperation, ValueError) as exc:
                raise DomainError(f"{where}: not a real number: {v!r}") from exc
            if not np.isfinite(out):
                raise DomainError(f"{where}: non-finite value rejected: {v!r}")
            return out

        kind = data.get("type")
        name = data.get("name", "")
        if kind == "ellipsoid":
            r = data.get("r_squared")
            if not isinstance(r, (list, tuple)) or len(r) != 2:
                raise DomainError("r_squared must be a 2-element list")
            return cls.ellipsoid(parse_real(r[0], "r_squared[0]"),
                                 parse_real(r[1], "r_squared[1]"), name=name)
        if kind == "weighted":
            mons = data.get("monomials")
            if not isinstance(mons, list) or not mons:
                raise DomainError("monomials must be a non-empty list")
            parsed = []
            for i, m in enumerate(mons):
                exp = m.get("exp")
                if not isinstance(exp, (list, tuple)) or len(exp) != 4:
                    raise DomainError(f"monomials[{i}].exp must be a 4-list")
                parsed.append((tuple(int(e) for e in exp),
                               parse_real(m.get("coeff"), f"monomials[{i}].coeff")))
            return cls.weighted(parsed, name=name)
        raise DomainError(f"unknown form type {kind!r}")

    def to_json_dict(self):
        if self.kind == "ellipsoid":
            out = {"type": "ellipsoid", "r_squared": [float(v) for v in self.r_squared]}
        else:
            out = {
                "type": "weighted",
                "monomials": [
                    {"exp": [int(e) for e in ex], "coeff": float(c)}
                    for ex, c in zip(self.exps, self.coeffs)
                ],
            }
        if self.name:
            out["name"] = self.name
        return out

    @property
    def form_hash(self):
        payload = _canonical_payload(self.kind, self.name, self.r_squared,
                                     self.exps, self.coeffs)
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    # -- Hamiltonian --------------------------------------------------------

    def _diag(self):
        return np.array([2.0 / self.r_squared[0], 2.0 / self.r_squared[1]])

    def _poly_batch(self, pts):
        pw = pts[:, None, :] ** self.exps[None, :, :]
        return np.prod(pw, axis=2) @ self.coeffs

    def H(self, x):
        x = np.asarray(x, dtype=float)
        if x @ x == 0.0:
            raise DomainError("H is undefined at the origin")
        if self.kind == "ellipsoid":
            d = self._diag()
            return 0.5 * (d[0] * (x[0] ** 2 + x[1] ** 2) + d[1] * (x[2] ** 2 + x[3] ** 2))
        h, _, _ = kernels.weighted_h_parts(self.exps, self.coeffs, x, 0)
        return h

    def grad_H(self, x):
        x = np.asarray(x, dtype=float)
        if x @ x == 0.0:
            raise DomainError("grad H is undefined at the origin")
        if self.kind == "ellipsoid":
            d = self._diag()
            return np.array([d[0] * x[0], d[0] * x[1], d[1] * x[2], d[1] * x[3]])
        _, g, _ = kernels.weighted_h_parts(self.exps, self.coeffs, x, 1)
        return g

    def hess_H(self, x):
        x = np.asarray(x, dtype=float)
        if x @ x == 0.0:
            raise DomainError("hess H is undefined at the origin")
        if self.kind == "ellipsoid":
            d = self._diag()
            return np.diag([d[0], d[0], d[1], d[1]])
        _, _, hh = kernels.weighted_h_parts(self.exps, self.coeffs, x, 2)
        return hh

    def H_batch(self, pts):
        pts = np.asarray(pts, dtype=float)
        if self.kind == "ellipsoid":
            d = self._diag()
            return 0.5 * (d[0] * (pts[:, 0] ** 2 + pts[:, 1] ** 2)
                          + d[1] * (pts[:, 2] ** 2 + pts[:, 3] ** 2))
        r2 = np.sum(pts ** 2, axis=1)
        u = pts / np.sqrt(r2)[:, None]
        return r2 / self._poly_batch(u)

    def describe(self):
        return self.name or f"{self.kind} form"


# ---------------------------------------------------------------------------
# points on the level, Reeb field, contact-plane frame
# ---------------------------------------------------------------------------

def project_to_sigma(form, x):
    """Radially project x onto the unit level (exact: H is 2-homogeneous)."""
    x = np.asarray(x, dtype=float)
    h = form.H(x)
    if h <= 0:
        raise DomainError("cannot project a point with non-positive energy")
    return x / np.sqrt(h)


def _check_on_level(form, x, tol=1e-7):
    h = form.H(x)
    if abs(h - 1.0) > tol:
        raise OffLevelError(f"|H(x) - 1| = {abs(h - 1.0):.3e} exceeds {tol:.0e}")


def reeb_vector(form, x, check=True):
    """Reeb field at a point of the level: R = X_H with lambda0(R) = 1."""
    x = np.asarray(x, dtype=float)
    if check:
        _check_on_level(form, x)
    if form.kind == "ellipsoid":
        return kernels.ellipsoid_rhs(x, form._diag())
    return kernels.weighted_rhs(x, form.exps, form.coeffs)


def xi_projector(form, x):
    """Symplectic projection onto the contact plane at a level point x.

    Returns ``v -> v - dH(v) x/2 - omega(x/2, v) R``.  The contact plane,
    where lambda0 and dH vanish, is the omega-orthogonal complement of the
    plane spanned by x/2 and R, so the map kills x/2 and R and fixes xi.
    """
    x = np.asarray(x, dtype=float)
    Y = 0.5 * x
    gH = form.grad_H(x)
    R = reeb_vector(form, x, check=False)

    def proj(v):
        return v - (gH @ v) * Y - omega_form(Y, v) * R

    return proj


@dataclass(frozen=True)
class XiFrame:
    """Symplectic frame (e1, e2) of the contact plane at a point.

    lambda0 and dH vanish on both vectors, dlambda0(e1, e2) = 1 exactly after
    normalization, and e1 is Euclidean-orthogonal to e2 with equal norms, so
    the induced complex structure (e1 -> e2) is the standard one in frame
    coordinates.
    """

    point: np.ndarray
    e1: np.ndarray
    e2: np.ndarray

    def coords(self, w):
        """Frame coordinates (a, b) of a contact-plane vector w = a e1 + b e2."""
        return np.array([omega_form(w, self.e2), -omega_form(w, self.e1)])

    def embed(self, ab):
        return ab[0] * self.e1 + ab[1] * self.e2


def _quat_j(x):
    return np.array([-x[2], x[3], x[0], -x[1]])


def _quat_k(x):
    return np.array([-x[3], -x[2], x[1], x[0]])


def xi_frame(form, x, generator="j", check=True, _min_norm=1e-6):
    """Global symplectic frame of the contact plane at x.

    The quaternion fields j*xhat and k*xhat are projected symplectically
    onto the contact plane (the omega-orthogonal complement of the plane
    spanned by x/2 and R), Gram-Schmidt orthonormalized, and rescaled so
    dlambda0(e1, e2) = 1.  ``generator="k"`` starts from k*xhat instead,
    giving a second global frame in the same homotopy class; downstream
    integer invariants must not depend on the choice.
    """
    x = np.asarray(x, dtype=float)
    if check:
        _check_on_level(form, x)
    proj = xi_projector(form, x)
    xh = x / np.linalg.norm(x)
    if generator == "j":
        u1, u2 = proj(_quat_j(xh)), proj(_quat_k(xh))
    elif generator == "k":
        u1, u2 = proj(_quat_k(xh)), proj(_quat_j(xh))
    else:
        raise DomainError(f"unknown frame generator {generator!r}")

    n1 = np.linalg.norm(u1)
    if n1 < _min_norm:
        raise FrameDegeneracyError(x, n1)
    f1 = u1 / n1
    u2 = u2 - (u2 @ f1) * f1
    n2 = np.linalg.norm(u2)
    if n2 < _min_norm:
        raise FrameDegeneracyError(x, n2)
    f2 = u2 / n2
    c = omega_form(f1, f2)
    if abs(c) < _min_norm:
        raise FrameDegeneracyError(x, abs(c))
    if c < 0:
        f2, c = -f2, -c
    scale = 1.0 / np.sqrt(c)
    return XiFrame(point=x, e1=f1 * scale, e2=f2 * scale)


def xi_project(form, x, v, frame=None, tol=1e-9):
    """Coordinates of the contact-plane projection of a tangent vector.

    The projection is ``xi_projector``; on vectors tangent to the level it
    kills the Reeb direction: pi(v) = v - lambda0(v) R.  Requires v tangent
    to the level at x.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    gH = form.grad_H(x)
    if abs(gH @ v) > tol * max(1.0, np.linalg.norm(v)) * np.linalg.norm(gH):
        raise DomainError("vector is not tangent to the level within tolerance")
    if frame is None:
        frame = xi_frame(form, x)
    return frame.coords(xi_projector(form, x)(v))
