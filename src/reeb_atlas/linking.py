"""Linking numbers, self-linking via contact-plane pushoff, and a
conservative unknot certifier for sampled orbit traces.

Loops on the energy level are radially normalized to the unit sphere and
mapped to R^3 by stereographic projection from one of 26 fixed candidate
poles.  The projection basis is oriented so that linking numbers computed
in R^3 agree with the homological linking on the sphere oriented by the
contact volume form; two independent algorithms (the exact Gauss sum,
taken over vertex directions as two atan2 triangle solid angles per segment
pair, and signed crossings of a generic planar diagram) are kept separate so
they can audit each other.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .contact import project_to_sigma, xi_frame
from .errors import PoleSelectionError, ProximityError, ResolutionError
from .orbits import trace_orbit

__all__ = [
    "KnotVerdict",
    "trace_orbit",
    "stereo_project",
    "pick_pole",
    "linking_number",
    "crossing_linking",
    "self_linking",
    "unknot_check",
    "POLE_CANDIDATES",
]


def _pole_candidates():
    poles = []
    for i in range(4):
        for s in (1.0, -1.0):
            v = np.zeros(4)
            v[i] = s
            poles.append(v)
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for sz in (1.0, -1.0):
                for sw in (1.0, -1.0):
                    poles.append(np.array([sx, sy, sz, sw]) / 2.0)
    poles.append(np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0))
    poles.append(np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2.0))
    return np.array(poles)


POLE_CANDIDATES = _pole_candidates()  # 26 fixed directions, tried in order

# a pole closer than this to a normalized curve is never used
_POLE_MIN_DIST = 1e-2
# curves closer than this have no reliable linking number
_MIN_CURVE_DIST = 1e-3
# crossings of shadow segments this close to parallel (relative to their
# lengths) make a projection non-generic
_TANGENT_TOL = 1e-9


# ---------------------------------------------------------------------------
# stereographic projection with a pinned orientation
# ---------------------------------------------------------------------------

def _oriented_basis(pole):
    basis = []
    for seed in np.eye(4):
        v = seed - (seed @ pole) * pole
        for b in basis:
            v = v - (v @ b) * b
        if np.linalg.norm(v) > 1e-8:
            basis.append(v / np.linalg.norm(v))
        if len(basis) == 3:
            break
    B = np.array(basis)
    # det[b1, b2, b3, pole] = +1 makes the projection orientation-preserving
    # from the sphere oriented by the contact volume form
    if np.linalg.det(np.vstack([B, pole[None, :]])) < 0:
        B[2] = -B[2]
    return B


def stereo_project(points, pole):
    """Stereographic image in R^3 of a loop, after radial normalization.

    A pole within ``_POLE_MIN_DIST`` of the normalized loop is refused.
    """
    pole = np.asarray(pole, dtype=float)
    pole = pole / np.linalg.norm(pole)
    y = points / np.linalg.norm(points, axis=1, keepdims=True)
    if np.linalg.norm(y - pole, axis=1).min() <= _POLE_MIN_DIST:
        raise PoleSelectionError("pole ray passes too close to the curve")
    B = _oriented_basis(pole)
    denom = (1.0 - y @ pole)[:, None]
    return ((y - np.outer(y @ pole, pole)) / denom) @ B.T


def pick_pole(point_sets):
    """First of the 26 candidate poles admissible for every given loop.

    A pole within a few chord lengths of a sampled curve blows the image up
    until the solid-angle sums lose the linking, so admissibility prefers a
    comfortable clearance and only falls back toward the hard floor when no
    candidate clears it.
    """
    sets = []
    floor = _POLE_MIN_DIST
    for pts in point_sets:
        y = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        sets.append(y)
        chord = np.linalg.norm(np.roll(y, -1, axis=0) - y, axis=1).max()
        floor = max(floor, 3.0 * chord)
    for threshold in (max(0.2, floor), floor):
        for pole in POLE_CANDIDATES:
            if all(np.linalg.norm(y - pole, axis=1).min() > threshold
                   for y in sets):
                return pole
    raise PoleSelectionError("no admissible pole among the 26 candidates")


# ---------------------------------------------------------------------------
# Gauss linking number
# ---------------------------------------------------------------------------

def linking_number(a, b, min_dist=_MIN_CURVE_DIST):
    """Integer linking number of two (N, 4) loops by the exact Gauss sum
    (``kernels.gauss_linking_raw``: the vertex-based atan2 solid-angle sum).

    Returns (lk, raw_residual).  Curves closer than ``min_dist`` are
    rejected; a residual of 0.1 or more demands denser traces.
    """
    pa = np.ascontiguousarray(a)
    pb = np.ascontiguousarray(b)
    gap = kernels.min_cross_distance(pa, pb)
    if gap <= min_dist:
        raise ProximityError(f"curves are {gap:.2e} apart (< {min_dist:.0e})")
    pole = pick_pole([pa, pb])
    a3 = np.ascontiguousarray(stereo_project(pa, pole))
    b3 = np.ascontiguousarray(stereo_project(pb, pole))
    raw = kernels.gauss_linking_raw(a3, b3)
    lk = int(np.rint(raw))
    residual = abs(raw - lk)
    if residual >= 0.1:
        raise ResolutionError(
            f"Gauss sum residual {residual:.3f} >= 0.1; densify"
        )
    return lk, residual


# ---------------------------------------------------------------------------
# signed-crossing linking (independent oracle)
# ---------------------------------------------------------------------------

_PLANE_DIRECTIONS = np.array([
    [0.0, 0.0, 1.0],
    [0.0, 1.0, 0.0],
    [1.0, 0.0, 0.0],
    [1.0, 1.0, 1.0],
    [1.0, -1.0, 2.0],
    [2.0, 1.0, -1.0],
    [-1.0, 2.0, 1.0],
    [1.0, 2.0, 0.0],
    [0.0, 1.0, 2.0],
    [2.0, 0.0, 1.0],
    [1.0, -2.0, 1.0],
    [3.0, 1.0, 2.0],
    [0.12, 0.31, 0.94],
])


def _plane_basis(d):
    d = d / np.linalg.norm(d)
    t = np.array([1.0, 0.0, 0.0])
    if abs(t @ d) > 0.9:
        t = np.array([0.0, 1.0, 0.0])
    u1 = t - (t @ d) * d
    u1 /= np.linalg.norm(u1)
    u2 = np.cross(d, u1)  # right-handed (u1, u2, d)
    return u1, u2, d


def _pair_crossings(a3, b3, direction):
    """Signed crossings between the shadows of two loops.

    Returns the signed sum, or None when the projection is non-generic
    (near-parallel strands at a crossing).
    """
    u1, u2, d = _plane_basis(direction)
    A2 = np.stack([a3 @ u1, a3 @ u2], axis=1)
    B2 = np.stack([b3 @ u1, b3 @ u2], axis=1)
    Ah = a3 @ d
    Bh = b3 @ d
    na, nb = len(A2), len(B2)
    p1 = A2
    p2 = np.roll(A2, -1, axis=0)
    q1 = B2
    q2 = np.roll(B2, -1, axis=0)
    r = p2 - p1  # (na, 2)
    s = q2 - q1  # (nb, 2)
    denom = r[:, None, 0] * s[None, :, 1] - r[:, None, 1] * s[None, :, 0]
    dq = q1[None, :, :] - p1[:, None, :]
    tt = (dq[:, :, 0] * s[None, :, 1] - dq[:, :, 1] * s[None, :, 0])
    uu = (dq[:, :, 0] * r[:, None, 1] - dq[:, :, 1] * r[:, None, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        tt = tt / denom
        uu = uu / denom
    scale = (np.linalg.norm(r, axis=1)[:, None]
             * np.linalg.norm(s, axis=1)[None, :])
    hit = (np.abs(denom) > _TANGENT_TOL * scale) & \
        (tt >= 0.0) & (tt < 1.0) & (uu >= 0.0) & (uu < 1.0)
    near_tangent = (np.abs(denom) <= _TANGENT_TOL * scale) & \
        (tt >= -0.1) & (tt < 1.1) & (uu >= -0.1) & (uu < 1.1)
    if np.any(near_tangent & np.isfinite(tt) & np.isfinite(uu)):
        return None
    ii, jj = np.nonzero(hit)
    ha = Ah[ii] + tt[ii, jj] * (np.roll(Ah, -1)[ii] - Ah[ii])
    hb = Bh[jj] + uu[ii, jj] * (np.roll(Bh, -1)[jj] - Bh[jj])
    # crossing sign: over strand x under strand
    cross = r[ii, 0] * s[jj, 1] - r[ii, 1] * s[jj, 0]
    return int(np.sign(np.where(ha > hb, cross, -cross)).sum())


def crossing_linking(a, b):
    """Linking number of two (N, 4) loops as half the signed crossing count
    of a generic shadow."""
    pa = np.ascontiguousarray(a)
    pb = np.ascontiguousarray(b)
    gap = kernels.min_cross_distance(pa, pb)
    if gap <= _MIN_CURVE_DIST:
        raise ProximityError(
            f"curves are {gap:.2e} apart (< {_MIN_CURVE_DIST:.0e})")
    pole = pick_pole([pa, pb])
    a3 = stereo_project(pa, pole)
    b3 = stereo_project(pb, pole)
    for direction in _PLANE_DIRECTIONS:
        total = _pair_crossings(a3, b3, direction)
        if total is None:
            continue
        if total % 2 != 0:
            continue  # odd sum signals a missed or double-counted crossing
        return total // 2
    raise ResolutionError("no generic projection direction found")


# ---------------------------------------------------------------------------
# self-linking number via pushoff along the global frame
# ---------------------------------------------------------------------------

def self_linking(form, orbit, eps=1e-2, frame_vector="e1"):
    """Self-linking number of an orbit: linking with its pushoff along a
    global non-vanishing section of the contact plane.

    The orbit is traced at 512 points.  The result must be stable under
    halving the pushoff size, otherwise the pushoff was too large for the
    curve's geometry and an error is raised.
    """
    trace = trace_orbit(form, orbit, n=512)
    fr = xi_frame(form, trace)
    sections = fr.e1 if frame_vector == "e1" else fr.e2

    def lk_at(e):
        pushed = project_to_sigma(form, trace + e * sections)
        lk, _ = linking_number(trace, pushed,
                               min_dist=min(_MIN_CURVE_DIST, 0.2 * e))
        return lk

    sl = lk_at(eps)
    sl_half = lk_at(eps / 2.0)
    if sl_half != sl:
        raise ResolutionError(
            f"self-linking unstable under pushoff halving: {sl} vs {sl_half}"
        )
    return sl


# ---------------------------------------------------------------------------
# unknot certification by diagram reduction
# ---------------------------------------------------------------------------

@dataclass
class KnotVerdict:
    """Either a certified unknot or an abstention; never claims knottedness."""

    status: str  # "certified_unknot" | "unknown"
    crossing_count_after_reduction: int


def _self_crossings(p3, direction):
    """Crossing word of one loop's shadow: list of (cid, over) in arc order.

    Returns None on a non-generic projection.
    """
    u1, u2, d = _plane_basis(direction)
    P2 = np.stack([p3 @ u1, p3 @ u2], axis=1)
    H = p3 @ d
    n = len(P2)
    p1 = P2
    r = np.roll(P2, -1, axis=0) - P2
    hn = np.roll(H, -1)
    denom = r[:, None, 0] * r[None, :, 1] - r[:, None, 1] * r[None, :, 0]
    dq = p1[None, :, :] - p1[:, None, :]
    num_t = dq[:, :, 0] * r[None, :, 1] - dq[:, :, 1] * r[None, :, 0]
    num_u = dq[:, :, 0] * r[:, None, 1] - dq[:, :, 1] * r[:, None, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        tt = num_t / denom
        uu = num_u / denom
    lens = np.linalg.norm(r, axis=1)
    nondeg = np.abs(denom) > _TANGENT_TOL * lens[:, None] * lens[None, :]
    idx = np.arange(n)
    upper = idx[None, :] >= idx[:, None] + 2
    upper &= ~((idx[:, None] == 0) & (idx[None, :] == n - 1))  # wrap-adjacent
    hit = nondeg & upper & (tt >= 0.0) & (tt < 1.0) & (uu >= 0.0) & (uu < 1.0)
    ii, jj = np.nonzero(hit)
    t, u = tt[ii, jj], uu[ii, jj]
    if np.any(np.minimum(np.minimum(t, 1 - t), np.minimum(u, 1 - u)) < 1e-9):
        return None  # crossing at a vertex; retry another direction
    hi = H[ii] + t * (hn[ii] - H[ii])
    hj = H[jj] + u * (hn[jj] - H[jj])
    if np.any(np.abs(hi - hj) < 1e-12):
        return None
    # each crossing is met twice along the loop, once over and once under
    pos = np.concatenate([ii + t, jj + u])
    cid = np.tile(np.arange(len(ii)), 2)
    over = np.concatenate([hi > hj, hj > hi])
    order = np.lexsort((over, cid, pos))
    return [(int(c), bool(o)) for c, o in zip(cid[order], over[order])]


def _reduce_word(word):
    """Crossing-removal passes to a fixed point.

    A kink is a crossing whose two occurrences are cyclically adjacent; a
    clasp-free bigon is a pair of crossings adjacent as over-over in one
    place and under-under in another.
    """
    word = list(word)
    changed = True
    while changed and word:
        changed = False
        L = len(word)
        # kinks
        for p in range(L):
            q = (p + 1) % L
            if word[p][0] == word[q][0]:
                word = [w for w in word if w[0] != word[p][0]]
                changed = True
                break
        if changed:
            continue
        # bigons
        L = len(word)
        adj = {}
        for p in range(L):
            q = (p + 1) % L
            a, oa = word[p]
            b, ob = word[q]
            if a != b and oa == ob:
                adj.setdefault(frozenset((a, b)), set()).add(oa)
        for pair, overs in adj.items():
            if overs == {True, False}:
                word = [w for w in word if w[0] not in pair]
                changed = True
                break
    return word


def unknot_check(trace):
    """Certify an (N, 4) loop as unknotted, or abstain.

    A PL diagram is built from a generic projection and simplified by kink
    and bigon removal; zero remaining crossings certifies the unknot, and
    anything else is reported as unknown.
    """
    pts = np.asarray(trace)
    last_count = None
    for pole in POLE_CANDIDATES:
        try:
            p3 = stereo_project(pts, pole)
        except PoleSelectionError:
            continue
        for direction in _PLANE_DIRECTIONS:
            word = _self_crossings(p3, direction)
            if word is None:
                continue
            reduced = _reduce_word(word)
            count = len(reduced) // 2
            if count == 0:
                return KnotVerdict(status="certified_unknot",
                                   crossing_count_after_reduction=0)
            last_count = count if last_count is None else min(last_count, count)
        if last_count is not None:
            # one admissible pole with generic directions is enough to report
            break
    if last_count is None:
        raise PoleSelectionError(
            "no generic projection found for the unknot check"
        )
    return KnotVerdict(status="unknown",
                       crossing_count_after_reduction=last_count)
