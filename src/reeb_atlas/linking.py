"""Linking numbers, self-linking via contact-plane pushoff, and a
conservative unknot certifier for sampled orbit traces.

Loops on the energy level are radially normalized to the unit sphere and
mapped to R^3 by stereographic projection from one of 26 fixed candidate
poles, the one ``pick_pole`` admits, for every diagram and every linking
number.  The projection basis is oriented so that linking numbers computed
in R^3 agree with the homological linking on the sphere oriented by the
contact volume form; two independent algorithms (the exact Gauss sum,
taken over vertex directions as two atan2 triangle solid angles per segment
pair, and signed crossings of a generic planar diagram) are kept separate so
they can audit each other: every linking number of a census is taken by both.
Every diagram, of one loop or of two, is read by one scan under one
genericity rule (``_crossing_scan``): no two segments whose padded boxes meet
are near parallel, and no crossing lies at a vertex or at equal heights.
Every self-linking number is taken by two routes as well: the Gauss sum of
the orbit and its pushoff along the contact plane, and the
Calugareanu-White identity lk(K, K + eps V) = writhe + twist (Calugareanu
1961; White 1969), read off one diagram: the writhe is its signed
self-crossing sum, and the twist counts the pushoff's turns about the
tangent against the blackboard framing.

A census needs these numbers of its primes only.  The Gauss linking integral
is bilinear in the two 1-cycles and a k-fold cover is k times its prime as a
cycle (Rolfsen, *Knots and Links*, ch. 5D), so lk(P^a, Q^b) = a b lk(P, Q);
the pushoff of P^k along the global frame is k times that of P, so
sl(P^k) = k^2 sl(P).  Inside a ``cz.prime_table`` block each prime is traced,
self-linked and linked with each other prime once.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import kernels
from .contact import complement_basis, project_to_sigma, xi_frame
from .cz import prime_data, prime_key
from .errors import (InconsistencyError, PoleSelectionError, ProximityError,
                     ReebAtlasError, ResolutionError, raised)
# the batched tracer, under the name perfbench's tracer spans
from .orbits import trace_orbits as trace_orbit

__all__ = [
    "KnotVerdict",
    "prime_traces",
    "prime_trace",
    "stereo_project",
    "pick_pole",
    "stereo_pair",
    "linking_number",
    "crossing_linking",
    "cover_linking",
    "linking_checks",
    "SelfLinking",
    "self_linking",
    "cover_self_linking",
    "self_linking_checks",
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
# pushoff size of the self-linking number's Gauss sum
_PUSHOFF = 1e-2
# largest step of the pushoff's angle against the blackboard frame for the
# twist of a projection direction to count
_TWIST_STEP = 0.5
# shadow segments this close to parallel (relative to their lengths) whose
# padded boxes meet make a projection non-generic
_TANGENT_TOL = 1e-9
# rows of segments per band of the crossing scan
_BAND = 64
# padding of the segment boxes that cull the crossing scan, relative to the
# shadows' extent: far above the rounding error of a crossing's position
# (``_crossing_scan``)
_BOX_PAD = 1e-5


# ---------------------------------------------------------------------------
# stereographic projection with a pinned orientation
# ---------------------------------------------------------------------------

def _oriented_basis(pole):
    B = complement_basis(pole[None, :])
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

def stereo_pair(a, b):
    """Stereographic images of two (N, 4) loops, from the first pole
    admissible for both; loops closer than ``_MIN_CURVE_DIST`` are rejected."""
    pa = np.ascontiguousarray(a)
    pb = np.ascontiguousarray(b)
    gap = kernels.min_cross_distance(pa, pb)
    if gap <= _MIN_CURVE_DIST:
        raise ProximityError(f"curves are {gap:.2e} apart (< {_MIN_CURVE_DIST:.0e})")
    pole = pick_pole([pa, pb])
    return (np.ascontiguousarray(stereo_project(pa, pole)),
            np.ascontiguousarray(stereo_project(pb, pole)))


def linking_number(a3, b3):
    """Integer linking number of two loops, given as their ``stereo_pair``
    images, by the exact Gauss sum (``kernels.gauss_linking_raw``: the
    vertex-based atan2 solid-angle sum).

    Returns (lk, raw_residual); a residual of 0.1 or more demands denser
    traces.
    """
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


def _shadow(p3, direction):
    """The shadow of a loop p3 (n, 3) on the plane normal to ``direction``:
    its vertices and segment vectors (2, n), the segments' lengths, and the
    heights of the vertices over the plane and their steps (n,)."""
    u1, u2, d = _plane_basis(direction)
    P = np.stack([p3 @ u1, p3 @ u2])
    r = np.roll(P, -1, axis=1) - P
    h = p3 @ d
    return P, r, np.linalg.norm(r, axis=0), h, np.roll(h, -1) - h


def _height(shadow, i, t):
    """Height of a ``_shadow``'s loop over the point at parameter t along
    segment i."""
    return shadow[3][i] + t * shadow[4][i]


def _boxes(P, pad):
    """Boxes (2, 2, n), lower and upper corners, of the segments of a loop's
    shadow P (2, n), padded by ``pad``."""
    Q = np.roll(P, -1, axis=1)
    return np.stack([np.minimum(P, Q) - pad, np.maximum(P, Q) + pad])


def _meet(a, b):
    """Whether boxes a and b (2, 2, ...) meet, elementwise."""
    return np.all((a[0] <= b[1]) & (b[0] <= a[1]), axis=0)


def _meeting_pairs(a_box, b_box):
    """Index pairs (i, j), in row-major order, of the ``_boxes`` a_box[..., i]
    and b_box[..., j] that meet.  Only the columns that meet the box of all
    of a's boxes are tested."""
    hull = np.stack([a_box[0].min(axis=-1), a_box[1].max(axis=-1)])
    cols = np.flatnonzero(_meet(hull[..., None], b_box))
    i, j = np.nonzero(_meet(a_box[..., None], b_box[..., None, cols]))
    return i, cols[j]


def _crossing_scan(a3, b3, direction):
    """Crossings of the shadows of loops a3 (n, 3) and b3 (m, 3) on the plane
    normal to ``direction``, in row-major order of their segments (i, j):
    (i, j, t, u, hi, hj, cross), the parameters along each segment, the
    heights there and the segments' cross product.  With ``b3 is a3`` these
    are the loop's self-crossings, and only the pairs j >= i + 2 other than
    the wrap-adjacent pair (0, n - 1) are tested.

    Returns None on a non-generic diagram: two segments whose padded boxes
    meet within _TANGENT_TOL of parallel (|cross| <= _TANGENT_TOL |r||s|),
    a crossing at a vertex or a crossing at equal heights.  Bands of _BAND
    rows i test the pairs whose segment boxes meet, among the columns whose
    boxes meet the box of the band's.  Each box is padded by ``_BOX_PAD`` of
    the shadows' extent D (the larger side of both), which covers rounding.
    Where |cross| > _TANGENT_TOL |r||s|, the computed t = (dq x s) / cross
    and u are off by about 2.2e-16 / _TANGENT_TOL (|dq| / |r| + 1) =
    2.2e-7 (|dq| / |r| + 1), a small multiple of it with every rounding
    counted, so the computed crossing is off by about
    2.2e-7 (|dq| + |r|) <= 6.2e-7 D, far less than the pad: a pair whose
    computed t and u lie in [0, 1) has boxes that meet, and a pair whose
    boxes do not meet cannot touch, so it cannot make the diagram
    non-generic.  Each pair's test is elementwise, the first band that
    meets a refusal returns None, and the pairs are gathered in row-major
    order, so the result is that of the full grid of pairs under the same
    rule.
    """
    own = b3 is a3
    sa = _shadow(a3, direction)
    sb = sa if own else _shadow(b3, direction)
    n = len(a3)
    pad = _BOX_PAD * np.ptp(np.hstack([sa[0], sb[0]]), axis=1).max()
    a_box = _boxes(sa[0], pad)
    b_box = a_box if own else _boxes(sb[0], pad)
    found = []
    for i0 in range(0, n, _BAND):
        j0 = i0 + 2 if own else 0
        i, j = _meeting_pairs(a_box[..., i0:i0 + _BAND], b_box[..., j0:])
        i, j = i + i0, j + j0
        if own:
            keep = (j >= i + 2) & ((i > 0) | (j < n - 1))
            i, j = i[keep], j[keep]
        (A, r, rn), (B, s, sn) = ([v[..., i] for v in sa[:3]],
                                  [v[..., j] for v in sb[:3]])
        cross = r[0] * s[1] - r[1] * s[0]
        if np.any(np.abs(cross) <= _TANGENT_TOL * (rn * sn)):
            return None  # near-parallel segments that may touch
        dqx, dqy = B[0] - A[0], B[1] - A[1]
        t = (dqx * s[1] - dqy * s[0]) / cross
        u = (dqx * r[1] - dqy * r[0]) / cross
        hit = (t >= 0.0) & (t < 1.0) & (u >= 0.0) & (u < 1.0)
        i, j, t, u, cross = i[hit], j[hit], t[hit], u[hit], cross[hit]
        if np.any(np.minimum(np.minimum(t, 1 - t), np.minimum(u, 1 - u))
                  < 1e-9):
            return None  # crossing at a vertex
        hi, hj = _height(sa, i, t), _height(sb, j, u)
        if np.any(np.abs(hi - hj) < 1e-12):
            return None  # crossing at equal heights
        found.append((i, j, t, u, hi, hj, cross))
    return tuple(map(np.concatenate, zip(*found)))


def _crossing_signs(ha, hb, cross):
    """Signed count of crossings of strands a and b at heights ha, hb whose
    shadows cross with cross product ``cross`` (a's segment x b's): each
    sign is that of over strand x under strand."""
    return int(np.sign(np.where(ha > hb, cross, -cross)).sum())


def crossing_linking(a3, b3):
    """Linking number of two loops, given as their ``stereo_pair`` images,
    as half the signed crossing count of a generic shadow."""
    for direction in _PLANE_DIRECTIONS:
        scan = _crossing_scan(a3, b3, direction)
        if scan is None:
            continue
        total = _crossing_signs(*scan[4:])
        if total % 2 != 0:
            continue  # odd sum signals a missed or double-counted crossing
        return total // 2
    raise ResolutionError("no generic projection direction found")


# ---------------------------------------------------------------------------
# self-linking number via pushoff along the global frame
# ---------------------------------------------------------------------------

class SelfLinking(NamedTuple):
    """Self-linking number of one loop by two routes: ``sl``, the Gauss sum
    of the loop and its pushoff, and its ``residual``; and the ``writhe``
    and ``twist`` of the diagram along ``direction`` that sum to it, all
    None when no projection direction admits them."""

    sl: int
    residual: float
    writhe: int | None
    twist: int | None
    direction: list | None


def self_linking(form, trace):
    """Self-linking number of an orbit from its (N, 4) trace: linking with
    its pushoff along ``xi_frame``'s e1, a global non-vanishing section of
    the contact plane, at size ``_PUSHOFF``, as a ``SelfLinking``.

    The Gauss sum (``linking_number``) is checked by the Calugareanu-White
    identity lk(K, K + eps V) = writhe + twist, which has no pushoff size,
    on the same ``stereo_pair`` images, projected once.  A pushoff too
    large for the curve, running through another strand, changes the Gauss
    sum but not the identity, so the routes disagree and
    ``InconsistencyError`` is raised.  A trace with no admissible direction
    (``_writhe_twist``), such as one running its curve twice, keeps the
    Gauss sum unchecked.
    """
    e1 = xi_frame(form, trace).e1
    pushed = project_to_sigma(form, trace + _PUSHOFF * e1)
    a3, b3 = stereo_pair(trace, pushed)
    sl, residual = linking_number(a3, b3)
    found = _writhe_twist(a3, b3)
    if found is None:
        return SelfLinking(sl, residual, None, None, None)
    writhe, twist, direction = found
    if writhe + twist != sl:
        raise InconsistencyError(
            f"Gauss sum gives sl {sl} but writhe {writhe} plus twist {twist} "
            f"gives {writhe + twist}")
    return SelfLinking(sl, residual, writhe, twist, direction.tolist())


def _writhe_twist(a3, b3):
    """(writhe, twist, direction) of a loop a3 (n, 3) framed by the pushoff
    b3, from the first of ``_PLANE_DIRECTIONS`` whose twist steps are all
    below ``_TWIST_STEP`` and whose shadow is generic, or None.  The writhe,
    the signed self-crossing sum of the shadow, is the linking number of the
    blackboard framing, and the twist counts the pushoff's turns against
    that framing.  The O(n) twist is tried before the O(n^2) crossing
    scan."""
    for direction in _PLANE_DIRECTIONS:
        twist = _twist(a3, b3, direction)
        if twist is None:
            continue
        scan = _crossing_scan(a3, a3, direction)
        if scan is None:
            continue
        return _crossing_signs(*scan[4:]), twist, direction
    return None


def _twist(a3, b3, direction):
    """Turns of the pushoff V = b3 - a3 about the loop's tangent T, its
    angle normal to T measured from the blackboard normal d x T towards
    T x (d x T), summed over the wrapped steps; None if a step reaches
    ``_TWIST_STEP``, where the blackboard frame flips at a cusp of the
    shadow (T along d) or V runs along T."""
    d = direction / np.linalg.norm(direction)
    T = np.roll(a3, -1, axis=0) - np.roll(a3, 1, axis=0)
    T /= np.linalg.norm(T, axis=1, keepdims=True)
    n1 = np.cross(d, T)
    n2 = np.cross(T, n1)
    V = b3 - a3
    angle = np.arctan2(np.vecdot(V, n2), np.vecdot(V, n1))
    steps = np.remainder(np.roll(angle, -1) - angle + np.pi, 2 * np.pi) - np.pi
    if np.abs(steps).max() >= _TWIST_STEP:
        return None
    return int(np.rint(steps.sum() / (2 * np.pi)))


# ---------------------------------------------------------------------------
# census linking data from the primes
# ---------------------------------------------------------------------------

def prime_traces(form, orbits):
    """Per orbit, its prime's 512-point ``orbits.trace_orbits`` entry, or the
    ``ReebAtlasError`` that stopped it.  The primes not yet traced in the
    open ``prime_table`` block are traced together."""
    primes = {prime_key(o): (prime_data(o), o) for o in orbits}
    todo = [(p, replace(o, multiplicity=1))
            for p, o in primes.values() if p.trace is None]
    if todo:
        traces = trace_orbit(form, [o for _, o in todo], 512)
        for (p, _), trace in zip(todo, traces):
            p.trace = trace
    return [primes[prime_key(o)][0].trace for o in orbits]


def prime_trace(form, orbit):
    """The orbit's entry of ``prime_traces``; raises the error that stopped
    the trace."""
    return raised(prime_traces(form, [orbit]))[0]


def _checked_linking(a, b):
    """(lk, residual, crossing) of two loops, both routes on one
    ``stereo_pair``: the Gauss sum, its residual, and the crossing count's
    linking number, or the ``ResolutionError`` of a crossing count that
    found no generic direction.  A crossing count that disagrees raises
    ``InconsistencyError``."""
    a3, b3 = stereo_pair(a, b)
    lk, residual = linking_number(a3, b3)
    try:
        crossing = crossing_linking(a3, b3)
    except ResolutionError as exc:
        return lk, residual, exc
    if crossing != lk:
        raise InconsistencyError(
            f"Gauss sum gives lk {lk} but the crossing count gives {crossing}")
    return lk, residual, crossing


def cover_linking(form, a, b):
    """lk(P^a, Q^b) = a b lk(P, Q) of two census orbits, and a b times the
    prime pair's Gauss residual, from the prime pair's one Gauss sum, which
    the crossing count cross-checks.  Two covers of one prime run along one
    curve, so they have no linking number (``ProximityError``)."""
    pa, pb = prime_data(a), prime_data(b)
    if prime_key(a) == prime_key(b):
        raise ProximityError(
            f"curves are {0.0:.2e} apart (< {_MIN_CURVE_DIST:.0e})")
    rec = pa.links.get(prime_key(b), pb.links.get(prime_key(a)))
    if rec is None:
        try:
            rec = _checked_linking(prime_trace(form, a), prime_trace(form, b))
        except ReebAtlasError as exc:
            rec = exc
        pa.links[prime_key(b)] = rec
    lk, residual, _ = raised([rec])[0]
    m = a.multiplicity * b.multiplicity
    return m * lk, m * residual


def cover_self_linking(form, orbit):
    """sl(P^k) = k^2 sl(P) of a census orbit, from its prime's one
    ``self_linking``."""
    prime = prime_data(orbit)
    if prime.sl is None:
        try:
            prime.sl = self_linking(form, prime_trace(form, orbit))
        except ReebAtlasError as exc:
            prime.sl = exc
    return orbit.multiplicity ** 2 * raised([prime.sl])[0].sl


def _first_entries(orbits):
    """Per prime of a census, the census id of its first entry and its
    ``prime_data``, in census order."""
    first = {}
    for i, orbit in enumerate(orbits):
        first.setdefault(prime_key(orbit), (i, prime_data(orbit)))
    return first


def linking_checks(orbits):
    """Sidecar record of the open block's linking work on a census: the
    primes traced; per prime pair linked, by the census ids of the primes'
    first entries, the Gauss and the crossing linking numbers, or the error;
    and the pairs the crossing count left unchecked, with the reason."""
    first = _first_entries(orbits)
    pairs, unchecked = [], []
    for a, prime in first.values():
        for key, rec in prime.links.items():
            row = {"a": a, "b": first[key][0]}
            if isinstance(rec, ReebAtlasError):
                row["error"] = f"{type(rec).__name__}: {rec}"
            elif isinstance(rec[2], ReebAtlasError):
                row.update(gauss_lk=rec[0], crossing_lk=None)
                unchecked.append(dict(row, reason=str(rec[2])))
            else:
                row.update(gauss_lk=rec[0], crossing_lk=rec[2])
            pairs.append(row)
    traced = sum(isinstance(p.trace, np.ndarray) for _, p in first.values())
    return {"primes_traced": traced, "prime_pairs": pairs,
            "unchecked_pairs": unchecked}


def self_linking_checks(orbits):
    """Sidecar record of the open block's self-linking work on a census: per
    prime self-linked, by the census id of its first entry, both routes of
    its ``self_linking`` (the Gauss sum's sl and residual; the writhe, twist
    and projection direction, None if no direction admitted them), or the
    error."""
    rows = []
    for i, prime in _first_entries(orbits).values():
        rec = prime.sl
        if rec is None:
            continue
        row = {"orbit": i}
        if isinstance(rec, ReebAtlasError):
            row["error"] = f"{type(rec).__name__}: {rec}"
        else:
            row.update(gauss_sl=rec.sl, gauss_residual=float(rec.residual),
                       writhe=rec.writhe, twist=rec.twist,
                       direction=rec.direction)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# unknot certification by diagram reduction
# ---------------------------------------------------------------------------

@dataclass
class KnotVerdict:
    """Either a certified unknot or an abstention; never claims knottedness."""

    status: str  # "certified_unknot" | "unknown"
    crossing_count_after_reduction: int


def _self_crossings(p3, direction):
    """Crossing word of one loop's shadow: list of (cid, over) in arc order,
    or None on a non-generic projection (``_crossing_scan``)."""
    scan = _crossing_scan(p3, p3, direction)
    if scan is None:
        return None
    ii, jj, t, u, hi, hj, _ = scan
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

    The loop is projected from ``pick_pole``'s pole, as every linking route
    projects.  Each generic shadow's PL diagram is simplified by kink and
    bigon removal; zero remaining crossings certifies the unknot, and
    otherwise the fewest remaining crossings are reported as unknown.
    """
    pts = np.asarray(trace)
    p3 = stereo_project(pts, pick_pole([pts]))
    counts = []
    for direction in _PLANE_DIRECTIONS:
        word = _self_crossings(p3, direction)
        if word is None:
            continue
        counts.append(len(_reduce_word(word)) // 2)
        if counts[-1] == 0:
            return KnotVerdict(status="certified_unknot",
                               crossing_count_after_reduction=0)
    if not counts:
        raise PoleSelectionError(
            "no generic projection found for the unknot check"
        )
    return KnotVerdict(status="unknown",
                       crossing_count_after_reduction=min(counts))
