"""Independent numeric constructions used as oracles by the tests.

Everything here works on raw numpy arrays with its own bisection loops and
trigonometry, deliberately avoiding the package's closed forms, so agreement
is evidence rather than tautology.
"""

import math
from dataclasses import dataclass

import numpy as np


def mdot(u, w):
    return -u[0] * w[0] + u[1] * w[1] + u[2] * w[2]


def raw_dist(p, q):
    return math.acosh(max(1.0, -mdot(p, q)))


def rot_z(phi):
    """Rotation by phi about the origin."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def x_translation(length):
    """Translation by `length` along the x1-axis geodesic."""
    c, s = math.cosh(length), math.sinh(length)
    return np.array([[c, s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def point_at(distance, angle):
    """Point at the given distance from the origin, in the given direction."""
    return np.array([math.cosh(distance), math.sinh(distance) * math.cos(angle),
                     math.sinh(distance) * math.sin(angle)])


def regular_polygon_inradius_oracle(n: int, interior_angle: float) -> float:
    """Inradius of the regular n-gon by bisection on the corner angle.

    The side at inradius r, orthogonal to the x-axis, has pole
    (sinh r, cosh r, 0); the adjacent side is its rotation by 2*pi/n.  The
    two sides meet at the corner with cos(angle) = -<pole1, pole2> once the
    poles are oriented consistently; bisection matches that to the target
    interior angle.  Larger r spreads the sides apart and shrinks the angle.
    """

    def corner_cos(r: float) -> float:
        pole = np.array([math.sinh(r), math.cosh(r), 0.0])
        other = rot_z(2.0 * math.pi / n) @ pole
        return -mdot(pole, other)

    lo, hi = 1e-6, 20.0
    target = math.cos(interior_angle)
    # corner_cos crosses the target from below as r grows
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if corner_cos(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def triangle_area_from_sides(a, b, c):
    """Angle defect pi - (A+B+C) with angles from the hyperbolic law of cosines."""
    def angle(opposite, s1, s2):
        num = math.cosh(s1) * math.cosh(s2) - math.cosh(opposite)
        den = math.sinh(s1) * math.sinh(s2)
        return math.acos(max(-1.0, min(1.0, num / den)))

    return math.pi - (angle(a, b, c) + angle(b, c, a) + angle(c, a, b))


def polygon_area_fan_oracle(corner_coords) -> float:
    """Area of a convex polygon as a fan of triangles from corner 0, each
    measured by its angle defect with law-of-cosines angles."""
    pts = [np.asarray(getattr(p, "coords", p), dtype=float) for p in corner_coords]
    total = 0.0
    for k in range(1, len(pts) - 1):
        a = raw_dist(pts[k], pts[k + 1])
        b = raw_dist(pts[0], pts[k + 1])
        c = raw_dist(pts[0], pts[k])
        total += triangle_area_from_sides(a, b, c)
    return total


def subdivide(m, k: int):
    """k-fold subdivision of a marked map.

    Every edge splits into k pieces of weight k*w, the deck word rides on the
    last piece, and the k-1 new vertices sit evenly along the lifted geodesic
    (numbered after the old ones, edge by edge).  Pieces of one geodesic stay
    balanced, so the subdivision of a harmonic map is harmonic with the same
    energy.
    """
    from graphuniform import HPoint, MarkedMap, WeightedGraph

    lifts = [p.coords for p in m.vertex_lifts]
    edges, words = [], []
    for e, u, v, w, cls in m.graph.unoriented_edges():
        p, q = lifts[u], deck_matrix(m, e) @ lifts[v]
        d = raw_dist(p, q)
        chain = [u]
        for j in range(1, k):
            lifts.append((math.sinh((1.0 - j / k) * d) * p + math.sinh(j / k * d) * q) / math.sinh(d))
            chain.append(len(lifts) - 1)
        chain.append(v)
        for i, (a, b) in enumerate(zip(chain, chain[1:])):
            edges.append((a, b, k * w, cls))
            words.append(m.deck_words[e] if i == k - 1 else ())
    graph = WeightedGraph.from_edges(len(lifts), edges)
    return MarkedMap.from_unoriented_words(m.surface, graph, tuple(HPoint(x) for x in lifts), tuple(words))


def polarized_hvp(m, x, v):
    """Riemannian Hessian of the energy at lifts x applied to the tangent
    field v, one half-edge at a time in the map's own half-edge order.

    Per half-edge from p to q = deck * x[terminus] (length ell, unit pole n
    of the geodesic, v0 = v[origin], v1 = deck * v[terminus]) the polarized
    second variation is 2w [v0 - v1 - <p, v1> T + (a <v0, n> - b <v1, n>) n]
    with T = (p + q) / (1 - <p, q>), a = ell coth ell - 1 and
    b = ell / sinh ell - 1; the sum at each vertex is projected onto the
    tangent plane there.
    """
    g = m.graph
    out = np.zeros_like(x)
    for e in range(g.half_edge_count):
        deck = deck_matrix(m, e)
        o, t = g.origins[e], g.terminus(e)
        p, q = x[o], deck @ x[t]
        v0, v1 = v[o], deck @ v[t]
        ell = 2.0 * math.asinh(0.5 * math.sqrt(max(0.0, mdot(p - q, p - q))))
        c = np.cross(p, q)
        pole = np.array([-c[0], c[1], c[2]])
        size = math.sqrt(max(0.0, mdot(pole, pole)))
        if size > 0.0:
            pole = pole / size
        sinhc = math.sinh(ell) / ell if ell > 1e-8 else 1.0 + ell * ell / 6.0
        a = math.cosh(ell) / sinhc - 1.0
        b = 1.0 / sinhc - 1.0
        transport = (p + q) / (1.0 - mdot(p, q))
        terms = v0 - v1 - mdot(p, v1) * transport + (a * mdot(v0, pole) - b * mdot(v1, pole)) * pole
        out[o] += 2.0 * g.weights[e] * terms
    return np.array([w + mdot(w, p) * p for w, p in zip(out, x)])


def hessian_fd_columns(m, h):
    """The finite-difference Hessian of `solver.hessian_fd`, one coordinate
    column at a time: central differences of -2 * residual at the lifts moved
    by +h and -h along one tangent basis vector, read in the tangent bases of
    the moved lifts, then symmetrized."""
    from graphuniform.hyperboloid import exp_arr, minkowski_dot, tangent_basis_arr

    x = m.lifts
    bases = tangent_basis_arr(x)
    dim = 2 * len(x)
    hess = np.zeros((dim, dim))
    for i in range(dim):
        step = np.zeros_like(x)
        step[i // 2] = h * bases[i // 2, i % 2]
        grads = []
        for sign in (1.0, -1.0):
            moved = exp_arr(x, sign * step)
            grad = -2.0 * m.edges.residual(moved)
            grads.append(minkowski_dot(grad[:, None, :], tangent_basis_arr(moved)).ravel())
        hess[:, i] = (grads[0] - grads[1]) / (2.0 * h)
    return 0.5 * (hess + hess.T)


def dense_hessian(hessian, x, bases):
    """The (2V, 2V) matrix of a `maps.Hessian` built at lifts x (V, 3) in the
    coordinates of the orthonormal tangent bases (V, 2, 3) there: entry
    (2v + i, 2u + j) is <bases[v, i], H bases[u, j]>.  The near blocks are
    read through the tangent projection P = I + x x^T J at their vertex, as
    <P bases[v, i], near bases[v, j]> (P is self-adjoint for the form, and
    applied to the bases it adds only their rounding off the tangent plane);
    its near 2x2 blocks go to (v, v) and its far blocks to (origin,
    terminus), in vertex order, by one bincount, so blocks that share a
    place (doubled edges, loops) add up."""
    edges = hessian.edges
    j = np.array([-1.0, 1.0, 1.0])
    left = bases * j
    right = bases.transpose(0, 2, 1)
    projected = bases + np.sum(bases * (x * j)[:, None, :], axis=-1, keepdims=True) * x[:, None, :]
    blocks = np.concatenate([(projected * j) @ hessian.near @ right,
                             left[edges.origins] @ (hessian.far @ edges.mats) @ right[edges.termini]])
    count = edges.vertex_count
    rows = np.concatenate([np.arange(count), edges.origins])
    cols = np.concatenate([np.arange(count), edges.termini])
    pair = np.arange(2)
    index = (2 * rows[:, None, None] + pair[:, None]) * (2 * count) + 2 * cols[:, None, None] + pair
    n = 2 * count
    return np.bincount(index.ravel(), weights=blocks.ravel(), minlength=n * n).reshape(n, n)


def symmetric_from_blocks(plan, diagonal, upper):
    """The (2V, 2V) matrix M + M^T in vertex order from the blocks that
    `Hessian.matrix` returns in the order of its `BlockPlan`: diagonal
    blocks D_b + D_b^T, superdiagonal blocks U_b over the leading columns of
    the next block, their transposes below, zeros elsewhere."""
    coords = plan.coordinates
    out = np.zeros((len(coords), len(coords)))
    start = 0
    for b, block in enumerate(diagonal):
        here = coords[start:start + len(block)]
        out[np.ix_(here, here)] = block + block.T
        start += len(block)
        if b < len(upper):
            ahead = coords[start:start + upper[b].shape[1]]
            out[np.ix_(here, ahead)] = upper[b]
            out[np.ix_(ahead, here)] = upper[b].T
    return out


def cg_solve(apply, rhs, bases, rtol):
    """Plain conjugate gradients for apply(s) = rhs on tangent fields (V, 3),
    run on their coordinates in the orthonormal tangent bases (V, 2, 3) until
    the residual is under rtol times the right-hand side.  Every product is
    taken on a field rebuilt from coordinates, so no rounding off the tangent
    planes reaches `apply`.  Returns the solution field and its relative
    residual."""
    def coords(u):
        return np.einsum("vi,vai->va", u * np.array([-1.0, 1.0, 1.0]), bases).ravel()

    def field(c):
        return np.einsum("va,vai->vi", c.reshape(-1, 2), bases)

    b = coords(rhs)
    c = np.zeros_like(b)
    res = b.copy()
    d = res.copy()
    rr = res @ res
    for _ in range(20 * b.size):
        hd = coords(apply(field(d)))
        alpha = rr / (d @ hd)
        c = c + alpha * d
        res = res - alpha * hd
        rr, rr_old = res @ res, rr
        if math.sqrt(rr) <= rtol * math.sqrt(b @ b):
            break
        d = res + (rr / rr_old) * d
    true_res = b - coords(apply(field(c)))
    return field(c), math.sqrt((true_res @ true_res) / (b @ b))


def reference_map(doc):
    """The map a well-formed map document describes, built a value at a
    time: float() of every coordinate, one Isometry per generator, one tuple
    per edge, side pairing and word.  A "gauge" isometry G conjugates each
    generator by `ld_conjugate` and moves each polygon corner by G."""
    from graphuniform import HPoint, Isometry, MarkedMap, SurfaceModel, WeightedGraph

    def rows(values):
        return np.array([[float(v) for v in row] for row in values])

    def words(values):
        return tuple(tuple(w) for w in values) if values is not None else None

    s, g = doc["surface"], doc["graph"]
    gens = [Isometry(rows(m)).matrix for m in s["generators"]]
    polygon = rows(s["polygon"]) if "polygon" in s else None
    if "gauge" in doc:  # the frame of the lifts: the surface conjugated by it
        gauge = Isometry(rows(doc["gauge"])).matrix
        gens = [ld_conjugate(gauge, m) for m in gens]
        if polygon is not None:
            polygon = np.array([gauge @ HPoint(p).coords for p in polygon])
    surface = SurfaceModel(s["genus"], np.array(gens), polygon,
                           words(s.get("side_pairs")), words(s.get("relator_words")))
    graph = WeightedGraph.from_edges(g["vertices"], [
        (e["from"], e["to"], float(e["weight"]), e.get("class", "edge")) for e in g["edges"]])
    return MarkedMap.from_unoriented_words(surface, graph, rows(doc["vertex_lifts"]), words(doc["edge_decks"]))


def gauged_document(doc, g):
    """Map document `doc` with a "gauge" isometry matrix g, as documents
    once carried a map's frame: the lifts moved by g, the surface as it is."""
    out = dict(doc, vertex_lifts=(np.array(doc["vertex_lifts"]) @ g.T).tolist())
    out["gauge"] = g.tolist()
    return out


def moved(m, g):
    """Map m moved by the isometry matrix g: every lift moved by g, on the
    surface conjugated by g, the words unchanged."""
    return m.with_surface(m.surface.conjugated(g), m.lifts @ g.T)


def ld_conjugate(g, m):
    """g m g^-1 for isometry matrices g and m, a value at a time in long
    double: (g m) first, each entry summed over k = 0, 1, 2 in turn, then
    times g^-1 = J g^T J."""
    j = (-1, 1, 1)
    g, m = g.astype(np.longdouble), m.astype(np.longdouble)
    gm = [[g[i, 0] * m[0, c] + g[i, 1] * m[1, c] + g[i, 2] * m[2, c] for c in range(3)] for i in range(3)]
    inverse = [[g[c, r] * (j[r] * j[c]) for c in range(3)] for r in range(3)]
    return np.array([[gm[i][0] * inverse[0][c] + gm[i][1] * inverse[1][c] + gm[i][2] * inverse[2][c]
                      for c in range(3)] for i in range(3)], dtype=np.longdouble)


def _ld_unit(v, sign):
    """v over the square root of sign * <v, v>, in long double."""
    return v / np.sqrt(sign * (-v[0] * v[0] + v[1] * v[1] + v[2] * v[2]))


def _ld_minkowski_cross(u, w):
    return np.array([u[2] * w[1] - u[1] * w[2], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0]])


def ld_right_angled_walk(lengths):
    """Corners (n, 3) of the left-turning right-angled polygon traced from
    the origin, the way the walk was first written: on long-double arrays,
    a step along length L to q = unit point of cosh L p + sinh L u, its
    direction there d = unit vector of sinh L p + cosh L u, then a left turn
    by pi/2 to u = unit vector of q x d.  The library's scalar walk must
    give these bits; this one has no closure check."""
    p = np.array([1, 0, 0], dtype=np.longdouble)
    u = np.array([0, 1, 0], dtype=np.longdouble)
    corners = [p]
    for L in lengths:
        q = _ld_unit(np.cosh(L) * p + np.sinh(L) * u, -1)
        d = _ld_unit(np.sinh(L) * p + np.cosh(L) * u, 1)
        u = _ld_unit(_ld_minkowski_cross(q, d), 1)
        p = q
        corners.append(p)
    return np.array(corners[:-1])


def ld_hexagon_walk(s):
    """The array walk of the right-angled hexagon with sides t(s), s, ..."""
    s_ld = np.longdouble(s)
    t_ld = 2 * np.arcsinh(0.5 / np.sinh(s_ld / 2))
    return ld_right_angled_walk([t_ld, s_ld] * 3)


def ld_frame(c):
    """The canonical Minkowski frame at the long-double point c, on arrays:
    columns c, the x1-axis projected to the tangent plane at c and
    normalized, and c x e1 normalized."""
    a = np.array([0, 1, 0], dtype=np.longdouble)
    e1 = _ld_unit(a + (-a[0] * c[0] + a[1] * c[1] + a[2] * c[2]) * c, 1)
    e2 = _ld_unit(_ld_minkowski_cross(c, e1), 1)
    return np.column_stack([c, e1, e2])


def reference_hexagon(s, weights=(1.0, 1.0)):
    """The `hexagon-genus2` build at seam s the way it was first written:
    the hexagon by the array walk, one long-double reflection per hexagon
    side, each reflection word folded over them by `reduce`, then one
    `SurfaceModel.word_matrix` product per half-edge.  Returns the
    generators, the long-double generators they round, the polygon, the
    reference lifts, the deck matrices in `EdgeData` row order, the
    reference energy by the float64 kernel, and by the same kernel on
    long-double deck matrices (multiplied one letter at a time) and lifts;
    the family must build all of them bit for bit."""
    from functools import reduce

    from graphuniform.graphs import cycle_with_doubled_edges
    from graphuniform.hyperboloid import minkowski_dot
    from graphuniform.maps import EdgeData
    from graphuniform.surfaces import (
        _EYE_LD, _GENUS2_REFLECTION_WORDS, _GENUS2_RELATORS, _GENUS2_SIDE_PAIRS, _J_LD, SurfaceModel,
        _ld_pole_through, _ld_reflection, genus2_deck_words)

    v = ld_hexagon_walk(s)
    refl = [_ld_reflection(_ld_pole_through(v[i], v[(i + 1) % 6])) for i in range(6)]
    frame = ld_frame(v[1])
    u = frame.T * _J_LD[:, None] * _J_LD
    raw = np.array([reduce(np.matmul, [refl[i] for i in word]) for word in _GENUS2_REFLECTION_WORDS])
    wide = u @ raw @ frame
    gens = np.asarray(wide, dtype=float)
    tiles = zip((_EYE_LD, refl[0], refl[1] @ refl[0], refl[1]),
                ((2, 3, 4, 5, 0), (5, 4, 3, 2), (3, 4, 5, 0), (5, 4, 3)))
    polygon = np.asarray(np.concatenate([v[list(k)] @ m.T for m, k in tiles]) @ u.T, dtype=float)
    surface = SurfaceModel(2, gens, polygon, _GENUS2_SIDE_PAIRS, _GENUS2_RELATORS)
    lifts = np.asarray(v @ u.T, dtype=float)
    lifts = lifts / np.sqrt(-minkowski_dot(lifts, lifts))[:, None]  # normalized in float64

    graph = cycle_with_doubled_edges(6, *weights)
    words = [()] * graph.half_edge_count
    for (e, *_rest), word in zip(graph.unoriented_edges(), genus2_deck_words()):
        words[e] = word
        words[graph.reversals[e]] = tuple(-w for w in reversed(word))
    edges = EdgeData.build(graph, np.array([surface.word_matrix(word) for word in words]))
    letters = {k: m for k, m in enumerate(wide, 1)}
    letters.update({-k: m.T * _J_LD[:, None] * _J_LD for k, m in enumerate(wide, 1)})
    wide_edges = EdgeData.build(graph, np.array([reduce(np.matmul, [letters[w] for w in word], _EYE_LD)
                                                 for word in words]))
    return (surface.matrices, wide, surface.polygon, lifts, edges.mats, edges.energy(lifts),
            wide_edges.energy(lifts.astype(np.longdouble)))


# --------------------------------------------------------------------------
# one-edge and one-coordinate references for the library's batched code


def deck_matrix(m, e):
    """The deck matrix of half-edge e of map m."""
    return m.edges.mats[np.flatnonzero(m.edges.half_edges == e)[0]]


def ld_energy(m):
    """Sum over `unoriented_edges()`, in their order, of w ell^2 in long
    double: each deck word multiplied one letter at a time from the
    surface's long-double generators, and ell from the chord
    c = |p - deck q| as 2 asinh(c / 2), all rounded to float64 only at the
    end.  (The arccosh of -<p, deck q> would differ by the lifts' float64
    distance from the sheet, up to 5e-15 of the energy.)"""
    from functools import reduce

    j = np.array([-1, 1, 1], dtype=np.longdouble)
    letters = {}
    for k, g in enumerate(m.surface._table_ld[1:len(m.surface.matrices) + 1], 1):
        letters[k], letters[-k] = g, g.T * j[:, None] * j
    x = m.lifts.astype(np.longdouble)
    total = np.longdouble(0)
    for e, o, t, w, _ in m.graph.unoriented_edges():
        q = reduce(np.matmul, [letters[k] for k in m.deck_words[e]], np.eye(3, dtype=np.longdouble)) @ x[t]
        chord = np.sqrt((j * (x[o] - q) ** 2).sum())
        total += np.longdouble(w) * (2 * np.arcsinh(chord / 2)) ** 2
    return float(total)


def edge_segment(m, e):
    """Endpoints of the lifted half-edge e of map m; the far end is put back
    on the sheet after the deck matrix moves it."""
    from graphuniform.hyperboloid import points_arr

    p = m.lifts[m.graph.origins[e]]
    q = deck_matrix(m, e) @ m.lifts[m.graph.terminus(e)]
    return p, points_arr(q)


def _unit(w):
    from graphuniform.hyperboloid import minkowski_dot

    return w / np.sqrt(minkowski_dot(w, w))[..., None]


@dataclass(frozen=True)
class JacobiField:
    """Variation field along one lifted edge, t in [0, 1], edge speed ell.

    Tangential component (c + d*t) * u(t); normal component
    (a*cosh(ell*t) + b*sinh(ell*t)) * n(t), with (u, n) the transported
    frame of the edge geodesic, starting from the unit tangent `unit` at
    the point `start`.
    """

    length: float
    c: float
    d: float
    a: float
    b: float
    start: np.ndarray
    unit: np.ndarray
    boundary_error: float

    def value_at(self, t):
        """(point, field vector there) at edge parameter t in [0, 1]."""
        from graphuniform.hyperboloid import _project_tangent_arr, minkowski_cross, points_arr

        tau = self.length * t
        p, u = self.start, self.unit
        point = points_arr(math.cosh(tau) * p + math.sinh(tau) * u)
        u_t = _project_tangent_arr(point, math.sinh(tau) * p + math.cosh(tau) * u)
        n_t = _unit(minkowski_cross(point, u_t))
        tangential = (self.c + self.d * t) * u_t
        normal = (self.a * math.cosh(tau) + self.b * math.sinh(tau)) * n_t
        return point, _project_tangent_arr(point, tangential + normal)


def jacobi_solve_segment(p, q, v0, v1):
    """Jacobi field along the geodesic p -> q with endpoint values v0, v1."""
    from graphuniform.errors import DegenerateEdgeError
    from graphuniform.hyperboloid import _project_tangent_arr, dist_arr, log_arr, minkowski_cross, minkowski_dot

    ell = float(dist_arr(p, q))
    if ell < 1e-12:
        raise DegenerateEdgeError("jacobi field needs an edge of positive length")
    u0 = log_arr(p, q) / ell
    n0 = _unit(minkowski_cross(p, u0))
    u1 = _project_tangent_arr(q, math.sinh(ell) * p + math.cosh(ell) * u0)
    n1 = _unit(minkowski_cross(q, u1))

    vt0 = float(minkowski_dot(v0, u0))
    vn0 = float(minkowski_dot(v0, n0))
    vt1 = float(minkowski_dot(v1, u1))
    vn1 = float(minkowski_dot(v1, n1))

    c, d = vt0, vt1 - vt0
    a = vn0
    b = (vn1 - a * math.cosh(ell)) / math.sinh(ell)

    err0 = np.max(np.abs((c * u0 + a * n0) - v0))
    rec1 = (c + d) * u1 + (a * math.cosh(ell) + b * math.sinh(ell)) * n1
    err1 = np.max(np.abs(rec1 - v1))
    return JacobiField(ell, c, d, a, b, p, u0, float(max(err0, err1)))


def jacobi_solve(m, e, v):
    """The Jacobi field of the variation v, a (V, 3) array of tangent
    vectors at the lifts, along the lifted half-edge e: the origin vertex's
    vector at one end, the terminus vector pushed through the deck matrix,
    projected at edge_segment's far end, at the other."""
    from graphuniform.hyperboloid import _project_tangent_arr

    p, q = edge_segment(m, e)
    v1 = _project_tangent_arr(q, deck_matrix(m, e) @ v[m.graph.terminus(e)])
    return jacobi_solve_segment(p, q, v[m.graph.origins[e]], v1)


def jacobi_second_variation(m, v):
    """The second variation of the energy along v, summed one half-edge at a
    time from the closed form of its Jacobi field: per half-edge
    d^2 + (ell/2) ((a^2 + b^2) sinh 2ell + 2ab (cosh 2ell - 1)), the
    integral of |grad_T V|^2 + |V_normal|^2 |T|^2 over the edge."""
    total = 0.0
    for e in range(m.graph.half_edge_count):
        f = jacobi_solve(m, e, v)
        ell = f.length
        total += m.graph.weights[e] * (f.d * f.d + (ell / 2.0) * (
            (f.a * f.a + f.b * f.b) * math.sinh(2.0 * ell) + 2.0 * f.a * f.b * (math.cosh(2.0 * ell) - 1.0)))
    return total


def hessian_form(m, v):
    """<v, H v> for the solver's Hessian H at the map's lifts: the second
    variation of the energy along the vertex-exponential curves of v."""
    from graphuniform.hyperboloid import minkowski_dot

    return float(np.sum(minkowski_dot(v, m.edges.hessian(m.lifts)(v))))


def second_variation_fd(m, v, h=1e-4):
    """Central second difference of the energy along the variation v."""
    from graphuniform.maps import energy
    from graphuniform.variations import energy_along

    return (energy_along(m, v, h) - 2.0 * energy(m) + energy_along(m, v, -h)) / (h * h)


def fd_gradient(m, h=1e-5):
    """Central finite-difference energy gradient in the orthonormal
    tangent_basis_arr coordinates (2 per vertex), one coordinate at a time."""
    from graphuniform.hyperboloid import exp_arr, tangent_basis_arr

    x = m.lifts
    bases = tangent_basis_arr(x)
    grad = np.zeros(2 * len(x))
    for i in range(len(grad)):
        step = np.zeros_like(x)
        step[i // 2] = h * bases[i // 2, i % 2]
        grad[i] = (m.edges.energy(exp_arr(x, step)) - m.edges.energy(exp_arr(x, -step))) / (2.0 * h)
    return grad


def rebase_vertex(m, v, word):
    """Map m with the lift of v replaced by its translate under `word` and
    the deck words of the incident edges fixed up, so that the map, and its
    energy, are unchanged."""
    from graphuniform.maps import MarkedMap

    word = tuple(word)
    gamma = m.surface.word_matrix(word)
    lifts = m.lifts.copy()
    lifts[v] = gamma @ lifts[v]
    inv = tuple(-w for w in reversed(word))
    new_words = []
    for e in range(m.graph.half_edge_count):
        w = m.deck_words[e]
        if m.graph.origins[e] == v:
            w = word + w
        if m.graph.terminus(e) == v:
            w = w + inv
        new_words.append(w)
    return MarkedMap(m.surface, m.graph, lifts, tuple(new_words))


def component_count(graph):
    """Connected components of a WeightedGraph, by union-find over its edges."""
    parent = list(range(graph.vertex_count))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for _e, u, v, _w, _cls in graph.unoriented_edges():
        parent[root(u)] = root(v)
    return len({root(v) for v in range(graph.vertex_count)})
