"""Planar cell complex of a line arrangement, bounded complex and links.

The plane stratified by an arrangement decomposes into vertices (pairwise
intersection points), edges (maximal pieces of lines between consecutive
vertices: segments, rays, or whole vertex-free lines) and open convex faces.
The complex is stored as its rotation system (J. Edmonds, Notices AMS 1960;
B. Mohar and C. Thomassen, Graphs on Surfaces, 2001): the germs of edges
around each vertex in ccw order, and for each segment germ the vertex and
position at which it arrives.  A sector (v, i) is the wedge ccw of germ i
at v; faces are the orbits of the walk that follows germ i to the vertex w
where it arrives as germ j and turns to the sector (w, j - 1) clockwise of
it.  A bounded face is a closed orbit, an unbounded face the chain from
the sector clockwise of its inward ray to its outward ray.  Orientation is
read from the normal form: every line is stored with the first nonzero of
(a, b) equal to 1, so the vertices along a line are ordered by their
coordinates and the germs around a vertex by the line's b, with no
products and no trigonometry.  The germ sort reads b as an int: its rank
among the distinct b values of the arrangement, found by one sort of at
most n scalars.

Each face stands for a pair of antipodal chambers of the cone over the
arrangement; their walls are the face's boundary lines plus the plane at
infinity when the face reaches infinity along more than a point.

The bounded complex keeps every vertex, the segment edges and the bounded
faces; ids are deterministic: vertices sorted lexicographically by
coordinates, bounded faces by their sorted vertex-id lists.  Its corners
are the sectors whose face is bounded.

A vertex link lists the incident bounded edges in angular order; two
angularly consecutive edges are joined exactly when the face between them is
bounded, and that link edge is labelled by the corner (vertex, face) of that
sector, as its index in ``gamma.corners``.  Links are cycles (all 2m germs
bounded with all 2m sector faces bounded), paths, or in principle several
paths; disconnected links never occur in the inputs the package was written
for, so they are flagged with a warning and handled per component.

The automorphisms of the complex, read as maps of the rotation system,
act on the corners; ``corner_automorphisms`` lists those corner
permutations as tuples of indices into ``gamma.corners``, the one form
``falk.solve`` reduces the weight test by.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .arrangement import ArrangementError, LineArrangement, intersection_points

SEGMENT = "segment"
RAY = "ray"
FULL_LINE = "line"

CYCLE = "cycle"
PATH = "path"
MULTIPATH = "multipath"


@dataclass(frozen=True)
class Vertex:
    id: int
    point: tuple
    lines: frozenset

    @property
    def multiplicity(self) -> int:
        return len(self.lines)


@dataclass(frozen=True)
class EdgeCell:
    """A maximal open piece of a line: segment between two vertices, ray
    from one vertex, or an entire vertex-free line."""

    id: int
    line: int
    kind: str
    v0: int | None  # segment: tail (along the line direction); ray: base
    v1: int | None  # segment: head

    @property
    def bounded(self) -> bool:
        return self.kind == SEGMENT


@dataclass(frozen=True)
class FaceCell:
    """An open convex 2-cell; boundary cycles run counterclockwise."""

    id: int
    bounded: bool
    vertex_ids: tuple  # finite boundary vertices in walk order
    edge_ids: tuple  # boundary edges in walk order
    boundary_lines: frozenset

    @property
    def size(self) -> int:
        """d(f): the number of vertices in the closure of the face."""
        return len(self.vertex_ids)


@dataclass(frozen=True, order=True)
class Corner:
    """A vertex together with a bounded face whose closure contains it;
    corners sort by vertex, then face."""

    vertex: int
    face: int


class CellComplex:
    """The full stratification, including unbounded edges and faces.

    Per vertex it keeps the rotation system: the germ ring ``germs``,
    ``rotation`` (where each segment germ arrives) and the face in each
    sector, ``sectors``."""

    def __init__(self, arrangement, vertices, edges, faces, germs, rotation,
                 sectors):
        self.arrangement = arrangement
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.faces = tuple(faces)
        # germs[v] = edge ids around vertex v in ccw angular order (2m of them)
        self.germs = germs
        # rotation[v][i] = (w, j) when germ i at v is a segment arriving at
        # w as w's germ j; None for a ray
        self.rotation = rotation
        # sectors[v][i] = id of the face in the sector ccw of germ i at v
        self.sectors = sectors

    def bounded_faces(self):
        return tuple(f for f in self.faces if f.bounded)


def build_complex(arr: LineArrangement) -> CellComplex:
    """Stratify the plane by the arrangement; needs at least one line."""
    n = len(arr.lines)
    if n < 1:
        raise ArrangementError("cell complex needs at least one line")

    points = intersection_points(arr)
    if not points:
        return _parallel_pencil_complex(arr)

    vertices = [Vertex(vid, p, lines)
                for vid, (p, lines) in enumerate(points.items())]

    # order the vertices of each line along its direction (-b, a).  Vertex
    # ids follow the lexicographic (x, y) order of the points, so each list
    # below is in ascending (x, y) order.  On a steep line (a = 1) the
    # direction is (-b, 1): x = c - b*y falls as y grows when b > 0, rises
    # when b < 0, and when b = 0 (vertical) the order is by y alone, so
    # ascending ids run along the direction unless b > 0.  On a horizontal
    # line (a = 0, b = 1) the direction is (-1, 0), against ascending x.
    on_line = {i: [] for i in range(n)}
    for v in vertices:
        for i in v.lines:
            on_line[i].append(v.id)
    for i in range(n):
        if arr.lines[i].a == 0 or arr.lines[i].b > 0:
            on_line[i].reverse()

    edges = []
    # per vertex: (sort key, edge id, end), end 0 at the edge's v0, 1 at v1
    germ_keys = [[] for _ in vertices]

    def add_edge(line, kind, v0=None, v1=None):
        e = EdgeCell(len(edges), line, kind, v0, v1)
        edges.append(e)
        return e

    # a germ leaves forward along (-b, a) or backward; germs sort
    # counterclockwise from +x by (forward != steep, steep, rank of b).  The
    # first entry is the half plane (y > 0, or y = 0 < x, comes first);
    # within a half the angle of +-(-b, 1) grows with b, and a horizontal
    # germ, +-(-1, 0), opens its half.  The rank of b among the distinct b
    # values orders as b does, so the germ sort compares ints only
    b_rank = {b: r for r, b in enumerate(sorted({ln.b for ln in arr.lines}))}
    for i in range(n):
        steep = arr.lines[i].a != 0
        rank = b_rank[arr.lines[i].b]
        forward = (not steep, steep, rank)
        backward = (steep, steep, rank)
        vids = on_line[i]
        lead = add_edge(i, RAY, v0=vids[0])
        germ_keys[vids[0]].append((backward, lead.id, 0))
        for a, b in zip(vids, vids[1:]):
            seg = add_edge(i, SEGMENT, v0=a, v1=b)
            germ_keys[a].append((forward, seg.id, 0))
            germ_keys[b].append((backward, seg.id, 1))
        trail = add_edge(i, RAY, v0=vids[-1])
        germ_keys[vids[-1]].append((forward, trail.id, 0))

    # the rotation system: germ rings, and where each segment germ arrives
    ends = [[None, None] for _ in edges]  # (vertex, position) at v0, v1
    for vid, items in enumerate(germ_keys):
        items.sort()  # lines through one vertex have distinct (a, b)
        for pos, (_, eid, end) in enumerate(items):
            ends[eid][end] = (vid, pos)
    germs = [[eid for _, eid, _ in items] for items in germ_keys]
    rotation = [[ends[eid][1 - end] for _, eid, end in items]
                for items in germ_keys]

    # walk the faces over sectors (see the module docstring).  The sectors
    # clockwise of inward rays go first: each walks the whole chain of its
    # unbounded face, so the segment sectors left over close up as bounded
    # faces
    starts = [(e.v0, ends[e.id][0][1] - 1) for e in edges if e.kind == RAY]
    starts += [ends[e.id][end] for e in edges if e.kind == SEGMENT
               for end in (0, 1)]
    sectors = [[None] * len(ring) for ring in germs]
    records = []
    for v, i in starts:
        i %= len(germs[v])  # clockwise of a ray at position 0 wraps around
        if sectors[v][i] is not None:
            continue
        # the walk's edges, each with the vertex it runs into
        start, chain = (v, i), []
        while True:
            sectors[v][i] = len(records)
            step = rotation[v][i]
            chain.append((germs[v][i], step[0] if step else None))
            if step is None:
                break
            v, j = step
            i = (j - 1) % len(germs[v])
            if (v, i) == start:
                break
        bounded = step is not None
        if not bounded:  # the chain of an unbounded face opens inward
            v, i = start
            chain.insert(0, (germs[v][(i + 1) % len(germs[v])], v))
        records.append((bounded,
                        tuple(w for _, w in chain if w is not None),
                        tuple(eid for eid, _ in chain)))

    order = sorted(
        range(len(records)),
        key=lambda k: (not records[k][0],
                       tuple(sorted(records[k][1])),
                       tuple(sorted(records[k][2]))))
    new_id = [0] * len(records)
    faces = []
    for new, old in enumerate(order):
        new_id[old] = new
        bounded, vids, eids = records[old]
        faces.append(FaceCell(new, bounded, vids, eids,
                              frozenset(edges[e].line for e in eids)))
    sectors = [[new_id[k] for k in row] for row in sectors]

    return CellComplex(arr, vertices, edges, faces, germs, rotation, sectors)


def _parallel_pencil_complex(arr: LineArrangement) -> CellComplex:
    """No intersections at all: every line is parallel to every other.
    The faces are len(arr)+1 open strips/half-planes."""
    n = len(arr.lines)
    # all lines share the normalized normal; order them across the pencil
    order = sorted(range(n), key=lambda i: arr.lines[i].c)
    edges = [EdgeCell(eid, i, FULL_LINE, None, None)
             for eid, i in enumerate(order)]
    faces = []
    for k in range(n + 1):
        lines = []
        if k > 0:
            lines.append(order[k - 1])
        if k < n:
            lines.append(order[k])
        faces.append(FaceCell(k, False, (), tuple(
            e.id for e in edges if e.line in lines), frozenset(lines)))
    return CellComplex(arr, (), tuple(edges), tuple(faces), [], [], [])


@dataclass(frozen=True)
class LinkComponent:
    """One maximal run of the link: bounded edges in angular order, and in
    ``corners[p]`` the index in ``gamma.corners`` of the corner between
    edges p and p + 1 (cyclic for a full cycle)."""

    edges: tuple
    corners: tuple


@dataclass(frozen=True)
class Link:
    vertex: int
    multiplicity: int
    shape: str  # CYCLE, PATH or MULTIPATH
    components: tuple

    @property
    def length(self) -> int:
        """Number of link vertices (= incident bounded edges)."""
        return sum(len(c.edges) for c in self.components)


class BoundedComplex:
    """The bounded strata: all vertices, segment edges, bounded faces,
    corners, and per-vertex links.

    Corners are numbered vertex by vertex, each vertex's bounded sectors in
    face-id order, so they come sorted by (vertex, face);
    ``sector_corners[v][i]`` is the index of the corner in sector i at
    vertex v, or None where that sector's face is unbounded."""

    def __init__(self, complex_: CellComplex):
        self.complex = complex_
        self.vertices = complex_.vertices
        self.edges = tuple(e for e in complex_.edges if e.bounded)
        self.faces = complex_.bounded_faces()
        corners = []
        self.sector_corners = []
        for v in self.vertices:
            sectors = complex_.sectors[v.id]
            row = [None] * len(sectors)
            for f, i in sorted((f, i) for i, f in enumerate(sectors)
                               if complex_.faces[f].bounded):
                row[i] = len(corners)
                corners.append(Corner(v.id, f))
            self.sector_corners.append(row)
        self.corners = tuple(corners)
        self._links = {v.id: self._build_link(v.id) for v in self.vertices}

    def link(self, vertex: int) -> Link:
        return self._links[vertex]

    def links(self):
        return tuple(self._links[v.id] for v in self.vertices)

    def _build_link(self, vid: int) -> Link:
        cx = self.complex
        ring = cx.germs[vid]
        k = len(ring)
        bounded_germ = [step is not None for step in cx.rotation[vid]]
        sector = self.sector_corners[vid]
        joined = [sector[i] is not None and bounded_germ[i]
                  and bounded_germ[(i + 1) % k] for i in range(k)]
        for i in range(k):
            if sector[i] is not None and not joined[i]:
                raise RuntimeError(f"vertex {vid}: a bounded sector face "
                                   f"is flanked by a ray")

        if all(joined):
            comp = LinkComponent(tuple(ring), tuple(sector))
            return Link(vid, len(cx.vertices[vid].lines), CYCLE, (comp,))
        # split the cyclic sequence into maximal joined runs of bounded germs
        components = []
        starts = [i for i in range(k)
                  if bounded_germ[i] and not joined[(i - 1) % k]]
        for s in starts:
            edges = [ring[s]]
            corners = []
            i = s
            while joined[i]:
                corners.append(sector[i])
                i = (i + 1) % k
                edges.append(ring[i])
            components.append(LinkComponent(tuple(edges), tuple(corners)))
        m = len(cx.vertices[vid].lines)
        if len(components) > 1:
            warnings.warn(
                f"vertex {vid}: disconnected link with "
                f"{len(components)} components; circuits are generated "
                f"per component", stacklevel=2)
            return Link(vid, m, MULTIPATH, tuple(components))
        return Link(vid, m, PATH, tuple(components))


def corner_automorphisms(gamma: BoundedComplex):
    """Corner permutations induced by the automorphisms of the cell
    complex of ``gamma``, the identity left out, each a tuple of corner
    indices: ``image[n]`` is the index in ``gamma.corners`` of the image
    of corner n.

    An automorphism is a map of the rotation system ``rotation``: vertex v
    goes to phi(v) and germ i at v to germ (k_v + eps*i) mod d at phi(v),
    with eps = -1 for the orientation-reversing maps, segments going to
    segments and rays to rays.  The image of one flag (a vertex, a germ,
    eps) determines the whole map, because the segments connect every
    vertex, so the search fixes a flag at a base vertex and propagates each
    candidate image along the segments.  A propagation that closes up
    consistently is a local isomorphism of the connected segment graph
    onto a graph with as many vertices, hence a bijection.  Sector i (ccw
    of germ i) goes to sector k_v + i, or to k_v - i - 1 when eps = -1, and
    ``gamma.sector_corners`` names the corner in each sector.  Without
    corners every automorphism acts trivially on them, so the result is
    []; with one bounded face the action is faithful.
    """
    cx = gamma.complex
    if not gamma.corners or not cx.vertices:
        return []
    rotation, table = cx.rotation, gamma.sector_corners
    base = 0
    found = []
    for image, ring in enumerate(rotation):
        if len(ring) != len(rotation[base]):
            continue
        for k in range(len(ring)):
            for eps in (1, -1):
                if (image, k, eps) == (base, 0, 1):
                    continue
                vmap = _propagate(rotation, base, image, k, eps)
                if vmap is None:
                    continue
                perm = [0] * len(gamma.corners)
                for v, (w, kv) in vmap.items():
                    target = table[w]
                    shift = kv if eps == 1 else kv - 1
                    for i, n in enumerate(table[v]):
                        if n is not None:
                            perm[n] = target[(shift + eps * i) % len(target)]
                found.append(tuple(perm))
    return found


def _propagate(rotation, base, image, k, eps):
    """{v: (phi(v), k_v)} of the rotation-system map sending germ i at
    ``base`` to germ (k + eps*i) mod d at ``image``; None if there is no
    such map."""
    vmap = {base: (image, k)}
    stack = [base]
    while stack:
        v = stack.pop()
        w, kv = vmap[v]
        ring, target = rotation[v], rotation[w]
        for i, step in enumerate(ring):
            hit = target[(kv + eps * i) % len(ring)]
            if (step is None) != (hit is None):
                return None
            if step is None:
                continue
            (u, j), (x, jx) = step, hit
            if len(rotation[u]) != len(rotation[x]):
                return None
            ku = (jx - eps * j) % len(rotation[u])
            if u not in vmap:
                vmap[u] = (x, ku)
                stack.append(u)
            elif vmap[u] != (x, ku):
                return None
    return vmap


def bounded_complex(complex_: CellComplex) -> BoundedComplex:
    return BoundedComplex(complex_)


def gamma_of(arr: LineArrangement) -> BoundedComplex:
    """Convenience: bounded complex straight from a line arrangement."""
    return bounded_complex(build_complex(arr))


def link_census(gamma: BoundedComplex):
    """Multiset of (shape, link length, vertex multiplicity) over vertices."""
    census = {}
    for lk in gamma.links():
        key = (lk.shape, lk.length, lk.multiplicity)
        census[key] = census.get(key, 0) + 1
    return census


def face_census(complex_: CellComplex):
    """Bounded faces by polygon size."""
    census = {}
    for f in complex_.bounded_faces():
        census[f.size] = census.get(f.size, 0) + 1
    return census


def chamber_walls(complex_: CellComplex, face: FaceCell) -> int:
    """Walls of the chamber over `face` in the cone of the arrangement.

    A bounded face has `size` walls.  An unbounded face has its boundary
    lines, plus the plane at infinity unless its first and last edges lie
    on distinct parallel lines (a strip or half-strip, which meets infinity
    in a single point).
    """
    if face.bounded:
        return face.size
    lines = complex_.arrangement.lines
    first, last = (complex_.edges[e].line
                   for e in (face.edge_ids[0], face.edge_ids[-1]))
    strip = first != last and lines[first].is_parallel(lines[last])
    return len(face.boundary_lines) + (not strip)


def is_simplicial(complex_: CellComplex):
    """Whether every chamber of the cone over a rank-3 section has exactly
    3 walls.

    Returns (verdict, witness_face); faces come bounded first, so a bounded
    witness is preferred.
    """
    for f in complex_.faces:
        if chamber_walls(complex_, f) != 3:
            return False, f
    return True, None
