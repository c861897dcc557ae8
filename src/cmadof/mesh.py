"""Pixelated plate meshes and RWG basis bookkeeping.

A plate is a rectangular grid of square-ish pixels in the z = 0 plane. Each
pixel is either metal (on) or absent (off), and every metal pixel is split
into two triangles along its fixed bottom-left to top-right diagonal. A bit
vector over the grid selects the configuration; the spine pixels (hosting the
delta-gap feeds) are forced on no matter what the bits say, so every
configuration keeps all of its ports.

Edge-pair (RWG) functions live on interior edges, i.e. edges shared by
exactly two faces. Extraction is deterministic: edges are ordered by their
sorted vertex-index pair, the lower-numbered face is the plus face.

`build_plate_mesh` and `extract_rwg` build the all-metal parent plate
(`cmadof.ga.PlateModel`) and the `export-mesh` output, and `extract_rwg`
is the one place that orders edges. No other configuration is meshed: it
is a face map f, the parent faces of its metal pixels, and an edge map e,
the parent edges whose two faces are both in f, in parent order
(`PlateModel.gather`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError

__all__ = [
    "PlateSpec",
    "TriMesh",
    "RwgBasis",
    "build_plate_mesh",
    "extract_rwg",
    "face_sampling_operator",
    "face_rows",
    "locate_port_edges",
    "mesh_to_text",
    "mesh_to_json",
]


@dataclass(frozen=True)
class PlateSpec:
    """Geometry template for one pixel-antenna plate.

    width, height    physical extent in meters (x and y)
    pixel_cols/rows  grid shape; pixel (r, c) covers
                     [c*dx, (c+1)*dx] x [r*dy, (r+1)*dy]
    ports            number of delta-gap feeds L
    spine_pixels     pixels that are always metal; defaults to column 0
    port_pixels      one spine pixel per port whose diagonal edge carries the
                     delta gap; defaults to (row r, column 0) for port r
    """

    width: float
    height: float
    pixel_rows: int
    pixel_cols: int
    ports: int
    spine_pixels: tuple[tuple[int, int], ...] = field(default=None)  # type: ignore[assignment]
    port_pixels: tuple[tuple[int, int], ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("plate width and height must be positive")
        if self.pixel_rows < 1 or self.pixel_cols < 1:
            raise ValueError("pixel grid must be at least 1x1")
        if self.ports < 1:
            raise ValueError("need at least one port")
        if self.spine_pixels is None:
            if self.ports > self.pixel_rows:
                raise ValueError(
                    "default spine hosts one port per row; ports > pixel_rows"
                )
            object.__setattr__(
                self,
                "spine_pixels",
                tuple((r, 0) for r in range(self.pixel_rows)),
            )
        else:
            object.__setattr__(self, "spine_pixels", tuple(self.spine_pixels))
        if self.port_pixels is None:
            object.__setattr__(
                self, "port_pixels", tuple((r, 0) for r in range(self.ports))
            )
        else:
            object.__setattr__(self, "port_pixels", tuple(self.port_pixels))
        if len(self.port_pixels) != self.ports:
            raise ValueError("need exactly one port pixel per port")
        for rc in self.port_pixels:
            if rc not in self.spine_pixels:
                raise ValueError(f"port pixel {rc} is not on the spine")
        for r, c in self.spine_pixels:
            if not (0 <= r < self.pixel_rows and 0 <= c < self.pixel_cols):
                raise ValueError(f"spine pixel {(r, c)} outside the grid")

    @property
    def n_bits(self) -> int:
        """Length of the configuration bit vector (whole grid, row-major)."""
        return self.pixel_rows * self.pixel_cols

    @property
    def pixel_size(self) -> tuple[float, float]:
        return (self.width / self.pixel_cols, self.height / self.pixel_rows)

    def metal_pixels(self, config) -> np.ndarray:
        """Row-major indices of the metal pixels of a configuration bit
        vector, spine pixels forced on."""
        bits = np.asarray(config).ravel()
        if bits.size != self.n_bits:
            raise ValueError(
                f"config has {bits.size} bits, spec wants {self.n_bits}"
            )
        on = bits.astype(bool).reshape(self.pixel_rows, self.pixel_cols).copy()
        for r, c in self.spine_pixels:
            on[r, c] = True
        return np.flatnonzero(on)


@dataclass
class TriMesh:
    """Indexed triangle mesh. All faces are consistently oriented (+z
    normals for plates built here)."""

    vertices: np.ndarray  # (Nv, 3) float
    faces: np.ndarray  # (Nf, 3) int
    face_areas: np.ndarray = field(init=False)
    face_centroids: np.ndarray = field(init=False)
    face_tags: np.ndarray = None  # pixel index per face, or None

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.faces = np.asarray(self.faces, dtype=int)
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise GeometryError("faces must be an (Nf, 3) index array")
        nv = len(self.vertices)
        if self.faces.size and not 0 <= self.faces.min() <= self.faces.max() < nv:
            raise GeometryError("face index out of range")
        v = self.vertices[self.faces]
        cross = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        self.face_areas = 0.5 * np.linalg.norm(cross, axis=1)
        self.face_centroids = v.mean(axis=1)
        # one int64 key per vertex set; a stable sort puts each repeat after
        # the earlier faces with its key, so the first repeat in face order
        # is the smallest face index that follows an equal key
        corners = np.sort(self.faces, axis=1)
        keys = (corners[:, 0] * nv + corners[:, 1]) * nv + corners[:, 2]
        order = np.argsort(keys, kind="stable")
        repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
        if repeats.size:
            key = tuple(int(i) for i in corners[repeats.min()])
            raise GeometryError(f"duplicate face over vertices {key}")

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    def translated(self, offset) -> "TriMesh":
        """A copy shifted by a 3-vector (used to place the receive plate)."""
        return TriMesh(
            vertices=self.vertices + np.asarray(offset, dtype=float),
            faces=self.faces.copy(),
            face_tags=None if self.face_tags is None else self.face_tags.copy(),
        )


@dataclass
class RwgBasis:
    """Edge-pair basis over the interior edges of a mesh.

    edges        (E, 2) sorted vertex-index pairs, lexicographic order
    plus_face    (E,) face index that owns the edge with positive reference
    minus_face   (E,)
    plus_free    (E,) free-vertex index of the plus face
    minus_free   (E,)
    lengths      (E,) edge lengths
    """

    mesh: TriMesh
    edges: np.ndarray
    plus_face: np.ndarray
    minus_face: np.ndarray
    plus_free: np.ndarray
    minus_free: np.ndarray
    lengths: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_index(self, va: int, vb: int) -> int:
        """Index of the basis function on edge (va, vb); raises if absent."""
        key = (min(va, vb), max(va, vb))
        hits = np.nonzero((self.edges[:, 0] == key[0]) & (self.edges[:, 1] == key[1]))[0]
        if len(hits) != 1:
            raise GeometryError(f"edge {key} carries no basis function")
        return int(hits[0])


def build_plate_mesh(spec: PlateSpec, config) -> TriMesh:
    """Mesh a plate for one configuration bit vector.

    `config` has spec.n_bits entries over the row-major pixel grid; spine
    pixels are forced on regardless of their bit. Off-grid metal never
    appears; isolated on-pixels are kept (parasitic islands are legal).
    """
    metal = spec.metal_pixels(config)
    dx, dy = spec.pixel_size
    vid: dict[tuple[int, int], int] = {}
    verts: list[tuple[float, float, float]] = []

    def vertex(i: int, j: int) -> int:
        """Grid node (col i, row j) -> vertex id, first-use order."""
        key = (i, j)
        if key not in vid:
            vid[key] = len(verts)
            verts.append((i * dx, j * dy, 0.0))
        return vid[key]

    faces: list[tuple[int, int, int]] = []
    tags: list[int] = []
    for t in metal.tolist():
        r, c = divmod(t, spec.pixel_cols)
        bl = vertex(c, r)
        br = vertex(c + 1, r)
        tr = vertex(c + 1, r + 1)
        tl = vertex(c, r + 1)
        # fixed diagonal bl-tr, both triangles counterclockwise
        faces.append((bl, br, tr))
        faces.append((bl, tr, tl))
        tags.extend([t] * 2)

    if not faces:
        raise GeometryError("configuration produces an empty plate")
    return TriMesh(
        vertices=np.array(verts, dtype=float),
        faces=np.array(faces, dtype=int),
        face_tags=np.array(tags, dtype=int),
    )


def extract_rwg(mesh: TriMesh) -> RwgBasis:
    """Find interior edges and build the edge-pair basis.

    An edge on more than two faces means the sheet is non-manifold and is
    rejected. Plus face = lower face index; free vertex = the face vertex
    not on the edge.
    """
    incident: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for fi, (a, b, c) in enumerate(mesh.faces):
        for va, vb, vf in ((a, b, c), (b, c, a), (c, a, b)):
            key = (min(int(va), int(vb)), max(int(va), int(vb)))
            incident.setdefault(key, []).append((fi, int(vf)))

    edges, pf, mf, pfree, mfree = [], [], [], [], []
    for key in sorted(incident):
        owners = incident[key]
        if len(owners) > 2:
            raise GeometryError(f"non-manifold edge {key} on {len(owners)} faces")
        if len(owners) != 2:
            continue
        owners = sorted(owners)
        edges.append(key)
        pf.append(owners[0][0])
        pfree.append(owners[0][1])
        mf.append(owners[1][0])
        mfree.append(owners[1][1])

    edges = np.array(edges, dtype=int).reshape(-1, 2)
    lengths = np.linalg.norm(
        mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]], axis=1
    ) if len(edges) else np.zeros(0)
    return RwgBasis(
        mesh=mesh,
        edges=edges,
        plus_face=np.array(pf, dtype=int),
        minus_face=np.array(mf, dtype=int),
        plus_free=np.array(pfree, dtype=int),
        minus_free=np.array(mfree, dtype=int),
        lengths=lengths,
    )


def face_sampling_operator(basis: RwgBasis) -> np.ndarray:
    """Face-centroid current sampler, (3 Nf, E) real.

    Column n holds the RWG function n evaluated at every face centroid,
    stacked (x, y, z) per face. Faces not touched by an edge function
    contribute zero rows.
    """
    mesh = basis.mesh
    S = np.zeros((3 * mesh.n_faces, basis.n_edges))
    cent = mesh.face_centroids
    areas = mesh.face_areas
    for n in range(basis.n_edges):
        ln = basis.lengths[n]
        for face, free, sign in (
            (basis.plus_face[n], basis.plus_free[n], 1.0),
            (basis.minus_face[n], basis.minus_free[n], -1.0),
        ):
            val = sign * ln / (2.0 * areas[face]) * (
                cent[face] - mesh.vertices[free]
            )
            S[3 * face : 3 * face + 3, n] += val
    return S


def face_rows(faces) -> np.ndarray:
    """Rows 3f, 3f + 1, 3f + 2 of each face f in the stacked (x, y, z)
    per-face layout of sampled currents, fields and the channel."""
    return (3 * np.asarray(faces)[:, None] + np.arange(3)).ravel()


def locate_port_edges(spec: PlateSpec, mesh: TriMesh) -> list[tuple[int, int]]:
    """Vertex-index pairs of the delta-gap edges (pixel diagonals).

    Works on any mesh built from `spec`, independent of the configuration,
    because spine pixels are always present.
    """
    dx, dy = spec.pixel_size
    coords = {
        (round(v[0] / dx), round(v[1] / dy)): i for i, v in enumerate(mesh.vertices)
    }
    out = []
    for r, c in spec.port_pixels:
        try:
            va = coords[(c, r)]          # bottom-left corner
            vb = coords[(c + 1, r + 1)]  # top-right corner
        except KeyError as exc:
            raise GeometryError(
                f"port pixel {(r, c)} missing from mesh"
            ) from exc
        out.append((va, vb))
    return out


# --- plain text / JSON mesh writers ---------------------------------------
#
# Text format, one item per line:
#   v <x> <y> <z>
#   f <i> <j> <k>      (0-based vertex indices)
# A line starting with '#' is a comment.


def mesh_to_text(mesh: TriMesh) -> str:
    lines = ["# indexed triangle mesh"]
    for v in mesh.vertices:
        lines.append(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}")
    for f in mesh.faces:
        lines.append(f"f {f[0]} {f[1]} {f[2]}")
    return "\n".join(lines) + "\n"


def mesh_to_json(mesh: TriMesh) -> str:
    return json.dumps(
        {
            "vertices": [[float(x) for x in v] for v in mesh.vertices],
            "faces": [[int(i) for i in f] for f in mesh.faces],
        },
        indent=2,
        sort_keys=True,
    )
