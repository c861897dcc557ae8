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
    "pixel_faces",
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

    The numbering, which every layer above indexes by: metal pixel k, in
    row-major order, owns faces 2k (bl, br, tr) and 2k + 1 (bl, tr, tl),
    counterclockwise on the fixed bl-tr diagonal (`pixel_faces`), and
    vertices are numbered by first use over the pixels' bl, br, tr, tl
    corners. Face f owns rows 3f to 3f + 2 of the sampler (`face_rows`).
    """
    metal = spec.metal_pixels(config)
    if not metal.size:
        raise GeometryError("configuration produces an empty plate")
    r, c = np.divmod(metal, spec.pixel_cols)
    # grid node (col i, row j) is i + stride j; the corners bl, br, tr, tl
    stride = spec.pixel_cols + 1
    node = (c + stride * r)[:, None] + np.array([0, 1, stride + 1, stride])
    _, first = np.unique(node, return_index=True)
    used = node.ravel()[np.sort(first)]  # the grid nodes in first-use order
    vid = np.empty(stride * (spec.pixel_rows + 1), dtype=int)
    vid[used] = np.arange(used.size)
    j, i = np.divmod(used, stride)
    dx, dy = spec.pixel_size
    return TriMesh(
        vertices=np.stack([i * dx, j * dy, np.zeros(used.size)], axis=1),
        faces=vid[node][:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3),
        face_tags=np.repeat(metal, 2),
    )


def pixel_faces(pixels) -> np.ndarray:
    """Faces 2k and 2k + 1 of each metal pixel k (`build_plate_mesh`); on
    the all-metal parent, k is the row-major pixel index."""
    return (2 * np.asarray(pixels)[:, None] + np.arange(2)).ravel()


def face_rows(faces, components: int = 3) -> np.ndarray:
    """Rows 3f to 3f + components - 1 of each face f in the stacked
    (x, y, z) per-face layout of sampled currents, fields and the channel:
    all three rows, or with components=2 the x and y rows 3f and 3f + 1,
    the only ones a flat plate's currents lie on."""
    return (3 * np.asarray(faces)[:, None] + np.arange(components)).ravel()


def extract_rwg(mesh: TriMesh) -> RwgBasis:
    """Find interior edges and build the edge-pair basis.

    The edges are the sorted vertex pairs on exactly two faces, in
    lexicographic order; the lower face is the plus face, and a free
    vertex is the face vertex off the edge. An edge on more than two
    faces means the sheet is non-manifold and is rejected.
    """
    # side 3f + s runs from vertex s of face f to its vertex s + 1, and its
    # free vertex is the face's vertex s - 1
    faces = mesh.faces
    ahead = np.roll(faces, -1, axis=1)
    lo, hi = np.minimum(faces, ahead).ravel(), np.maximum(faces, ahead).ravel()
    side = np.lexsort((hi, lo))  # by edge, then by face (stable)
    lo, hi = lo[side], hi[side]
    same = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])  # sorted sides k, k + 1
    crowded = (same[1:] & same[:-1]).nonzero()[0]
    if crowded.size:
        edge = (int(lo[crowded[0]]), int(hi[crowded[0]]))
        owners = np.count_nonzero((lo == edge[0]) & (hi == edge[1]))
        raise GeometryError(f"non-manifold edge {edge} on {owners} faces")
    k = same.nonzero()[0]
    plus, minus = side[k], side[k + 1]
    free = np.roll(faces, 1, axis=1).ravel()
    edges = np.stack([lo[k], hi[k]], axis=1)
    return RwgBasis(
        mesh=mesh,
        edges=edges,
        plus_face=plus // 3,
        minus_face=minus // 3,
        plus_free=free[plus],
        minus_free=free[minus],
        lengths=np.linalg.norm(
            mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]], axis=1),
    )


def face_sampling_operator(basis: RwgBasis) -> np.ndarray:
    """Face-centroid current sampler, (3 Nf, E) real.

    Column n holds the RWG function n at the centroid c_f of each of its
    two faces f, +-l_n / (2 A_f) (c_f - v_free), in rows `face_rows(f)`;
    every other row is zero.
    """
    mesh = basis.mesh
    face = np.stack([basis.plus_face, basis.minus_face])
    free = np.stack([basis.plus_free, basis.minus_free])
    scale = np.array([[1.0], [-1.0]]) * basis.lengths / (
        2.0 * mesh.face_areas[face])
    S = np.zeros((mesh.n_faces, 3, basis.n_edges))
    # added to the zeros, so that a -0.0 is stored as 0.0
    S[face, :, np.arange(basis.n_edges)] += scale[..., None] * (
        mesh.face_centroids[face] - mesh.vertices[free])
    return S.reshape(-1, basis.n_edges)


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
