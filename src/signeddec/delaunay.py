"""Pairwise-Delaunay and one-sided-boundary predicates, mesh classification.

A pair of tops sharing a facet F is Delaunay when, unfolded isometrically
into R^n about F, each apex lies strictly outside the other top's
circumsphere. Every pair route runs one power test (``_pair_signs``) on the
rows of one gather (``_pair_gather``), in any ambient dimension N >= n:
apex b's power is 2 h_b (s_T + s_T'), its height times F's signed dual
length, from producer records that ``classify_complex`` reads from the
complex's cache and the point routes from one producer call on F and one
on its tops (``_apex_data``). No predicate lays a pair out. A boundary
facet is one-sided when its coface's circumcenter lies strictly on the
apex side of the facet's hyperplane: its step sign, by the link table's
side rule (``signed_dual._side_signs``). A mesh whose internal pairs are
all strict and whose boundary facets are all one-sided is "qualifying":
its signed dual volumes are positive in every dimension.
"""

from dataclasses import dataclass

import numpy as np

from .config import tolerance
from .errors import DegeneracyError
from .geometry import _as_points, batched_circumcenters
from .signed_dual import _boundary_step_signs, _side_signs, dual_volumes, step_sign

__all__ = [
    "PAIR_STRICT",
    "PAIR_DEGENERATE",
    "PAIR_VIOLATED",
    "SIDE_YES",
    "SIDE_MARGINAL",
    "SIDE_NO",
    "CircumcenterOrder",
    "MeshReport",
    "pair_status_points",
    "one_sided_status_points",
    "circumcenter_order_points",
    "is_delaunay_pair",
    "is_one_sided",
    "classify_complex",
]

PAIR_STRICT = "strict"
PAIR_DEGENERATE = "degenerate"
PAIR_VIOLATED = "violated"

SIDE_YES = "yes"
SIDE_MARGINAL = "marginal"
SIDE_NO = "no"

# Status names indexed by a sign: +1 strict or one-sided, 0 degenerate or
# marginal, -1 violated or not one-sided (index -1 is the last entry).
_PAIR_STATUS = np.array([PAIR_DEGENERATE, PAIR_STRICT, PAIR_VIOLATED])
_SIDE_STATUS = np.array([SIDE_MARGINAL, SIDE_YES, SIDE_NO])
_NO_FACET_CENTER = "facet vertices are (nearly) affinely dependent, no circumcenter"


@dataclass(frozen=True)
class CircumcenterOrder:
    """Positions along the axis of a pair unfolded about its shared facet:
    the line through the facet's circumcenter normal to the facet, with
    offsets from the facet, positive toward the right apex.
    center_offset_left/right locate the two simplices' circumcenters,
    apex_offset locates the right apex, apex_radial_distance is that apex's
    distance to the axis, facet_radius is the facet's circumradius.
    """

    center_offset_left: float
    center_offset_right: float
    apex_offset: float
    apex_radial_distance: float
    facet_radius: float


def _apex_data(facet_points, *apexes):
    """The stack of tops facet+apex, then the facet's and the tops'
    producer records (volumes, centers, radii, degenerate, barycentric: the
    cache's order), from one producer call on each; as a pair row, facet 0,
    tops 0 and 1, each apex last. DegeneracyError if a top has no
    circumcenter."""
    points = _as_points(np.stack([np.vstack([facet_points, apex]) for apex in apexes]), 3)
    calls = map(batched_circumcenters, (points[:1, :-1], points))
    facet, tops = [(volumes, *data) for *data, volumes in calls]
    if tops[3].any():
        simplex = points[tops[3]][0].tolist()
        raise DegeneracyError(f"affinely dependent vertices, no circumcenter: {simplex}")
    return points, facet, tops


def _pair_gather(top_records, facet_records, facets, tops, columns):
    """Per pair row i (facets[i], its two tops tops[i] and the columns[i] of
    their vertex rows that it omits), from producer records in the cache's
    order: the tops' radii r, apex heights h = n vol(top) / vol(facet) and
    center offsets s = lambda_apex h, each (P, 2), and whether a simplex is flagged."""
    facet_volumes, _, _, facet_flags, _ = facet_records
    volumes, _, radii, flags, barycentric = top_records
    heights = (barycentric.shape[1] - 1) * volumes[tops] / facet_volumes[facets][:, None]
    flagged = facet_flags[facets] | flags[tops].any(axis=1)
    return radii[tops], heights, barycentric[tops, columns] * heights, flagged


def _pair_signs(top_records, facet_records, facets, tops, columns, eps):
    """Status signs (+1 strict, 0 degenerate, -1 violated) of the rows of
    :func:`_pair_gather`, in any ambient dimension N >= n. The far apex b
    has power 2 h_b (s_T + s_T') with respect to top T's circumsphere, and
    relative margin (sqrt(r_T^2 + power) - r_T) / r_T: strict if both
    exceed ``eps`` (the resolved tolerance), violated if both are below
    -eps, else degenerate, as is every pair touching a flagged simplex."""
    r, h, s, flagged = _pair_gather(top_records, facet_records, facets, tops, columns)
    power = 2.0 * h[:, ::-1] * s.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):  # placeholder radii
        margins = np.sqrt(np.maximum(r**2 + power, 0.0)) / r - 1.0
    margins[flagged] = np.nan
    signs = np.where(margins.min(1) > eps, 1, np.where(margins.max(1) < -eps, -1, 0))
    return signs.astype(np.int8)


def pair_status_points(facet_points, apex_left, apex_right, tol=None):
    """Delaunay status of a shared-facet pair given raw coordinates.

    Runs the power test of :func:`classify_complex` on the pair unfolded
    about its facet: "strict" if each apex is outside the other simplex's
    circumsphere beyond relative tolerance, "violated" if inside beyond
    tolerance, "degenerate" near the sphere. The tolerance decides only the
    status: DegeneracyError where the facet or a top has no circumcenter.
    """
    eps = tolerance(tol)
    _, facet, tops = _apex_data(facet_points, apex_left, apex_right)
    if facet[3][0]:
        raise DegeneracyError(_NO_FACET_CENTER)
    return _PAIR_STATUS[_pair_signs(tops, facet, [0], [[0, 1]], -1, eps)[0]].item()


def one_sided_status_points(facet_points, apex, tol=None):
    """One-sidedness of a boundary facet given raw coordinates, read as the
    link table reads it: the sign of the apex's barycentric coordinate of the
    circumcenter of facet+apex (DegeneracyError if it has none). Complex or
    non-finite coordinates raise ValueError.
    """
    eps = tolerance(tol)
    _, facet, (*_, barycentric) = _apex_data(facet_points, apex)
    return _SIDE_STATUS[_side_signs(barycentric[:, -1], facet[3], eps)[0]].item()


def circumcenter_order_points(facet_points, apex_left, apex_right):
    """Axis offsets of the two circumcenters for the pair unfolded about its
    facet, plus whether they are correctly ordered (each center strictly
    toward its own simplex's side of the other).

    Returns (CircumcenterOrder, order_correct). The axis points toward the
    right apex, and correct order means the right simplex's center offset
    exceeds the left one's. It takes no tolerance; it raises as
    :func:`pair_status_points` does.
    """
    points, facet, tops = _apex_data(facet_points, apex_left, apex_right)
    if facet[3][0]:
        raise DegeneracyError(_NO_FACET_CENTER)
    _, (heights,), (offsets,), _ = _pair_gather(tops, facet, [0], [[0, 1]], -1)
    # the axis distance: the right apex's offset from the facet's center,
    # projected onto the span of the facet's edges (none for one point)
    edges = (points[1, 1:-1] - points[1, 0]).T
    along = edges @ np.linalg.lstsq(edges, points[1, -1] - facet[1][0], rcond=None)[0]
    fields = -offsets[0], offsets[1], heights[1], np.linalg.norm(along), facet[2][0]
    data = CircumcenterOrder(*map(float, fields))
    return data, data.center_offset_right > data.center_offset_left


def is_delaunay_pair(complex_, left_top, right_top, facet_index, tol=None):
    """Delaunay status of the pair of top simplices sharing a facet."""
    cofaces, omitted = complex_.facet_cofaces
    row = cofaces[facet_index].tolist()
    if sorted((left_top, right_top)) != row:
        raise ValueError(f"simplices {left_top}, {right_top} do not share facet {facet_index}")
    # the columns of the two tops' vertex rows that their shared facet omits
    columns = omitted[facet_index][[row.index(left_top), row.index(right_top)]][None]
    records = complex_.geometry(complex_.n), complex_.geometry(complex_.n - 1)
    signs = _pair_signs(*records, [facet_index], [[left_top, right_top]], columns, tolerance(tol))
    return _PAIR_STATUS[signs[0]].item()


def is_one_sided(complex_, top_index, facet_index, tol=None):
    """One-sidedness status of a boundary facet against its coface.

    Identical to the chain step sign of facet -> coface, so the dual length
    of the facet is positive exactly for SIDE_YES. Raises ValueError unless
    the facet is a boundary facet of that top.
    """
    if complex_.facet_cofaces[0][facet_index].tolist() != [top_index, -1]:
        raise ValueError(f"facet {facet_index} is not a boundary facet of simplex {top_index}")
    sign = step_sign(complex_, complex_.n - 1, facet_index, top_index, tol=tol)
    return _SIDE_STATUS[sign].item()


@dataclass(frozen=True, eq=False)
class MeshReport:
    """Classification of a complex, held as arrays: the sign of every
    internal pair's status (+1 strict, 0 degenerate, -1 violated), the
    step sign of every boundary facet (+1 one-sided, 0 marginal, -1 not),
    and the nonpositive signed dual volumes over all dimensions as
    (dim, index, value) columns. The verdict and the list properties are
    computed from the arrays on demand.
    """

    pair_facets: np.ndarray      # (P,) internal facet ids, ascending
    pair_tops: np.ndarray        # (P, 2) the two tops of each, ascending
    pair_signs: np.ndarray       # (P,) int8
    boundary_facets: np.ndarray  # (B,) boundary facet ids, ascending
    boundary_tops: np.ndarray    # (B,) the one top of each
    boundary_signs: np.ndarray   # (B,) int8
    dual_dims: np.ndarray        # (D,) dimension, simplex index and signed
    dual_indices: np.ndarray     # volume of each nonpositive dual, by
    dual_values: np.ndarray      # dimension, then index

    @property
    def verdict(self):
        strict = (self.pair_signs > 0).all() and (self.boundary_signs > 0).all()
        return "qualifying" if strict else "not qualifying"

    @property
    def is_qualifying(self):
        return self.verdict == "qualifying"

    @property
    def pair_labels(self):
        """The status string of each internal pair, as an array."""
        return _PAIR_STATUS[self.pair_signs]

    @property
    def boundary_labels(self):
        """The status string of each boundary facet, as an array."""
        return _SIDE_STATUS[self.boundary_signs]

    def _pairs(self, rows=slice(None)):
        tops = map(tuple, self.pair_tops[rows].tolist())
        return list(zip(self.pair_facets[rows].tolist(), tops, self.pair_labels[rows].tolist()))

    def _boundary(self, rows=slice(None)):
        columns = self.boundary_facets, self.boundary_tops, self.boundary_labels
        return list(zip(*(column[rows].tolist() for column in columns)))

    pair_statuses = property(_pairs, doc="(facet, (left, right), status) of every internal facet.")
    boundary_statuses = property(_boundary, doc="(facet, top, status) of every boundary facet.")

    @property
    def nonpositive_duals(self):
        """(dim, index, signed volume) of every nonpositive dual volume."""
        columns = self.dual_dims, self.dual_indices, self.dual_values
        return list(zip(*(column.tolist() for column in columns)))

    @property
    def violated_pairs(self):
        return self._pairs(self.pair_signs < 0)

    @property
    def degenerate_pairs(self):
        return self._pairs(self.pair_signs == 0)

    @property
    def non_one_sided(self):
        return self._boundary(self.boundary_signs < 0)

    @property
    def marginal_boundary(self):
        return self._boundary(self.boundary_signs == 0)

    def as_dict(self):
        """Plain JSON-ready dict."""
        return {
            "verdict": self.verdict,
            "pairwise_delaunay": [
                {"facet": f, "tops": list(tops), "status": status}
                for f, tops, status in self.pair_statuses
            ],
            "one_sided": [
                {"facet": f, "top": top, "status": status}
                for f, top, status in self.boundary_statuses
            ],
            "nonpositive_duals": [
                {"dim": d, "index": i, "signed_volume": v}
                for d, i, v in self.nonpositive_duals
            ],
        }


def classify_complex(complex_, tol=None, check_duals=True):
    """Classify every internal facet, boundary facet and (optionally)
    every signed dual volume; never raises on predicate degeneracies,
    which are recorded as "degenerate"/"marginal" statuses.

    The verdict is "qualifying" exactly when all internal pairs are strict
    and all boundary facets one-sided; positive dual volumes in every
    dimension are then a theorem, and any nonpositive ones found are
    reported for diagnosis. The pair and boundary signs are memoized on the
    complex per resolved tolerance, as read-only arrays.
    """
    tol = tolerance(tol)  # resolved once, for every predicate below
    if tol not in complex_._sign_cache:
        tops, columns = complex_.facet_cofaces
        pairs = np.flatnonzero(tops[:, 1] >= 0)
        boundary, sides = _boundary_step_signs(complex_, tol)
        records = complex_.geometry(complex_.n), complex_.geometry(complex_.n - 1)
        signs = dict(
            pair_facets=pairs, pair_tops=tops[pairs], boundary_facets=boundary,
            pair_signs=_pair_signs(*records, pairs, tops[pairs], columns[pairs], tol),
            boundary_tops=tops[boundary, 0], boundary_signs=sides,
        )
        for column in signs.values():
            column.setflags(write=False)
        complex_._sign_cache[tol] = signs
    dims = range(complex_.n + 1) if check_duals else ()
    signed = [dual_volumes(complex_, dim, tol=tol)[0] for dim in dims]
    found = [np.flatnonzero(volumes <= 0.0) for volumes in signed]
    return MeshReport(
        **complex_._sign_cache[tol],
        dual_dims=np.repeat(np.arange(len(found)), [len(index) for index in found]),
        dual_indices=np.concatenate([np.empty(0, np.intp), *found]),
        dual_values=np.concatenate([np.empty(0), *map(np.take, signed, found)]),
    )
