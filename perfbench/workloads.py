"""The four benchmark workloads: seeded input pools, CLI ops and output checks.

Every op starts from files written during set-up, so no complex and no
``dual_volumes`` memo carries over from one op to the next. Each workload
knows three things:

- ``generate(seed, size, workdir, pool_size)``: write the seeded input pool
  and return one item per op; item 0 is the warm-up op's.
- ``commands(item, outdir)``: the CLI argument lists of one op.
- ``check(item, results, outdir)``: verify the op's output against
  oracles that do not go through ``signeddec``; returns (ok, reason, facts),
  where ``facts`` holds ``tops`` (top simplices pushed through the op's
  commands) and ``counts`` (simplices per dimension of the op's mesh).

Run ``python3 perfbench/run.py --help`` for how the ops are timed; see
``perfbench/README.md`` for why each workload was chosen.
"""

import csv
import json
import math
import shutil
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull, Delaunay

# Tolerance for the one-sidedness oracle: a boundary facet whose
# circumcentre sits closer to the facet's hyperplane than this (relative)
# is not counted either way, since the program's own tolerance band may
# call it marginal.
ORACLE_SIDE_MARGIN = 1e-8
VOLUME_RTOL = 1e-10


def _write_node_ele(base, points, cells):
    """Triangle/TetGen .node/.ele pair, 1-based, 17 significant digits."""
    dim = points.shape[1]
    node = [f"{len(points)} {dim} 0 0"]
    node.extend(
        f"{i + 1} " + " ".join(f"{x:.17g}" for x in row)
        for i, row in enumerate(points)
    )
    Path(f"{base}.node").write_text("\n".join(node) + "\n")
    ele = [f"{len(cells)} {cells.shape[1]} 0"]
    ele.extend(
        f"{i + 1} " + " ".join(str(int(v) + 1) for v in row)
        for i, row in enumerate(cells)
    )
    Path(f"{base}.ele").write_text("\n".join(ele) + "\n")
    return f"{base}.node"


def _simplex_counts(cells):
    """Number of simplices per dimension of the complex closed under faces."""
    n = cells.shape[1] - 1
    counts = {"0": int(len(np.unique(cells)))}
    for p in range(1, n):
        faces = np.vstack(
            [np.sort(cells[:, list(c)], axis=1) for c in combinations(range(n + 1), p + 1)]
        )
        counts[str(p)] = int(len(np.unique(faces, axis=0)))
    counts[str(n)] = int(len(cells))
    return counts


def _circumcenter(pts):
    """Circumcentre of one full-dimensional simplex, by a linear solve."""
    base = pts[0]
    edges = pts[1:] - base
    rhs = 0.5 * np.einsum("ij,ij->i", edges, edges)
    return base + np.linalg.solve(edges, rhs)


def _boundary_sides(points, tri):
    """Oracle one-sidedness of each hull facet of a Delaunay triangulation.

    A boundary facet is one-sided when its coface's circumcentre lies
    strictly on the apex side of the facet's hyperplane. Returns
    (yes, no, unsure) counts.
    """
    yes = no = unsure = 0
    dim = points.shape[1]
    on_hull = (tri.neighbors == -1).any(axis=1)
    for cell, nbrs in zip(tri.simplices[on_hull], tri.neighbors[on_hull]):
        pts = points[cell]
        center = _circumcenter(pts)
        for k in np.nonzero(nbrs == -1)[0]:
            facet = np.delete(pts, k, axis=0)
            apex = pts[k]
            if dim == 2:
                along = facet[1] - facet[0]
                normal = np.array([-along[1], along[0]])
            else:
                normal = np.cross(facet[1] - facet[0], facet[2] - facet[0])
            toward = float(normal @ (apex - facet[0]))
            across = float(normal @ (center - facet[0]))
            scale = np.linalg.norm(normal) * np.linalg.norm(center - facet[0])
            if abs(across) <= ORACLE_SIDE_MARGIN * max(scale, 1e-300):
                unsure += 1
            elif across * toward > 0:
                yes += 1
            else:
                no += 1
    return yes, no, unsure


def _random_delaunay(rng, dim, num_points):
    """Uniform random points in the unit square or cube, Delaunay-triangulated
    by Qhull; redraws on the (measure-zero) event that Qhull drops a point."""
    while True:
        points = rng.random((num_points, dim))
        tri = Delaunay(points)
        if len(tri.coplanar) == 0 and len(np.unique(tri.simplices)) == num_points:
            return points, tri


def _csv_column(path, column):
    with open(path, newline="") as handle:
        return [row[column] for row in csv.DictReader(handle)]


def _relerr(a, b):
    return abs(a - b) / abs(b)


class RandomMeshWorkload:
    """Shared pool and checks of check2d and check3d: seeded uniform random
    points, Delaunay-triangulated by Qhull, with Qhull and ConvexHull oracles."""

    dim = None
    sizes = {}

    def generate(self, seed, size, workdir, pool_size):
        rng = np.random.default_rng([seed, self.dim])
        items = []
        for i in range(pool_size):
            points, tri = _random_delaunay(rng, self.dim, self.sizes[size])
            yes, no, unsure = _boundary_sides(points, tri)
            items.append(
                {
                    "mesh": _write_node_ele(Path(workdir) / f"mesh{i:03d}", points, tri.simplices),
                    "vertices": len(points),
                    "tops": len(tri.simplices),
                    "interior_pairs": int((tri.neighbors >= 0).sum()) // 2,
                    "hull_facets": int((tri.neighbors == -1).sum()),
                    "side_yes": yes,
                    "side_no": no,
                    "side_unsure": unsure,
                    "hull_volume": float(ConvexHull(points).volume),
                    "counts": _simplex_counts(tri.simplices),
                }
            )
        return items

    def _check_sides(self, item, yes, no):
        """Boundary statuses agree with the oracle wherever it is sure."""
        if yes + no != item["hull_facets"]:
            return f"{yes + no} boundary statuses, Qhull has {item['hull_facets']} hull facets"
        if not (item["side_yes"] <= yes <= item["side_yes"] + item["side_unsure"]):
            return f"{yes} one-sided boundary facets, oracle says {item['side_yes']}"
        return None

    def _check_column_sum(self, item, path, column):
        values = [float(v) for v in _csv_column(path, column)]
        if len(values) != item["vertices"]:
            return f"{len(values)} rows in {Path(path).name}, mesh has {item['vertices']} vertices"
        err = _relerr(math.fsum(values), item["hull_volume"])
        if not err <= VOLUME_RTOL:
            return f"{column} sums to hull volume only within {err:.3g} relative"
        return None

    def _facts(self, item):
        return {"tops": 2 * item["tops"], "counts": item["counts"]}


class Check2D(RandomMeshWorkload):
    """check M, then duals M -p 0 -o csv, on a random planar Delaunay mesh."""

    name = "check2d"
    dim = 2
    sizes = {"full": 300, "smoke": 40}

    def commands(self, item, outdir):
        return [
            ["check", item["mesh"]],
            ["duals", item["mesh"], "-p", "0", "-o", str(Path(outdir) / "duals.csv")],
        ]

    def check(self, item, results, outdir):
        check, duals = results
        facts = self._facts(item)
        lines = check.stdout.splitlines()
        verdict = next((l for l in lines if l.startswith("verdict: ")), None)
        if verdict is None:
            return False, "check printed no verdict line", facts
        expected = "qualifying" if item["side_no"] == 0 and item["side_unsure"] == 0 else "not qualifying"
        if item["side_unsure"] == 0 and verdict != f"verdict: {expected}":
            return False, f"check said {verdict!r}, oracle says {expected!r}", facts
        if check.code != (0 if verdict == "verdict: qualifying" else 1):
            return False, f"check exited {check.code} with {verdict!r}", facts
        pairs = next(l for l in lines if l.startswith("pairwise Delaunay: "))
        if pairs != f"pairwise Delaunay: {item['interior_pairs']} strict":
            return False, f"{pairs!r}, Qhull has {item['interior_pairs']} interior pairs", facts
        sides = next(l for l in lines if l.startswith("boundary one-sided: "))
        found = dict(
            (status, int(num))
            for num, status in (part.split() for part in sides.split(": ", 1)[1].split(", "))
        )
        problem = self._check_sides(item, found.get("yes", 0), found.get("no", 0))
        if problem is None and duals.code != 0:
            problem = f"duals exited {duals.code}"
        if problem is None:
            problem = self._check_column_sum(item, Path(outdir) / "duals.csv", "signed_volume")
        return problem is None, problem, facts


class Check3D(RandomMeshWorkload):
    """report M -o json, then hodge M -p 0 -o csv, on a random Delaunay
    tetrahedralization."""

    name = "check3d"
    dim = 3
    sizes = {"full": 50, "smoke": 20}

    def commands(self, item, outdir):
        return [
            ["report", item["mesh"], "-o", str(Path(outdir) / "report.json")],
            ["hodge", item["mesh"], "-p", "0", "-o", str(Path(outdir) / "star0.csv")],
        ]

    def check(self, item, results, outdir):
        report_run, hodge_run = results
        facts = self._facts(item)
        if report_run.code != 0 or hodge_run.code != 0:
            return False, f"report exited {report_run.code}, hodge {hodge_run.code}", facts
        report = json.loads((Path(outdir) / "report.json").read_text())
        pairs = [row["status"] for row in report["pairwise_delaunay"]]
        sides = [row["status"] for row in report["one_sided"]]
        if len(pairs) != item["interior_pairs"] or set(pairs) != {"strict"}:
            return False, f"{len(pairs)} pair statuses {sorted(set(pairs))}, Qhull has {item['interior_pairs']} strict pairs", facts
        problem = self._check_sides(item, sides.count("yes"), sides.count("no"))
        if problem is None and report["num_simplices"] != item["counts"]:
            problem = f"simplex counts {report['num_simplices']}, oracle {item['counts']}"
        expected = "qualifying" if "no" not in sides and "marginal" not in sides else "not qualifying"
        if problem is None and report["verdict"] != expected:
            problem = f"verdict {report['verdict']!r} with boundary statuses {sorted(set(sides))}"
        # hodge warns on stderr about nonpositive star entries whenever a
        # boundary facet is not one-sided; that is expected output, so the
        # warning is captured and not treated as a failure
        if problem is None:
            problem = self._check_column_sum(item, Path(outdir) / "star0.csv", "entry")
        return problem is None, problem, facts


class Figure1:
    """poisson cfg.json: the paper's four-column flux patch test."""

    name = "figure1"
    sizes = {"full": 12, "smoke": 4}

    def generate(self, seed, size, workdir, pool_size):
        rng = np.random.default_rng([seed, 0xF1])
        items = []
        for i, mesh_seed in enumerate(rng.integers(0, 2**31 - 1, size=pool_size)):
            out = Path(workdir) / f"out{i:03d}"
            config = {"divisions": self.sizes[size], "seed": int(mesh_seed), "output_dir": str(out)}
            path = Path(workdir) / f"config{i:03d}.json"
            path.write_text(json.dumps(config) + "\n")
            items.append({"config": str(path), "output_dir": str(out), "seed": int(mesh_seed)})
        return items

    def commands(self, item, outdir):
        return [["poisson", item["config"]]]

    def check(self, item, results, outdir):
        out = Path(item["output_dir"])
        try:
            return self._check(results, out)
        finally:
            # ops cycle through the pool, so no output may outlive its check
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, results, out):
        (run,) = results
        facts = {"tops": 0, "counts": {}}
        if run.code != 0:
            return False, f"poisson exited {run.code}", facts
        summary = json.loads((out / "summary.json").read_text())
        columns = {(c["family"], c["hodge_mode"]): c for c in summary["columns"]}
        for column in summary["columns"]:
            for name in column["files"]:
                if not (out / name).is_file():
                    return False, f"missing {name}", facts
            vectors = out / column["files"][2]
            facts["tops"] += sum(1 for _ in open(vectors)) - 1
        good = columns[("good", "signed")]["files"]
        facts["counts"] = {
            str(dim): sum(1 for _ in open(out / name)) - 1 for dim, name in enumerate(good)
        }
        claims = [
            (("good", "signed"), lambda c: c["u_error"] < 1e-8, "u_error < 1e-8"),
            (("good", "signed"), lambda c: c["verdict"] == "qualifying", "qualifying"),
            (("good", "signed"), lambda c: not c["nonpositive_star1"], "no nonpositive star1"),
            # test_08 asks for > 1e-2 at its one mesh; over random seeds the
            # unsigned error of the good mesh ranges down to about 0.009 at
            # divisions 12, still 12 orders above the signed column's
            # round-off, so the claim is checked as > 1e-3 here
            (("good", "unsigned"), lambda c: c["u_error"] > 1e-3, "u_error > 1e-3"),
        ]
        for family in ("bad_boundary", "non_delaunay"):
            claims += [
                ((family, "signed"), lambda c: c["verdict"] == "not qualifying", "not qualifying"),
                ((family, "signed"), lambda c: bool(c["nonpositive_star1"]), "star1 flagged"),
                ((family, "signed"), lambda c: c["u_error"] > 1e-2, "u_error > 1e-2"),
            ]
        for key, holds, what in claims:
            if key not in columns or not holds(columns[key]):
                return False, f"{'/'.join(key)}: claim {what} fails", facts
        return True, None, facts


class Fixtures:
    """One seed's sweep of ``fixture <name> -o base`` over all eight families."""

    name = "fixtures"
    # (square divisions, delaunay_tet_cube divisions)
    sizes = {"full": (12, 4), "smoke": (4, 2)}
    families = (
        "bad_boundary_square",
        "delaunay_tet_cube",
        "fan_around_edge",
        "non_delaunay_square",
        "obtuse_delaunay_square",
        "perturbed_delaunay_square",
        "structured_square",
        "surface_pairwise_delaunay",
    )

    def generate(self, seed, size, workdir, pool_size):
        rng = np.random.default_rng([seed, 0xF7])
        divisions, cube = self.sizes[size]
        return [
            {"seed": int(s), "divisions": divisions, "cube": cube}
            for s in rng.integers(0, 2**31 - 1, size=pool_size)
        ]

    def commands(self, item, outdir):
        argvs = []
        for family in self.families:
            argv = ["fixture", family, "-o", str(Path(outdir) / family)]
            # structured_square takes no --seed, fan_around_edge no --divisions
            if family == "delaunay_tet_cube":
                argv += ["--divisions", str(item["cube"])]
            elif family != "fan_around_edge":
                argv += ["--divisions", str(item["divisions"])]
            if family != "structured_square":
                argv += ["--seed", str(item["seed"])]
            argvs.append(argv)
        return argvs

    def check(self, item, results, outdir):
        from signeddec.meshfile import read_mesh

        facts = {"tops": 0, "counts": {}}
        for family, run in zip(self.families, results):
            if run.code != 0:
                return False, f"fixture {family} exited {run.code}", facts
            written = run.stdout.split()
            if not written or not all(Path(p).is_file() for p in written):
                return False, f"fixture {family} listed missing files {written}", facts
            cells = len(read_mesh(written[0]).cells)
            if cells < 1:
                return False, f"fixture {family} reloads with no cells", facts
            facts["tops"] += cells
            facts["counts"][family] = cells
        return True, None, facts


WORKLOADS = {w.name: w for w in (Check2D(), Check3D(), Figure1(), Fixtures())}
