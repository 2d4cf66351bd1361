"""Command-line interface.

Exit codes: 0 success (and "qualifying" for check), 1 not qualifying
(check only), 2 usage, input or output errors. Designed so scripts can gate on
`signeddec check mesh.node`.
"""

import argparse
import functools
import json
import sys
from numbers import Real
from pathlib import Path

import numpy as np

from .delaunay import classify_complex
from .errors import SignedDecError
from .fixtures import FIXTURE_NAMES, generate_fixture
from .hodge import hodge_star, validate_hodge
from .meshfile import format_rows, load_complex, write_mesh
from .poisson import FIGURE1_COLUMNS, figure1_columns
from .signed_dual import dual_table

SCHEMA_VERSION = 1


def _write_out(path, text):
    """Write text to the file at path, untranslated, or to stdout if None."""
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, newline="")


def _csv(header, fmt, *columns):
    """CSV text as the csv module writes it (\\r\\n line ends, no field
    needs quoting): the header, then ``fmt`` over the rows of columns."""
    return header + "\r\n" + format_rows(fmt + "\r\n", *columns)


# One row template per array section of the report, in the layout of
# json.dumps(..., indent=2); "%r" is repr, which json uses for finite floats,
# and every signed dual volume is finite.
_REPORT_ROWS = {
    "pairwise_delaunay": '    {\n      "facet": %d,\n      "tops": [\n        %d,\n'
    '        %d\n      ],\n      "status": "%s"\n    }',
    "one_sided": '    {\n      "facet": %d,\n      "top": %d,\n      "status": "%s"\n    }',
    "nonpositive_duals": '    {\n      "dim": %d,\n      "index": %d,\n'
    '      "signed_volume": %r\n    }',
}


def _report_json(mesh, report):
    """The report as ``json.dumps(..., indent=2)`` writes it, plus a newline:
    the header, then each array section filled from its row template."""
    counts = ",\n".join(f'    "{p}": {mesh.num_simplices(p)}' for p in range(mesh.n + 1))
    parts = [
        f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "dimension": {mesh.n},\n'
        f'  "ambient_dimension": {mesh.N},\n  "num_simplices": {{\n{counts}\n  }},\n'
        f'  "verdict": "{report.verdict}"'
    ]
    sections = (
        (report.pair_facets, *report.pair_tops.T, report.pair_labels),
        (report.boundary_facets, report.boundary_tops, report.boundary_labels),
        (report.dual_dims, report.dual_indices, report.dual_values),
    )
    for (name, row), columns in zip(_REPORT_ROWS.items(), sections):
        rows = format_rows(row + ",\n", *(column.tolist() for column in columns))[:-2]
        parts.append(f'  "{name}": [\n{rows}\n  ]' if rows else f'  "{name}": []')
    return ",\n".join(parts) + "\n}\n"


def _status_counts(labels, none):
    """The count of each distinct status as "count status", sorted by
    status and joined by commas, or ``none`` when there are no labels."""
    names, counts = np.unique(labels, return_counts=True)
    return ", ".join(f"{c} {s}" for s, c in zip(names.tolist(), counts.tolist())) or none


def _cmd_check(args):
    mesh = load_complex(args.mesh)
    report = classify_complex(mesh)
    sizes = ", ".join(
        f"{mesh.num_simplices(p)} of dim {p}" for p in range(mesh.n + 1)
    )
    print(f"mesh: n={mesh.n}, N={mesh.N}; {sizes}")
    print("pairwise Delaunay: " + _status_counts(report.pair_labels, "no internal facets"))
    print("boundary one-sided: " + _status_counts(report.boundary_labels, "no boundary"))
    print(f"nonpositive dual volumes: {len(report.dual_values)}")
    for dim, index, value in report.nonpositive_duals[:10]:
        print(f"  dim {dim} simplex {index}: {value:.17g}")
    print(f"verdict: {report.verdict}")
    return 0 if report.is_qualifying else 1


def _cmd_report(args):
    mesh = load_complex(args.mesh)
    report = classify_complex(mesh)
    _write_out(args.output, _report_json(mesh, report))
    return 0


def _cmd_duals(args):
    mesh = load_complex(args.mesh)
    if not 0 <= args.dim <= mesh.n:
        raise SignedDecError(f"--dim must be between 0 and {mesh.n}")
    table = dual_table(mesh, args.dim)
    vertices = " ".join(["%d"] * (args.dim + 1))
    _write_out(args.output, _csv(
        "dim,simplex_index,vertices,signed_volume,unsigned_volume,num_pieces,"
        "num_negative_pieces",
        f"{args.dim},%d,{vertices},%.17g,%.17g,%d,%d",
        range(mesh.num_simplices(args.dim)), *mesh.simplices[args.dim].T.tolist(),
        table.signed_volume.tolist(), table.unsigned_volume.tolist(),
        table.num_pieces.tolist(), table.num_negative_pieces.tolist(),
    ))
    return 0


def _cmd_hodge(args):
    mesh = load_complex(args.mesh)
    if not 0 <= args.dim <= mesh.n:
        raise SignedDecError(f"--dim must be between 0 and {mesh.n}")
    mode = args.mode or "signed"
    if args.unsigned:
        if args.mode == "signed":
            raise SignedDecError("--unsigned conflicts with --mode signed")
        mode = "unsigned"
    star = hodge_star(mesh, args.dim, mode=mode)
    _write_out(args.output, _csv(
        "index,entry", "%d,%.17g", range(len(star.entries)), star.entries.tolist()
    ))
    flagged = validate_hodge(star)
    if flagged:
        print(
            f"warning: {len(flagged)} nonpositive entries at indices "
            f"{flagged[:10]}{'...' if len(flagged) > 10 else ''}",
            file=sys.stderr,
        )
    return 0


# The experiment parameters a poisson config may set, with their types.
_POISSON_PARAMS = {"divisions": int, "seed": int, "width": Real, "height": Real, "influx": Real}


def _cmd_poisson(args):
    try:
        config = json.loads(Path(args.config).read_text())
    except OSError as exc:
        raise SignedDecError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SignedDecError(f"bad JSON in {args.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise SignedDecError("poisson config must be a JSON object")

    unknown = set(config) - {*_POISSON_PARAMS, "output_dir", "columns"}
    if unknown:
        raise SignedDecError(f"unknown config keys: {sorted(unknown)}")
    params = {key: config[key] for key in _POISSON_PARAMS if key in config}
    for key, value in params.items():
        kind = _POISSON_PARAMS[key]
        if isinstance(value, bool) or not isinstance(value, kind):
            noun = "an integer" if kind is int else "a number"
            raise SignedDecError(f"config key {key!r} must be {noun}")
    columns = config.get("columns")
    if columns is None:
        columns = FIGURE1_COLUMNS
    elif not isinstance(columns, list) or not all(isinstance(c, dict) for c in columns):
        raise SignedDecError("config key 'columns' must be a list of objects")
    else:
        columns = [(c.get("family", "good"), c.get("hodge_mode", "signed")) for c in columns]
    # every column runs before the output directory is made, so a failing
    # column leaves no files behind
    results = figure1_columns(columns=columns, **params)
    out_dir = Path(config.get("output_dir", "poisson_out"))
    out_dir.mkdir(parents=True, exist_ok=True)

    summary = {"schema_version": SCHEMA_VERSION, "columns": []}
    for result in results:
        tag = f"{result.family}_{result.hodge_mode}"
        mesh = result.mesh
        _write_out(out_dir / f"{tag}_u.csv", _csv(
            "vertex_index,x,y,u", "%d,%.17g,%.17g,%.17g", range(len(mesh.points)),
            *mesh.points[:, :2].T.tolist(), result.solution.u.tolist(),
        ))
        _write_out(out_dir / f"{tag}_sigma.csv", _csv(
            "edge_index,tail,head,sigma", "%d,%d,%d,%.17g", range(mesh.num_simplices(1)),
            *mesh.simplices[1].T.tolist(), result.solution.sigma.tolist(),
        ))
        vectors = result.flux_vectors
        _write_out(out_dir / f"{tag}_flux_vectors.csv", _csv(
            "triangle_index,vec_x,vec_y", "%d,%.17g,%.17g", range(len(vectors)),
            *vectors.T.tolist(),
        ))
        summary["columns"].append(
            {
                "family": result.family,
                "hodge_mode": result.hodge_mode,
                "u_error": result.u_error,
                "sigma_error": result.sigma_error,
                "residual_norm": result.solution.residual_norm,
                "verdict": result.report.verdict,
                "nonpositive_star1": result.star1_nonpositive,
                "elapsed_seconds": result.elapsed_seconds,
                "files": [f"{tag}_u.csv", f"{tag}_sigma.csv", f"{tag}_flux_vectors.csv"],
            }
        )
    text = json.dumps(summary, indent=2) + "\n"
    (out_dir / "summary.json").write_text(text)
    sys.stdout.write(text)
    return 0


def _cmd_fixture(args):
    params = {}
    for key in (
        "divisions", "seed", "jitter", "width", "height", "fold_angle",
        "min_violations", "ring", "half_length", "offset", "wobble", "mode",
    ):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    mesh = generate_fixture(args.name, **params)
    written = write_mesh(args.output, mesh.points, mesh.simplices[mesh.n])
    for path in written:
        print(path)
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(
        prog="signeddec",
        description="Signed circumcentric dual volumes and diagonal Hodge stars",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify a mesh; exit 0 only if qualifying")
    p.add_argument("mesh")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("report", help="print the JSON classification report")
    p.add_argument("mesh")
    p.add_argument("--json", action="store_true", help="accepted for clarity; output is always JSON")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("duals", help="CSV of signed dual volumes at one dimension")
    p.add_argument("mesh")
    p.add_argument("-p", "--dim", type=int, required=True)
    p.add_argument(
        "--unsigned",
        action="store_true",
        help="accepted for compatibility; the CSV always carries both "
        "signed and unsigned columns",
    )
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_duals)

    p = sub.add_parser("hodge", help="CSV of diagonal Hodge star entries")
    p.add_argument("mesh")
    p.add_argument("-p", "--dim", type=int, required=True)
    p.add_argument("--mode", choices=("signed", "unsigned"), default=None)
    p.add_argument(
        "--unsigned", action="store_true", help="same as --mode unsigned"
    )
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_hodge)

    p = sub.add_parser("poisson", help="run the four-column flux patch-test experiment")
    p.add_argument("config", help="JSON config file")
    p.set_defaults(func=_cmd_poisson)

    p = sub.add_parser("fixture", help="generate a named fixture mesh")
    p.add_argument("name", choices=FIXTURE_NAMES)
    p.add_argument("-o", "--output", required=True, help="output base path")
    p.add_argument("--divisions", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jitter", type=float, default=None)
    p.add_argument("--width", type=float, default=None)
    p.add_argument("--height", type=float, default=None)
    p.add_argument("--fold-angle", dest="fold_angle", type=float, default=None)
    p.add_argument("--min-violations", dest="min_violations", type=int, default=None)
    p.add_argument("--ring", type=int, default=None)
    p.add_argument("--half-length", dest="half_length", type=float, default=None)
    p.add_argument("--offset", type=float, default=None)
    p.add_argument("--wobble", type=float, default=None)
    p.add_argument("--mode", choices=("crossing", "missing"), default=None)
    p.set_defaults(func=_cmd_fixture)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SignedDecError, OSError) as exc:  # OSError: an output file cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
