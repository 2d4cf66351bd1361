"""Command-line behavior: exit codes, CSV/JSON outputs, pipelines."""

import csv
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import Delaunay

from signeddec.cli import SCHEMA_VERSION, _build_parser, main
from signeddec.complexes import build_complex
from signeddec.delaunay import classify_complex
from signeddec.fixtures import FIXTURE_NAMES, generate_fixture
from signeddec.hodge import hodge_star
from signeddec.meshfile import load_complex, read_mesh, write_mesh
from signeddec.poisson import figure1_experiment, sigma_vectors
from signeddec.signed_dual import dual_table


@pytest.fixture(scope="module")
def good_mesh_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("meshes")
    code = main(
        ["fixture", "obtuse_delaunay_square", "--divisions", "6", "-o", str(root / "good")]
    )
    assert code == 0
    return root / "good.node"


@pytest.fixture(scope="module")
def skew_mesh_path(tmp_path_factory):
    root = tmp_path_factory.mktemp("meshes_bad")
    code = main(["fixture", "non_delaunay_square", "-o", str(root / "skew")])
    assert code == 0
    return root / "skew.node"


# Run in a fresh interpreter: the mesh commands, the grid fixtures and the
# per-simplex queries must not import scipy; the Qhull fixtures and poisson
# import it on first call.
_SCIPY_FREE_COMMANDS = """
import contextlib, io, json, sys
import signeddec, signeddec.cli
from signeddec.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    assert main(["fixture", "structured_square", "-o", "square"]) == 0
    assert main(["check", "square.node"]) in (0, 1)
    assert main(["report", "square.node", "-o", "report.json"]) in (0, 1)
    for p in range(3):
        assert main(["duals", "square.node", "-p", str(p), "-o", f"duals{p}.csv"]) == 0
        for mode in ([], ["--unsigned"]):
            assert main(["hodge", "square.node", "-p", str(p), *mode, "-o", "star.csv"]) == 0
mesh = signeddec.load_complex("square.node")
assert len(mesh.cofaces) == 2
for p in range(3):
    assert signeddec.elementary_duals(mesh, p, 0)
    assert signeddec.signed_dual_volume(mesh, p, 0).unsigned_volume > 0
scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not scipy, f"{len(scipy)} scipy modules loaded, first {scipy[:3]}"
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["fixture", "obtuse_delaunay_square", "-o", "obtuse"]) == 0
    with open("config.json", "w") as handle:
        json.dump({"divisions": 4, "output_dir": "poisson_out"}, handle)
    assert main(["poisson", "config.json"]) == 0
"""


def test_mesh_commands_never_import_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _SCIPY_FREE_COMMANDS], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_fixture_writes_pair(good_mesh_path, capsys):
    assert good_mesh_path.exists()
    assert good_mesh_path.with_suffix(".ele").exists()
    mesh = load_complex(good_mesh_path)
    assert mesh.n == 2


def test_check_exit_codes(good_mesh_path, skew_mesh_path, capsys):
    assert main(["check", str(good_mesh_path)]) == 0
    out = capsys.readouterr().out
    assert "verdict: qualifying" in out
    assert main(["check", str(skew_mesh_path)]) == 1
    out = capsys.readouterr().out
    assert "verdict: not qualifying" in out
    assert "violated" in out


@pytest.mark.parametrize("raw", ["abc", "-1", "nan", "inf"])
def test_bad_tolerance_variable_is_input_error(raw, good_mesh_path, monkeypatch, capsys):
    monkeypatch.setenv("SIGNED_DEC_EPS", raw)
    assert main(["check", str(good_mesh_path)]) == 2
    assert capsys.readouterr().err.startswith("error: SIGNED_DEC_EPS must be")


def test_check_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.node")]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_utf8_mesh_is_input_error(good_mesh_path, tmp_path, capsys):
    bad = tmp_path / "bad.node"
    bad.write_bytes(good_mesh_path.read_bytes().rstrip() + b"\xff\n")
    assert main(["check", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_output_into_missing_directory_is_error(good_mesh_path, tmp_path, capsys):
    missing = tmp_path / "nodir"
    for argv in (
        ["fixture", "structured_square", "-o", str(missing / "m")],
        ["hodge", str(good_mesh_path), "-p", "0", "-o", str(missing / "x.csv")],
        ["duals", str(good_mesh_path), "-p", "0", "-o", str(missing / "d.csv")],
    ):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
    assert not missing.exists()


def test_bad_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_report_json(good_mesh_path, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["report", str(good_mesh_path), "-o", str(out_path)]) == 0
    data = json.loads(out_path.read_text())
    assert data["schema_version"] == 1
    assert data["verdict"] == "qualifying"
    assert data["dimension"] == 2
    assert data["nonpositive_duals"] == []
    # stdout variant matches the file
    assert main(["report", str(good_mesh_path)]) == 0
    assert json.loads(capsys.readouterr().out) == data


def test_duals_csv_negative_entries(skew_mesh_path, tmp_path):
    out_path = tmp_path / "duals.csv"
    assert main(["duals", str(skew_mesh_path), "-p", "1", "-o", str(out_path)]) == 0
    with open(out_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    mesh = load_complex(skew_mesh_path)
    assert len(rows) == mesh.num_simplices(1)
    assert set(rows[0]) == {
        "dim", "simplex_index", "vertices", "signed_volume",
        "unsigned_volume", "num_pieces", "num_negative_pieces",
    }
    values = np.array([float(r["signed_volume"]) for r in rows])
    assert (values < 0.0).any()


@pytest.mark.parametrize("command", ["duals", "hodge"])
def test_duals_dim_out_of_range(command, good_mesh_path, capsys):
    assert main([command, str(good_mesh_path), "-p", "5"]) == 2
    assert "--dim" in capsys.readouterr().err


def test_hodge_csv_matches_library(good_mesh_path, tmp_path):
    out_path = tmp_path / "star1.csv"
    assert main(["hodge", str(good_mesh_path), "-p", "1", "-o", str(out_path)]) == 0
    with open(out_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    mesh = load_complex(good_mesh_path)
    star = hodge_star(mesh, 1)
    assert np.array_equal(
        np.array([float(r["entry"]) for r in rows]), star.entries
    )  # 17 digits round-trip exactly


def test_hodge_modes_identical_on_well_centered(tmp_path):
    h = np.sqrt(3.0) / 2.0
    points = np.array([
        [0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
        [0.5, h], [1.5, h], [2.5, h],
    ])
    cells = [(0, 1, 3), (1, 4, 3), (1, 2, 4), (2, 5, 4)]
    build_complex(points, cells)  # sanity: valid mesh
    write_mesh(tmp_path / "strip", points, cells)
    signed_path = tmp_path / "signed.csv"
    unsigned_path = tmp_path / "unsigned.csv"
    mesh_arg = str(tmp_path / "strip.node")
    assert main(["hodge", mesh_arg, "-p", "1", "-o", str(signed_path)]) == 0
    assert main(["hodge", mesh_arg, "-p", "1", "--unsigned", "-o", str(unsigned_path)]) == 0
    assert signed_path.read_text() == unsigned_path.read_text()
    # duals accepts the flag too; the CSV schema is unchanged
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["duals", mesh_arg, "-p", "1", "-o", str(a)]) == 0
    assert main(["duals", mesh_arg, "-p", "1", "--unsigned", "-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_hodge_warns_on_nonpositive(tmp_path, capsys):
    assert main(["fixture", "structured_square", "-o", str(tmp_path / "grid")]) == 0
    capsys.readouterr()
    assert main(["hodge", str(tmp_path / "grid.node"), "-p", "1"]) == 0
    assert "nonpositive" in capsys.readouterr().err


def test_poisson_pipeline(tmp_path, capsys):
    config = {
        "divisions": 8,
        "seed": 0,
        "output_dir": str(tmp_path / "out"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["poisson", str(config_path)]) == 0
    text = (tmp_path / "out" / "summary.json").read_text()
    assert capsys.readouterr().out == text
    summary = json.loads(text)
    columns = summary["columns"]
    assert [(c["family"], c["hodge_mode"]) for c in columns] == [
        ("good", "signed"),
        ("good", "unsigned"),
        ("bad_boundary", "signed"),
        ("non_delaunay", "signed"),
    ]
    assert columns[0]["u_error"] < 1e-8
    assert columns[0]["verdict"] == "qualifying"
    assert columns[2]["nonpositive_star1"] != []
    for column in columns:
        for name in column["files"]:
            assert (tmp_path / "out" / name).exists()
    with open(tmp_path / "out" / "good_signed_u.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert set(rows[0]) == {"vertex_index", "x", "y", "u"}


def test_poisson_config_validation(tmp_path, capsys):
    missing = tmp_path / "none.json"
    assert main(["poisson", str(missing)]) == 2
    bad_keys = tmp_path / "bad.json"
    bad_keys.write_text('{"divisions": 8, "refinement": 3}')
    assert main(["poisson", str(bad_keys)]) == 2
    assert "unknown config keys" in capsys.readouterr().err
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert main(["poisson", str(not_object)]) == 2
    too_long = tmp_path / "long.json"  # beyond Python's integer-reading limit
    too_long.write_text('{"influx": 1' + "0" * 5000 + "}")
    assert main(["poisson", str(too_long)]) == 2
    assert "bad JSON" in capsys.readouterr().err
    not_utf8 = tmp_path / "latin.json"
    not_utf8.write_bytes(b'{"divisions": 4, "output_dir": "\xff"}')
    assert main(["poisson", str(not_utf8)]) == 2
    assert "bad JSON" in capsys.readouterr().err


@pytest.mark.parametrize("config, key", [
    ({"columns": "x"}, "columns"),
    ({"columns": [3]}, "columns"),
    ({"columns": [{"hodge_mode": "weird"}]}, "hodge_mode"),
    ({"influx": "a"}, "influx"),
    ({"width": True}, "width"),
    ({"seed": "a"}, "seed"),
    ({"influx": 0}, "influx"),
    ({"width": 0}, "width"),
    ({"height": -1}, "height"),
    ({"columns": [{"family": ["x"]}]}, "family"),
    ({"columns": [{"family": "good", "hodge-mode": "unsigned"}]}, "hodge-mode"),
    ({"influx": 10**400}, "influx"),
    ({"width": 10**400}, "width"),
    ({"output_dir": 5}, "output_dir"),
    ({"output_dir": ["a"]}, "output_dir"),
    ({"output_dir": None}, "output_dir"),
])
def test_poisson_malformed_config_is_input_error(config, key, tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"divisions": 4, "output_dir": str(tmp_path), **config}))
    assert main(["poisson", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


def test_poisson_failing_column_writes_no_file(tmp_path, capsys):
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "divisions": 4, "output_dir": str(out),
        "columns": [{"family": "good"}, {"family": "bogus"}],
    }))
    assert main(["poisson", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith("error: family must be one of")
    assert not out.exists()


def test_negative_seed_is_input_error(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"divisions": 4, "seed": -1, "output_dir": str(tmp_path)}))
    for argv in (
        ["fixture", "non_delaunay_square", "--seed", "-2", "-o", str(tmp_path / "x")],
        ["poisson", str(config_path)],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: seed must be nonnegative")


@pytest.mark.parametrize("args", [
    ["surface_pairwise_delaunay", "--divisions", "5"],
    ["perturbed_delaunay_square", "--jitter", "nan"],
    ["perturbed_delaunay_square", "--jitter", "inf"],
    ["delaunay_tet_cube", "--jitter", "1e308"],
    ["non_delaunay_square", "--jitter", "1e308"],
])
def test_fixture_failure_is_exit_2(args, tmp_path, capsys):
    # stderr is the error line alone: a huge jitter overflows the cheap
    # gates of an attempt, which reject it without a numpy warning
    code = main(["fixture", *args, "-o", str(tmp_path / "s")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def _csv_module_text(header, rows):
    """The reference format: what csv.writer writes, doubles as %.17g."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(
        [f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows
    )
    return buffer.getvalue()


def _file_and_stdout(argv, path, capsys):
    """The CLI's output for argv, written with -o path and to stdout."""
    assert main(argv + ["-o", str(path)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert path.read_bytes().decode() == out
    return out


@pytest.mark.parametrize("family", ["obtuse_delaunay_square", "delaunay_tet_cube"])
def test_duals_and_hodge_csv_format_pinned(family, tmp_path, capsys):
    # exact header, \r\n line ends and 17 significant digits, for every
    # dimension, to a file and to stdout alike
    mesh_path = tmp_path / "m.node"
    assert main(["fixture", family, "--divisions", "2", "-o", str(mesh_path)]) == 0
    mesh = load_complex(mesh_path)
    for p in range(mesh.n + 1):
        table = dual_table(mesh, p)
        rows = [
            [p, i, " ".join(str(v) for v in vertices), float(table.signed_volume[i]),
             float(table.unsigned_volume[i]), int(table.num_pieces[i]),
             int(table.num_negative_pieces[i])]
            for i, vertices in enumerate(mesh.simplices[p].tolist())
        ]
        header = ["dim", "simplex_index", "vertices", "signed_volume",
                  "unsigned_volume", "num_pieces", "num_negative_pieces"]
        out = _file_and_stdout(["duals", str(mesh_path), "-p", str(p)], tmp_path / "d.csv", capsys)
        assert out == _csv_module_text(header, rows)
        assert out.count("\r\n") == len(rows) + 1 and "\n" not in out.replace("\r\n", "")
        for mode in ("signed", "unsigned"):
            flag = ["--unsigned"] if mode == "unsigned" else []
            argv = ["hodge", str(mesh_path), "-p", str(p), *flag]
            out = _file_and_stdout(argv, tmp_path / "h.csv", capsys)
            entries = hodge_star(mesh, p, mode=mode).entries.tolist()
            assert out == _csv_module_text(["index", "entry"], enumerate(entries))


def test_poisson_csv_format_pinned(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "divisions": 6, "seed": 2, "output_dir": str(tmp_path / "out"),
        "columns": [{"family": "good", "hodge_mode": "signed"}],
    }))
    assert main(["poisson", str(config_path)]) == 0
    capsys.readouterr()
    result = figure1_experiment(family="good", hodge_mode="signed", divisions=6, seed=2)
    mesh, solution = result.mesh, result.solution
    expected = {
        "good_signed_u.csv": _csv_module_text(
            ["vertex_index", "x", "y", "u"],
            [[i, x, y, u] for i, ((x, y), u) in enumerate(
                zip(mesh.points.tolist(), solution.u.tolist()))],
        ),
        "good_signed_sigma.csv": _csv_module_text(
            ["edge_index", "tail", "head", "sigma"],
            [[i, *edge, s] for i, (edge, s) in enumerate(
                zip(mesh.simplices[1].tolist(), solution.sigma.tolist()))],
        ),
        "good_signed_flux_vectors.csv": _csv_module_text(
            ["triangle_index", "vec_x", "vec_y"],
            [[t, *vec] for t, vec in enumerate(sigma_vectors(mesh, solution.sigma).tolist())],
        ),
    }
    for name, text in expected.items():
        assert (tmp_path / "out" / name).read_bytes().decode() == text


def test_cached_parser_keeps_no_options_between_calls(tmp_path, capsys):
    assert _build_parser() is _build_parser()
    mesh_path = tmp_path / "skew.node"
    assert main(["fixture", "non_delaunay_square", "-o", str(mesh_path)]) == 0
    mesh = load_complex(mesh_path)
    capsys.readouterr()
    # the two modes differ on this mesh, so a leaked --unsigned would show
    assert not np.array_equal(hodge_star(mesh, 1).entries, hodge_star(mesh, 1, "unsigned").entries)
    runs = [(["--unsigned"], "unsigned"), ([], "signed")]
    for flags, mode in runs:
        assert main(["hodge", str(mesh_path), "-p", "1", *flags]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        entries = [float(row["entry"]) for row in rows]
        assert entries == hodge_star(mesh, 1, mode=mode).entries.tolist()
    # a --seed given once does not stick: the next call gets the default mesh
    default = generate_fixture("perturbed_delaunay_square")
    for seed in (["--seed", "3"], []):
        argv = ["fixture", "perturbed_delaunay_square", *seed, "-o", str(tmp_path / "p")]
        assert main(argv) == 0
    assert np.array_equal(read_mesh(tmp_path / "p.node").points, default.points)
    assert not np.array_equal(
        generate_fixture("perturbed_delaunay_square", seed=3).points, default.points
    )


def _report_dict(mesh, report):
    """The reference report: the writer must give its json.dumps text."""
    return {
        "schema_version": SCHEMA_VERSION,
        "dimension": mesh.n,
        "ambient_dimension": mesh.N,
        "num_simplices": {str(p): mesh.num_simplices(p) for p in range(mesh.n + 1)},
        **report.as_dict(),
    }


def _check_text(mesh, report):
    """The reference ``check`` stdout, with statuses counted from the list views."""
    def counts(rows, none):
        tally = Counter(status for _, _, status in rows)
        return ", ".join(f"{v} {k}" for k, v in sorted(tally.items())) or none

    sizes = ", ".join(f"{mesh.num_simplices(p)} of dim {p}" for p in range(mesh.n + 1))
    return "".join(line + "\n" for line in [
        f"mesh: n={mesh.n}, N={mesh.N}; {sizes}",
        "pairwise Delaunay: " + counts(report.pair_statuses, "no internal facets"),
        "boundary one-sided: " + counts(report.boundary_statuses, "no boundary"),
        f"nonpositive dual volumes: {len(report.nonpositive_duals)}",
        *(f"  dim {d} simplex {i}: {v:.17g}" for d, i, v in report.nonpositive_duals[:10]),
        f"verdict: {report.verdict}",
    ])


def _report_case(case):
    """(points, cells) of a named fixture family or of one edge case."""
    if case in FIXTURE_NAMES:
        mesh = generate_fixture(case)
        return mesh.points, mesh.simplices[mesh.n]
    if case == "one_triangle":  # no internal facets
        return np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]]), [(0, 1, 2)]
    if case == "acute_strip":  # qualifying, no nonpositive duals
        h = np.sqrt(3.0) / 2.0
        points = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.5, h], [1.5, h], [2.5, h]])
        return points, [(0, 1, 3), (1, 4, 3), (1, 2, 4), (2, 5, 4)]
    points = np.random.default_rng(50).random((50, 3))  # random_tets
    return points, Delaunay(points).simplices


@pytest.mark.parametrize(
    "case", [*FIXTURE_NAMES, "one_triangle", "acute_strip", "random_tets"]
)
def test_report_and_check_text_pinned(case, tmp_path, capsys):
    mesh_path = write_mesh(tmp_path / "m", *_report_case(case))[0]
    mesh = load_complex(mesh_path)
    report = classify_complex(mesh)
    out = _file_and_stdout(["report", str(mesh_path)], tmp_path / "r.json", capsys)
    assert out == json.dumps(_report_dict(mesh, report), indent=2) + "\n"
    main(["check", str(mesh_path)])
    assert capsys.readouterr().out == _check_text(mesh, report)
    if case == "one_triangle":
        assert '"pairwise_delaunay": [],' in out
    if case == "acute_strip":
        assert report.is_qualifying and '"nonpositive_duals": []' in out
