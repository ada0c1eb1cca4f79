import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fareyweb import cli, rotation, tongue
from fareyweb.config import load_config
from fareyweb.farey import Frac
from fareyweb.lift import SINE, BoundSide, FamilyParams

BASE = [sys.executable, "-m", "fareyweb"]
# the child imports the package from this checkout whether or not it is installed
SRC = str(Path(cli.__file__).resolve().parents[1])
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run(args):
    return subprocess.run(BASE + list(args), capture_output=True, env=ENV)


def run_cli(*args, expect=0):
    proc = run(args)
    assert proc.returncode == expect, proc.stderr.decode()
    return proc


def test_usage_error_exits_2(capsys):
    proc = run(["tongue"])
    assert proc.returncode == 2
    # an option that only some --op values need is named when it is missing
    for op, needle in (("parents", "--frac"), ("children", "--frac"), ("level", "--frac"),
                       ("path", "--omega")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["farey", "--op", op])
        assert exc.value.code == 2
        assert f"needs {needle}" in capsys.readouterr().err


def test_negative_ranges_parse(tmp_path, capsys):
    out = str(tmp_path / "out.csv")
    assert cli.main(["scan", "--a", "-0.5:0.5:3", "--b", "1:1.2:2", "--out", out]) == 0
    assert [line.split(",")[0] for line in Path(out).read_text().splitlines()[2:5]] == [
        "-0.5", "0.0", "0.5"]
    for args, needle in ((["tongue", "--frac", "1/2", "--b", "-1:1:3"],
                          "b must be non-negative"),
                         (["strand", "--frac", "1/2", "--side", "R", "--b", "-1:1:2"],
                          "b_critical <= b_lo"),
                         (["web", "--max-level", "0", "--b", "-1:1:2"], "b_critical <= b_lo"),
                         (["scan", "--a", "0:1:2", "--b", "-1:-0.5:2"], "non-negative")):
        assert cli.main(args + ["--out", out]) == 1, args
        assert needle in capsys.readouterr().err, args


def test_unknown_config_key_exits_1(capsys):
    rotnum = ["rotnum", "--a", "0.3", "--b", "0.5"]
    cases = [
        (["--set", "nope=3", *rotnum], "nope"),
        # integer fields below 1 would run a 1-step orbit or divide by zero
        (["--set", "rot_max_iter=0", *rotnum], "rot_max_iter"),
        (["--set", "grid_base=0", "--set", "grid_per_q=0",
          "tongue", "--frac", "1/2", "--b", "1:1.2:2"], "grid_base"),
        # the raster cells' own grid is gone; lock cells use the library grid
        (["--set", "scan_grid_base=1024", *rotnum], "unknown config key 'scan_grid_base'"),
        (["--set", "q_cap=0", *rotnum], "q_cap"),
        # float fields must be finite: a NaN tolerance ends every bisection at
        # once, an infinite one skips it
        (["--set", "solver_tol=nan", "tongue", "--frac", "1/2", "--b", "1:1.5:3"],
         "solver_tol"),
        (["--set", "solver_tol=inf", "bpoint", "--frac", "3/8"], "solver_tol"),
        (["--set", "b_step=nan", *rotnum], "b_step"),
        (["--set", "b_ceiling=inf", *rotnum], "b_ceiling"),
        (["--set", "scan_tol=-inf", *rotnum], "scan_tol"),
        # a value that does not cast names its key
        (["--set", "rot_max_iter=inf", *rotnum], "rot_max_iter"),
        (["--set", "q_cap=1e3", *rotnum], "q_cap"),
        # non-finite parameters name their field
        (["rotnum", "--a", "inf", "--b", "0.5"], "a must be finite"),
        (["rotnum", "--a", "nan", "--b", "0.5"], "a must be finite"),
        (["rotnum", "--a", "0.3", "--b", "nan"], "b must be non-negative and finite"),
        (["verify", "--suite", "fact9_tangency", "--param", "b=nan"],
         "b must be non-negative and finite"),
        # a negative level would write an empty web
        (["web", "--max-level", "-1", "--b", "1:1.1:2"], "--max-level"),
    ]
    for args, needle in cases:
        assert cli.main(args) == 1, args
        err = capsys.readouterr().err
        assert needle in err, (args, err)


def test_unreadable_config_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert cli.main(["--config", str(missing), "rotnum", "--a", "0.3", "--b", "1.8"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


def test_unwritable_out_exits_1(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.json"
    assert cli.main(["rotnum", "--a", "0.3", "--b", "1.8", "--tol", "1e-4",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert not out.exists()


def test_rotnum_json():
    proc = run_cli("rotnum", "--a", "0.0", "--b", "2.0", "--tol", "1e-4")
    doc = json.loads(proc.stdout)
    assert doc["lower"]["exact"] == [0, 1]
    assert doc["width"] == 0.0


def test_rotnum_tol_is_the_applied_rot_tol():
    doc = json.loads(run_cli("rotnum", "--a", "0.3", "--b", "0.5", "--tol", "1e-3").stdout)
    assert doc["config"]["rot_tol"] == 1e-3
    for side in ("lower", "upper"):
        assert doc[side]["hi"] - doc[side]["lo"] <= 1e-3
    for bad in ("0", "-1", "nan", "inf"):
        proc = run_cli("rotnum", "--a", "0.3", "--b", "0.5", "--tol", bad, expect=1)
        assert b"rot_tol" in proc.stderr


def test_farey_ops():
    doc = json.loads(run_cli("farey", "--op", "parents", "--frac", "3/8").stdout)
    assert (doc["left"], doc["right"]) == ("1/3", "2/5")
    doc = json.loads(run_cli("farey", "--op", "children", "--frac", "1/2",
                             "--side", "R", "--count", "3").stdout)
    assert doc["children"] == ["2/3", "3/5", "4/7"]
    doc = json.loads(run_cli("farey", "--op", "level", "--frac", "4/7").stdout)
    assert doc["level"] == 4
    doc = json.loads(run_cli("farey", "--op", "path", "--omega", "0.618033988749",
                             "--depth", "5").stdout)
    assert doc["path"] == ["1/2", "2/3", "3/5", "5/8", "8/13"]


def test_farey_counts_must_be_positive(capsys):
    for args in (["--op", "children", "--frac", "1/2", "--count", "-3"],
                 ["--op", "children", "--frac", "1/2", "--count", "0"],
                 ["--op", "path", "--omega", "0.5", "--depth", "0"]):
        assert cli.main(["farey", *args]) == 1, args
        assert "must be positive" in capsys.readouterr().err, args


def test_farey_path_rejects_non_finite_omega(capsys):
    for omega in ("inf", "-inf", "nan", "1e400"):
        assert cli.main(["farey", "--op", "path", f"--omega={omega}"]) == 1, omega
        assert "error: omega must lie in [0, 1]" in capsys.readouterr().err, omega


def test_construct_stage1_counts():
    doc = json.loads(run_cli("construct", "--stages", "1", "--format", "json").stdout)
    assert len(doc["vertices"]) == 6
    assert len(doc["doglegs"]) == 1


def test_construct_svg_deterministic():
    a = run_cli("construct", "--stages", "3", "--format", "svg").stdout
    b = run_cli("construct", "--stages", "3", "--format", "svg").stdout
    assert a == b
    assert a.startswith(b"<?xml")


def test_tongue_csv_shape_and_determinism():
    a = run_cli("tongue", "--frac", "0/1", "--b", "0:1:3").stdout
    b = run_cli("tongue", "--frac", "0/1", "--b", "0:1:3").stdout
    assert a == b
    lines = a.decode().strip().splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "b,phi2,psi1,psi2,phi1"
    assert len(lines) == 5


def test_tongue_single_step_runs_one_section(tmp_path, monkeypatch):
    sec = tongue.section(Frac(1, 2), 1.0)
    calls = []
    section = tongue.section
    monkeypatch.setattr(tongue, "section", lambda *args: calls.append(args) or section(*args))
    out = tmp_path / "tongue.csv"
    assert cli.main(["tongue", "--frac", "1/2", "--b", "1:2:1", "--out", str(out)]) == 0
    assert len(calls) == 1
    assert out.read_text().splitlines()[2:] == [
        f"{sec.b!r},{sec.phi2!r},{sec.psi1!r},{sec.psi2!r},{sec.phi1!r}"]


def test_strand_csv():
    out = run_cli("strand", "--frac", "1/2", "--side", "R", "--b", "1:1.2:3").stdout
    lines = out.decode().strip().splitlines()
    assert lines[1] == "b,a,constraints_verified"
    first = lines[2].split(",")
    assert abs(float(first[1]) - 0.5) < 1e-9
    assert first[2] == "1"


def test_bpoint_json():
    doc = json.loads(run_cli("bpoint", "--frac", "1/2").stdout)
    assert abs(doc["a"] - 0.5) < 1e-10 and doc["b"] == 1.0


def test_bpoint_checks_the_cap(capsys):
    for argv in (["bpoint", "--frac", "1/200"], ["--set", "q_cap=2", "bpoint", "--frac", "1/3"]):
        assert cli.main(argv) == 1, argv
        assert "exceeds cap" in capsys.readouterr().err, argv


def test_tip_intersection_json():
    proc = run_cli("--set", "b_tol=1e-8", "tip", "--frac", "1/2",
                   "--method", "intersection")
    doc = json.loads(proc.stdout)
    tip = doc["tips"][0]
    assert abs(tip["a"] - 0.5) < 1e-7
    assert tip["method"] == "intersection"


def test_scan_csv_deterministic_and_lock_interval():
    args = ["scan", "--a=-0.2:0.2:9", "--b", "0.5:0.5:1", "--mode", "lock:0/1"]
    a = run_cli(*args).stdout
    b = run_cli(*args).stdout
    assert a == b
    rows = [line.split(",") for line in a.decode().strip().splitlines()[2:]]
    marked = [float(r[0]) for r in rows if r[2] == "1.0"]
    # locking interval of 0/1 at b=0.5 is |a| <= 0.5/2pi ~ 0.0796
    assert marked
    assert abs(min(marked) + 0.05) < 1e-12 and abs(max(marked) - 0.05) < 1e-12
    unmarked_inner = [float(r[0]) for r in rows
                      if r[2] != "1.0" and abs(float(r[0])) < 0.079]
    assert not unmarked_inner


def test_scan_lock_half_matches_section_edges():
    import fareyweb
    proc = run_cli("scan", "--a", "0.40:0.60:41", "--b", "1.2:1.2:1",
                   "--mode", "lock:1/2")
    rows = [line.split(",") for line in proc.stdout.decode().strip().splitlines()[2:]]
    marked = [float(r[0]) for r in rows if r[2] == "1.0"]
    cell = 0.2 / 40
    psi1, psi2 = fareyweb.locking_interval(fareyweb.Frac(1, 2), 1.2)
    assert marked == sorted(marked)
    assert abs(min(marked) - psi1) <= cell
    assert abs(max(marked) - psi2) <= cell
    # contiguous block
    idx = [i for i, r in enumerate(rows) if r[2] == "1.0"]
    assert idx == list(range(idx[0], idx[-1] + 1))


def test_lock_raster_cells_decide_on_corner_orbits(tmp_path, monkeypatch):
    # each cell is lock_status at the echoed config; from the critical line up
    # the plateau-corner orbits decide the cells, and the grid runs only for a
    # bound whose corner orbit leaves it undecided, never for a certified one
    grid, undecided, cells = [], set(), []
    extremum, bound_sign, status = rotation._disp_extremum, rotation._bound_sign, cli.lock_status

    def sign_logged(params, side, *args):
        v = bound_sign(params, side, *args)
        if not math.isinf(v):
            undecided.add((params, side))
        return v

    monkeypatch.setattr(rotation, "_disp_extremum", lambda params, side, *args, **kw:
                        grid.append((params, side)) or extremum(params, side, *args, **kw))
    monkeypatch.setattr(rotation, "_bound_sign", sign_logged)
    monkeypatch.setattr(cli, "lock_status", lambda *args, **kw: cells.append(args[0]) or
                        status(*args, **kw))
    c, out = 1 / 3, tmp_path / "lock.csv"
    assert cli.main(["scan", "--a", f"{c - 0.1!r}:{c + 0.1!r}:16", "--b", "1:2:16",
                     "--mode", "lock:1/3", "--out", str(out)]) == 0
    assert len(cells) == 256
    assert set(grid) == undecided and len(grid) == len(undecided)
    assert len(undecided) <= 0.05 * len(cells)
    monkeypatch.undo()
    value = {"locked": 1.0, "uncertain": 0.5, "not_locked": 0.0}
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert {r[2] for r in rows} == {"0.0", "1.0"}
    for params, (_, _, v) in zip(cells, rows):
        assert float(v) == value[rotation.lock_status(params, Frac(1, 3)).state]


def test_scan_width_cells_match_scalar_orbits(tmp_path):
    # b rows below, on and above the critical line
    out = tmp_path / "width.csv"
    assert cli.main(["scan", "--a=-0.5:1.5:5", "--b", "0:3:7", "--mode", "width",
                     "--out", str(out)]) == 0
    n = 2000  # 2 / scan_tol at the default configuration
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert len(rows) == 35
    for a, b, value in rows:
        params = FamilyParams(float(a), float(b))
        up = SINE.iterate(params, BoundSide.UPPER, 0.0, n)
        low = SINE.iterate(params, BoundSide.LOWER, 0.0, n)
        assert float(value) == max(0.0, up / n - low / n), (a, b)
    # a non-finite bound would fill the raster with NaN cells
    for bad in ("nan:1:3", "0:inf:3"):
        assert cli.main(["scan", "--a", bad, "--b", "1:2:2", "--out", str(out)]) == 1


def test_width_raster_refuses_a_scan_tol_it_cannot_apply(tmp_path, capsys):
    # 2 / scan_tol = 2000 map steps; a shorter orbit would be wider than the
    # scan_tol that the header echoes
    args = ["scan", "--a", "0.2:0.3:2", "--b", "1.5:1.5:1", "--mode", "width",
            "--out", str(tmp_path / "width.csv")]
    assert cli.main(["--set", "rot_max_iter=100", *args]) == 1
    err = capsys.readouterr().err
    assert "scan_tol=0.001" in err and "rot_max_iter=100" in err, err
    assert cli.main(["--set", "rot_max_iter=2000", *args]) == 0
    # 2 / scan_tol overflows to inf here
    assert cli.main(["--set", "scan_tol=1e-320", *args]) == 1
    assert "rot_max_iter=10000000" in capsys.readouterr().err


def test_width_raster_refusals_hold_without_orbits(tmp_path, capsys):
    # rows up to the critical line run no orbit, yet every refusal stands
    out = str(tmp_path / "width.csv")
    for args, needle in ((["--b", "-1:-0.5:2"], "b must be non-negative, got -1.0"),
                         (["--b", "-1:2:4"], "b must be non-negative, got -1.0"),
                         (["--b", "4:5:2"], "family out of range"),
                         (["--set", "rot_max_iter=100", "--b", "0:1:2"], "rot_max_iter=100")):
        argv = [*args[:-2], "scan", "--a", "0:1:2", *args[-2:], "--out", out]
        assert cli.main(argv) == 1, args
        assert needle in capsys.readouterr().err, args

def test_set_overrides_do_not_outlive_their_call(tmp_path):
    # one parser serves every call in a process; what --set applied in one call
    # is gone from the next call's "# config:" echo
    out = tmp_path / "tongue.csv"
    argv = ["tongue", "--frac", "0/1", "--b", "0:0:1", "--out", str(out)]
    for sets, want in ((["rot_tol=0.001"], "rot_tol=0.001 "),
                       (["q_cap=64"], "rot_tol=1e-06 "),
                       ([], "q_cap=128 ")):
        assert cli.main([arg for kv in sets for arg in ("--set", kv)] + argv) == 0
        header = out.read_text().splitlines()[0]
        assert header == load_config(overrides=sets).header() and want in header, header
    assert cli.build_parser() is cli.build_parser()


def test_scan_pgm_header():
    out = run_cli("scan", "--a", "0:0.5:4", "--b", "1.0:1.2:2", "--mode", "width",
                  "--format", "pgm").stdout
    assert out.startswith(b"P5\n")
    header_end = out.index(b"65535\n") + 6
    # netpbm: '#' starts a comment to the end of its line; the other header
    # tokens are the magic number, width, height and maxval
    assert re.sub(rb"#[^\n]*", b"", out[:header_end]).split() == [b"P5", b"4", b"2", b"65535"]
    body = out[header_end:]
    assert len(body) == 4 * 2 * 2  # nx * ny * 2 bytes


def test_verify_suite_exit_codes():
    run_cli("verify", "--suite", "schwarzian", expect=0)
    proc = run(["verify", "--suite", "corollary1", "--param", "chain=1/3,1/2"])
    assert proc.returncode == 3


def test_verify_without_cases_exits_1(capsys):
    # a suite that checks nothing must not pass; a chain of one value has no margin
    for suite, param, needles in (("theorem2", "jmax=0", ("'theorem2'", "jmax", "nothing")),
                                  ("corollary1", "chain=1/2", ("at least two values",)),
                                  ("theorem5", "jmax=1", ("at least two values",)),
                                  ("schwarzian", "n_grid=0", ("n_grid", "positive"))):
        assert cli.main(["verify", "--suite", suite, "--param", param]) == 1, suite
        err = capsys.readouterr().err
        assert all(needle in err for needle in needles), (suite, err)


def test_verify_honours_config():
    proc = run_cli("--set", "q_cap=1", "verify", "--suite", "fact9_tangency",
                   "--param", "frac=1/2", expect=1)
    assert b"exceeds cap" in proc.stderr


def test_verify_unknown_param_exits_1():
    for param in ("bogus=1", "num=1"):
        proc = run_cli("verify", "--suite", "schwarzian", "--param", param, expect=1)
        assert proc.stderr.startswith(b"error: ") and b"Traceback" not in proc.stderr
        assert param.split("=")[0].encode() in proc.stderr


def test_verify_scalar_for_a_sample_set():
    # a one-element sample set arrives from the command line as a bare value
    proc = run_cli("verify", "--suite", "schwarzian", "--param", "bs=1.5")
    assert b"PASS (1/1)" in proc.stdout
    proc = run_cli("verify", "--suite", "fact1_order", "--param", "fracs=1/2",
                   "--param", "bs=1.5")
    assert b"PASS (5/5)" in proc.stdout


def test_verify_untakeable_param_exits_1():
    for suite, param in (("theorem4", "pairs=1/2,1/3"), ("theorem1", "frac=0.5")):
        proc = run_cli("verify", "--suite", suite, "--param", param, expect=1)
        assert proc.stderr.startswith(b"error: ") and b"Traceback" not in proc.stderr


def test_verify_json_output():
    proc = run_cli("verify", "--suite", "fact9_tangency", "--json")
    doc = json.loads(proc.stdout)
    assert doc["suite"] == "fact9_tangency" and doc["passed"]


def test_verify_json_is_strict_with_finite_slack():
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    for suite in ("schwarzian", "fact9_tangency", "tip_cycle"):
        proc = run_cli("verify", "--suite", suite, "--json")
        doc = json.loads(proc.stdout, parse_constant=reject)
        assert doc["suite"] == suite and doc["cases"], suite
        assert all(np.isfinite(c["slack"]) for c in doc["cases"]), suite


def test_verify_tip_cycle_json_exports_shift_slack():
    doc = json.loads(run_cli("verify", "--suite", "tip_cycle", "--json").stdout)
    shifts = [c for c in doc["cases"] if " shifts the " in c["label"]]
    assert len(shifts) == 8
    # each shift case reports how far its farthest image lies inside the 1e-6 band
    assert all(c["passed"] and 0.0 < c["slack"] < c["threshold"] == 1e-6 for c in shifts)
    assert doc["worst_residual"] == min(c["slack"] for c in doc["cases"]) > 0.0


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rot_tol = 1e-3\nq_cap=128\n# comment\n")
    out = run_cli("--config", str(cfg), "tongue", "--frac", "0/1", "--b", "0:0:1").stdout
    assert b"rot_tol=0.001" in out


#: sha256 of each artifact at the default configuration.  The numbers are
#: deterministic on one platform; a change meant to alter an artifact updates
#: its digest here.
GOLDEN = [
    (["--set", "rot_tol=1e-4", "rotnum", "--a", "0.3", "--b", "1.8"],
     "c251bb1def703ddbe7704a8a29c42aadb30cd5806a651243e4dc3dff45b330f4"),
    (["tongue", "--frac", "1/2", "--b", "1:1.5:3"],
     "a75401c66d4903edb94c7ec08ca03625c4f0a2bee02e26f949186afcdf02db30"),
    (["strand", "--frac", "3/8", "--side", "R", "--b", "1:2:5", "--method", "continued"],
     "36c1ae050b36cb54534790c18e6ec31edef8f3df4ff51a9608f699e5dcb8d9c6"),
    (["bpoint", "--frac", "3/8"],
     "f0679cd416ea085be5db3f6860134abe2396339f1e9bc0062832ff1dc9b97167"),
    (["--set", "b_tol=1e-8", "tip", "--frac", "1/2", "--method", "intersection"],
     "51451f8c12ddbef331b36559439e56c43174fcf19c63a73d1ac32ee65258afbf"),
    (["web", "--max-level", "2", "--b", "1:1.5:5"],
     "8489e5ef9a59c71ad5585da72e085702815f2b5ba14b8d63d08b2bf8cb34a5c3"),
    (["scan", "--a", "0.4:0.6:5", "--b", "1.0:1.4:3", "--mode", "lock:1/2"],
     "134fa0339fd7c47c60be69b90f8b0e1f07ffb54e8aae19a4fffa4a0ea9415417"),
    (["scan", "--a", "0:0.5:4", "--b", "1.0:1.2:3", "--mode", "width", "--format", "pgm"],
     "4a46780069fe30c8b367a11230508d8e7cee87397c42fcc4ab2538f7e05f114c"),
    # the README's plane PGM, and a lock raster whose b = 1 row reads corner orbits
    (["scan", "--a", "0:1:200", "--b", "1:2:200", "--mode", "width", "--format", "pgm"],
     "846110b4a43189e351c3a6b7e9fbebe424b241c0d6a7e9bae6eb0d10fe888c5c"),
    (["scan", "--a", "0.3:0.45:64", "--b", "1:1.6:64", "--mode", "lock:3/8"],
     "56483ada105af46e56831c30bacd61109ec1a82c065eb2ade2a1a2e2b203e18b"),
    # rows below, on and above the critical line, from a negative a
    (["scan", "--a=-0.5:1.5:24", "--b", "0:3:25", "--mode", "width"],
     "6f7e614dec23780824ff139118f1f6ee137041191379b495e4332622225d1975"),
    (["verify", "--suite", "fact9_tangency", "--json"],
     "18f1a5c235de5c17734a725aac15e9f17e24006e8cf9f4b57366afe28fcc08ad"),
    (["construct", "--stages", "3", "--format", "svg"],
     "31f62dc2f6547ccfc1a46c6aa1b439fad5b0d6a5c07cf3fa0ee240eb7f61a487"),
]


def test_golden_artifacts(tmp_path):
    out = tmp_path / "artifact"
    for argv, digest in GOLDEN:
        assert cli.main(argv + ["--out", str(out)]) == 0, argv
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv
