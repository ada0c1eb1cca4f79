import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from fareyweb import cli
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


def test_usage_error_exits_2():
    proc = run(["tongue"])
    assert proc.returncode == 2


def test_unknown_config_key_exits_1():
    rotnum = ["rotnum", "--a", "0.3", "--b", "0.5"]
    cases = [
        (["--set", "nope=3", *rotnum], b"nope"),
        # integer fields below 1 would run a 1-step orbit or divide by zero
        (["--set", "rot_max_iter=0", *rotnum], b"rot_max_iter"),
        (["--set", "grid_base=0", "--set", "grid_per_q=0",
          "tongue", "--frac", "1/2", "--b", "1:1.2:2"], b"grid_base"),
        (["--set", "scan_grid_base=0", *rotnum], b"scan_grid_base"),
        (["--set", "scan_grid_per_q=0", *rotnum], b"scan_grid_per_q"),
        (["--set", "snap_qmax=0", *rotnum], b"snap_qmax"),
        # float fields must be finite: a NaN tolerance ends every bisection at
        # once, an infinite one skips it
        (["--set", "solver_tol=nan", "tongue", "--frac", "1/2", "--b", "1:1.5:3"],
         b"solver_tol"),
        (["--set", "solver_tol=inf", "bpoint", "--frac", "3/8"], b"solver_tol"),
        (["--set", "b_step=nan", *rotnum], b"b_step"),
        (["--set", "b_ceiling=inf", *rotnum], b"b_ceiling"),
        (["--set", "scan_tol=-inf", *rotnum], b"scan_tol"),
    ]
    for args, needle in cases:
        proc = run(args)
        assert proc.returncode == 1, args
        assert needle in proc.stderr, (args, proc.stderr)


def test_rotnum_json():
    proc = run_cli("rotnum", "--a", "0.0", "--b", "2.0", "--tol", "1e-4")
    doc = json.loads(proc.stdout)
    assert doc["lower"]["exact"] == [0, 1]
    assert doc["width"] == 0.0


def test_rotnum_tol_is_the_applied_rot_tol():
    doc = json.loads(run_cli("rotnum", "--a", "0.3", "--b", "0.5", "--tol", "1e-3").stdout)
    assert doc["config"]["rot_tol"] == 1e-3
    assert doc["lower"]["iterations"] == 2000
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


def test_scan_pgm_header():
    out = run_cli("scan", "--a", "0:0.5:4", "--b", "1.0:1.2:2", "--mode", "width",
                  "--format", "pgm").stdout
    assert out.startswith(b"P5\n")
    header_end = out.index(b"65535\n") + 6
    body = out[header_end:]
    assert len(body) == 4 * 2 * 2  # nx * ny * 2 bytes


def test_verify_suite_exit_codes():
    run_cli("verify", "--suite", "schwarzian", expect=0)
    proc = run(["verify", "--suite", "corollary1", "--param", "chain=1/3,1/2"])
    assert proc.returncode == 3


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


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rot_tol = 1e-3\nsnap_qmax=128\n# comment\n")
    out = run_cli("--config", str(cfg), "tongue", "--frac", "0/1", "--b", "0:0:1").stdout
    assert b"rot_tol=0.001" in out


#: sha256 of each artifact at the default configuration.  The numbers are
#: deterministic on one platform; a change meant to alter an artifact updates
#: its digest here.
GOLDEN = [
    (["--set", "rot_tol=1e-4", "rotnum", "--a", "0.3", "--b", "1.8"],
     "b27fd9fb47ae0492c5995f19b8691b3a42f2366f651888c26f41e7fc6946e73b"),
    (["tongue", "--frac", "1/2", "--b", "1:1.5:3"],
     "cba08eb420d824d3c85900b1e7321dd266e3d634e08850779f8e6822207684d4"),
    (["strand", "--frac", "3/8", "--side", "R", "--b", "1:2:5", "--method", "continued"],
     "db53b327e4a577ce25fd1579f63f7b3e48e49fe6058108e523d0b6b4c124362f"),
    (["bpoint", "--frac", "3/8"],
     "031a8f2b76cda1f5dd182fed97ecaf828d9620efa480763163641620a8aae241"),
    (["--set", "b_tol=1e-8", "tip", "--frac", "1/2", "--method", "intersection"],
     "3c6cc0294c2f7310d45702db68a0b940dcd7f9148e72300574f10822ffad59ea"),
    (["web", "--max-level", "2", "--b", "1:1.5:5"],
     "e3ea7a0357fd3f465087c5dccb3b088b926bcd95681de86f31c03f2ff940db94"),
    (["scan", "--a", "0.4:0.6:5", "--b", "1.0:1.4:3", "--mode", "lock:1/2"],
     "dc71bedad3b13578d72636f5702b7588b30585d1d4c5a8f0d4ea352bc4f74c6e"),
    (["scan", "--a", "0:0.5:4", "--b", "1.0:1.2:3", "--mode", "width", "--format", "pgm"],
     "0bf1c0217203f53f978077faec8f8c57c5d7d342c8e7740589c9a13b81c28436"),
    (["verify", "--suite", "fact9_tangency", "--json"],
     "29380822f45f0d2f778ed3c66571132ec20347ed910d552bb9e59045c293772d"),
    (["construct", "--stages", "3", "--format", "svg"],
     "31f62dc2f6547ccfc1a46c6aa1b439fad5b0d6a5c07cf3fa0ee240eb7f61a487"),
]


def test_golden_artifacts(tmp_path):
    out = tmp_path / "artifact"
    for argv, digest in GOLDEN:
        assert cli.main(argv + ["--out", str(out)]) == 0, argv
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv
