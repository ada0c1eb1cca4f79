import hashlib
import json
import subprocess
import sys

from fareyweb import cli

BASE = [sys.executable, "-m", "fareyweb"]


def run_cli(*args, expect=0):
    proc = subprocess.run(BASE + list(args), capture_output=True)
    assert proc.returncode == expect, proc.stderr.decode()
    return proc


def test_usage_error_exits_2():
    proc = subprocess.run(BASE + ["tongue"], capture_output=True)
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
    ]
    for args, needle in cases:
        proc = subprocess.run(BASE + args, capture_output=True)
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
    for bad in ("0", "-1"):
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


def test_scan_parallel_matches_serial():
    args = ["scan", "--a", "0:0.5:6", "--b", "1.1:1.3:3", "--mode", "width"]
    serial = run_cli(*args).stdout.split(b"\n", 1)[1]
    parallel = run_cli("--set", "workers=2", *args).stdout.split(b"\n", 1)[1]
    # identical rows in identical order; only the echoed config differs
    assert serial == parallel


def test_scan_pgm_header():
    out = run_cli("scan", "--a", "0:0.5:4", "--b", "1.0:1.2:2", "--mode", "width",
                  "--format", "pgm").stdout
    assert out.startswith(b"P5\n")
    header_end = out.index(b"65535\n") + 6
    body = out[header_end:]
    assert len(body) == 4 * 2 * 2  # nx * ny * 2 bytes


def test_verify_suite_exit_codes():
    run_cli("verify", "--suite", "schwarzian", expect=0)
    proc = subprocess.run(BASE + ["verify", "--suite", "corollary1",
                                  "--param", "chain=1/3,1/2"], capture_output=True)
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


def test_verify_json_output():
    proc = run_cli("verify", "--suite", "fact9_tangency", "--json")
    doc = json.loads(proc.stdout)
    assert doc["suite"] == "fact9_tangency" and doc["passed"]


def test_config_file_roundtrip(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rot_tol = 1e-3\nworkers=1\n# comment\n")
    out = run_cli("--config", str(cfg), "tongue", "--frac", "0/1", "--b", "0:0:1").stdout
    assert b"rot_tol=0.001" in out


#: sha256 of each artifact at the default configuration.  The numbers are
#: deterministic on one platform; a change meant to alter an artifact updates
#: its digest here.
GOLDEN = [
    (["--set", "rot_tol=1e-4", "rotnum", "--a", "0.3", "--b", "1.8"],
     "36b5a03f309c6d300a246c3a385d018a36704e45ef1ec257bbfeef7de335eb1a"),
    (["tongue", "--frac", "1/2", "--b", "1:1.5:3"],
     "a11d8ae38b0a0911cfdcd3b5624f3edcb3372c43f3544633387b401ccb709fdf"),
    (["strand", "--frac", "3/8", "--side", "R", "--b", "1:2:5", "--method", "continued"],
     "3982d99b4ef6a7a6392e2a368472b71374bdbfe608b3344126bbfdddee27c18a"),
    (["bpoint", "--frac", "3/8"],
     "3c6f885147484ee1214a1fe0f51ca9b914094fdd9fe78d067c101f21cf76e50c"),
    (["--set", "b_tol=1e-8", "tip", "--frac", "1/2", "--method", "intersection"],
     "7b32047eeab98437d54338a6062402335ccf937f96f5112cdb0e24488d6d1aab"),
    (["web", "--max-level", "2", "--b", "1:1.5:5"],
     "36206c36cb2f542db338f886d8aad8892728f2e6a16f3d1bc63c0ebeff1c7863"),
    (["scan", "--a", "0.4:0.6:5", "--b", "1.0:1.4:3", "--mode", "lock:1/2"],
     "d74ea26c50f0765d4c7988776fa5f803748424aa9b69ab02082b2690cfd87092"),
    (["scan", "--a", "0:0.5:4", "--b", "1.0:1.2:3", "--mode", "width", "--format", "pgm"],
     "0622adae4960bff36055cf5cf30d3e6ea0f9e07df8e954a554a3a0b6d7fc60ad"),
    (["verify", "--suite", "fact9_tangency", "--json"],
     "088524db6c2eb905ad09cbfee2bfc1d6d82575a52c6a1ca7bcb1b58991803ab8"),
    (["construct", "--stages", "3", "--format", "svg"],
     "31f62dc2f6547ccfc1a46c6aa1b439fad5b0d6a5c07cf3fa0ee240eb7f61a487"),
]


def test_golden_artifacts(tmp_path):
    out = tmp_path / "artifact"
    for argv, digest in GOLDEN:
        assert cli.main(argv + ["--out", str(out)]) == 0, argv
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv
