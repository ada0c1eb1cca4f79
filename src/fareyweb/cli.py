"""Command-line front end.

Subcommands cover the whole library: rotation intervals, tongue sections,
strand traces, tips, critical-line points, multi-fraction web exports, the
idealized construction, parameter-plane rasters, verification suites, and
rational utilities.  All emitted CSV carries a ``# config:`` comment with the
effective settings, and outputs are byte-identical for identical invocations.

Exit codes: 0 success, 1 numeric failure, 2 usage error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import construct, verify
from .config import Config, load_config
from .errors import BracketError, ConsistencyError, TipNotFoundError
from .farey import Frac, child, enumerate_level, level_and_path, parents, path_to_real
from .lift import SINE, BoundSide, FamilyParams
from .rotation import lock_status, rot_interval
from .tongue import sample_grid, tip_by_width, trace
from .web import b_point, strand_sides, tip_by_intersection, trace_strand


def _parse_range(text: str, what: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{what} must be lo:hi:n, got {text!r}")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1 or not np.isfinite([lo, hi]).all():
        raise ValueError(f"{what} needs finite bounds and at least one sample")
    return lo, hi, n


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv(cfg: Config, columns: str, lines) -> str:
    """The ``# config:`` header, the column line, then one line per row."""
    return "".join(line + "\n" for line in (cfg.header(), columns, *lines))


def _json(doc: dict, cfg: Config) -> str:
    return _json_dumps({**doc, "config": cfg.as_dict()})


# ---------------------------------------------------------------- subcommands

def _cmd_rotnum(args, cfg: Config) -> int:
    if args.tol is not None:
        cfg = replace(cfg, rot_tol=args.tol)
    ri = rot_interval(FamilyParams(args.a, args.b), cfg)
    doc = {
        "a": args.a,
        "b": args.b,
        "lower": {"lo": ri.lower.lo, "hi": ri.lower.hi,
                  "iterations": ri.lower.iterations, "exact": ri.lower.exact},
        "upper": {"lo": ri.upper.lo, "hi": ri.upper.hi,
                  "iterations": ri.upper.iterations, "exact": ri.upper.exact},
        "width": ri.width,
    }
    _emit(_json(doc, cfg), args.out)
    return 0


def _cmd_tongue(args, cfg: Config) -> int:
    frac = Frac.parse(args.frac)
    b_lo, b_hi, n = _parse_range(args.b, "--b")
    lines = [f"{s.b!r},{s.phi2!r},{s.psi1!r},{s.psi2!r},{s.phi1!r}"
             for s in trace(frac, b_lo, b_hi, n, cfg)]
    _emit(_csv(cfg, "b,phi2,psi1,psi2,phi1", lines), args.out)
    return 0


def _cmd_strand(args, cfg: Config) -> int:
    frac = Frac.parse(args.frac)
    b_lo, b_hi, n = _parse_range(args.b, "--b")
    pts = trace_strand(frac, args.side, b_lo, b_hi, n, cfg, method=args.method)
    _emit(_csv(cfg, "b,a,constraints_verified",
               (f"{p.b!r},{p.a!r},{int(p.constraints_verified)}" for p in pts)), args.out)
    return 0


def _tip_doc(tip) -> dict:
    return {
        "frac": str(tip.frac),
        "a": tip.a,
        "b": tip.b,
        "method": tip.method,
        "residual": tip.residual,
        "extra_crossings": list(tip.extra_crossings),
    }


def _cmd_tip(args, cfg: Config) -> int:
    frac = Frac.parse(args.frac)
    tips = []
    if args.method in ("width", "both"):
        tips.append(tip_by_width(frac, cfg, args.full_scan))
    if args.method in ("intersection", "both"):
        tips.append(tip_by_intersection(frac, cfg, args.full_scan))
    doc: dict = {"tips": [_tip_doc(t) for t in tips]}
    if len(tips) == 2:
        doc["discrepancy"] = {"da": abs(tips[0].a - tips[1].a),
                              "db": abs(tips[0].b - tips[1].b)}
    _emit(_json(doc, cfg), args.out)
    return 0


def _cmd_bpoint(args, cfg: Config) -> int:
    frac = Frac.parse(args.frac)
    a, b = b_point(frac, cfg)
    _emit(_json({"frac": str(frac), "a": a, "b": b}, cfg), args.out)
    return 0


def _cmd_web(args, cfg: Config) -> int:
    if args.max_level < 0:
        raise ValueError("--max-level must be non-negative")
    b_lo, b_hi, n = _parse_range(args.b, "--b")
    fracs: list[Frac] = []
    for lvl in range(args.max_level + 1):
        fracs.extend(enumerate_level(lvl))
    fracs = sorted(set(fracs))
    lines = []
    strands = {}
    for f in fracs:
        for side in strand_sides(f):
            pts = trace_strand(f, side, b_lo, b_hi, n, cfg)
            strands[(f, side)] = pts
            lines += (f"{f.p},{f.q},{side},{p.b!r},{p.a!r},{int(p.constraints_verified)}"
                      for p in pts)
    points = {"tips": [], "bpoints": []}
    for f in fracs:
        a, b = b_point(f, cfg)
        points["bpoints"].append((f, a, b))
        lines.append(f"# bpoint,{f.p},{f.q},{a!r},{b!r}")
    for f in fracs:
        if f.is_endpoint:
            continue
        t = tip_by_intersection(f, cfg)
        points["tips"].append(t)
        lines.append(f"# tip,{f.p},{f.q},{t.a!r},{t.b!r},{t.residual!r}")
    _emit(_csv(cfg, "p,q,side,b,a,constraints_verified", lines), args.out)
    if args.svg:
        Path(args.svg).write_text(_web_svg(strands, points, b_lo, b_hi))
    return 0


def _web_svg(strands, points, b_lo, b_hi) -> str:
    a_vals = [p.a for pts in strands.values() for p in pts]
    a_min, a_max = min(a_vals) - 0.05, max(a_vals) + 0.05
    b_span = max(b_hi - b_lo, 1e-9)

    def sx(a: float) -> str:
        return format((a - a_min) / (a_max - a_min), ".6f")

    def sy(b: float) -> str:
        return format(1.0 - (b - b_lo) / b_span, ".6f")

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1" width="900" height="900">',
        '<rect x="0" y="0" width="1" height="1" fill="white"/>',
    ]
    for (f, side), pts in sorted(strands.items()):
        coords = " ".join(f"{sx(p.a)},{sy(p.b)}" for p in pts)
        color = "#c03030" if side == "R" else "#3030c0"
        lines.append(f'<polyline fill="none" stroke="{color}" stroke-width="0.0015" '
                     f'points="{coords}"><title>{side} {f}</title></polyline>')
    for f, a, b in points["bpoints"]:
        lines.append(f'<rect x="{sx(a)}" y="{sy(b)}" width="0.006" height="0.006" '
                     f'fill="#202020"><title>B {f}</title></rect>')
    for t in points["tips"]:
        lines.append(f'<circle cx="{sx(t.a)}" cy="{sy(t.b)}" r="0.004" '
                     f'fill="#108030"><title>T {t.frac}</title></circle>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _cmd_construct(args, cfg: Config) -> int:
    web = construct.build(args.stages)
    _emit(construct.render(web, args.format), args.out)
    return 0


def _cmd_scan(args, cfg: Config) -> int:
    a_lo, a_hi, nx = _parse_range(args.a, "--a")
    b_lo, b_hi, ny = _parse_range(args.b, "--b")
    mode, _, frac_txt = args.mode.partition(":")
    if mode not in ("width", "lock"):
        raise ValueError(f"mode must be width or lock:p/q, got {args.mode!r}")
    if mode == "lock" and not frac_txt:
        raise ValueError("lock mode needs a fraction: lock:p/q")
    a_vals, b_vals = sample_grid(a_lo, a_hi, nx), sample_grid(b_lo, b_hi, ny)
    if mode == "width":
        # one orbit of n steps pins each bound's rotation number to width 2/n
        n = 2.0 / cfg.scan_tol  # compared before ceil, which overflows on inf
        if n > cfg.rot_max_iter:
            raise ValueError(f"scan_tol={cfg.scan_tol!r} needs 2/scan_tol map steps, "
                             f"more than rot_max_iter={cfg.rot_max_iter}")
        n = int(np.ceil(n))
        if min(b_vals) < 0:
            raise ValueError(f"b must be non-negative, got {min(b_vals)!r}")
        # up to the critical line both bounds are the map itself: width 0.0, no orbit
        above = np.array(b_vals) > SINE.b_critical
        sides = np.array([BoundSide.UPPER, BoundSide.LOWER], dtype=object)[:, None, None]
        up, low = SINE.iterate_grid(a_vals, np.array(b_vals)[above, None], sides, 0.0, n)
        width = np.zeros((ny, nx))
        width[above] = np.maximum(0.0, up / n - low / n)
        rows = width.tolist()
    else:
        frac = Frac.parse(frac_txt)
        value = {"locked": 1.0, "uncertain": 0.5, "not_locked": 0.0}
        rows = [[value[lock_status(FamilyParams(a, b), frac, num=cfg).state]
                 for a in a_vals] for b in b_vals]
    if args.format == "csv":
        _emit(_csv(cfg, "a,b,value", (f"{a!r},{b!r},{v!r}" for b, row in zip(b_vals, rows)
                                      for a, v in zip(a_vals, row))), args.out)
    else:
        data = np.array(rows)
        vmax = float(data.max()) if mode == "width" else 1.0
        scale = vmax if vmax > 0 else 1.0
        pixels = np.round(np.clip(data / scale, 0.0, 1.0) * 65535).astype(">u2")
        header = (f"P5\n{cfg.header()}\n# rows are b={b_lo!r}..{b_hi!r} "
                  f"bottom-up, scale={scale!r}\n{nx} {ny}\n65535\n")
        payload = header.encode("ascii") + pixels.tobytes()
        if args.out is None:
            sys.stdout.buffer.write(payload)
        else:
            Path(args.out).write_bytes(payload)
    return 0


def _cmd_verify(args, cfg: Config) -> int:
    params = {}
    for item in args.param or []:
        key, _, value = item.partition("=")
        if not value:
            raise ValueError(f"bad suite parameter {item!r}")
        params[key] = _parse_param(value)
    try:
        report = verify.run_suite(args.suite, cfg, **params)
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"suite {args.suite!r} cannot take {params}: {exc}") from exc
    if args.json:
        _emit(_json(report.to_dict(), cfg), args.out)
    else:
        _emit(report.to_text() + "\n", args.out)
    return 0 if report.passed else 3


def _parse_param(value: str):
    if "/" in value:
        try:
            return Frac.parse(value)
        except ValueError:
            pass
    if "," in value:
        return tuple(_parse_param(v) for v in value.split(","))
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def _cmd_farey(args, cfg: Config) -> int:
    if args.op == "parents":
        f = Frac.parse(args.frac)
        left, right = parents(f)
        doc = {"frac": str(f), "left": str(left), "right": str(right)}
    elif args.op == "children":
        f = Frac.parse(args.frac)
        if args.count < 1:
            raise ValueError("count must be positive")
        doc = {"frac": str(f), "side": args.side,
               "children": [str(child(f, args.side, j))
                            for j in range(1, args.count + 1)]}
    elif args.op == "level":
        f = Frac.parse(args.frac)
        node = level_and_path(f)
        doc = {"frac": str(f), "level": node.level, "path": "".join(node.path),
               "left_parent": str(node.left_parent) if node.left_parent else None,
               "right_parent": str(node.right_parent) if node.right_parent else None}
    else:  # path
        vals = path_to_real(args.omega, args.depth)
        doc = {"omega": args.omega, "path": [str(v) for v in vals]}
    _emit(_json_dumps(doc), args.out)
    return 0


# -------------------------------------------------------------------- parser

@functools.cache  # one parser per process: building it costs about 30x a parse
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fareyweb",
        description="Frequency-locking structure of the sine circle-map family.")
    ap.add_argument("--config", help="flat key=value config file")
    ap.add_argument("--set", action="append", metavar="KEY=VALUE", dest="overrides",
                    help="override one config value (repeatable)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rotnum", help="rotation interval at one parameter point")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--tol", type=float, default=None,
                   help="enclosure width; overrides rot_tol and is echoed as such")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_rotnum)

    p = sub.add_parser("tongue", help="boundary functions over a b range (CSV)")
    p.add_argument("--frac", required=True)
    p.add_argument("--b", required=True, metavar="LO:HI:N")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_tongue)

    p = sub.add_parser("strand", help="one strand over a b range (CSV)")
    p.add_argument("--frac", required=True)
    p.add_argument("--side", choices=("L", "R"), required=True)
    p.add_argument("--b", required=True, metavar="LO:HI:N")
    p.add_argument("--method", choices=("bound", "continued"), default="bound",
                   help="raw-map continuation above the strand's tip ladder")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_strand)

    p = sub.add_parser("tip", help="locking-region tip (JSON)")
    p.add_argument("--frac", required=True)
    p.add_argument("--method", choices=("width", "intersection", "both"),
                   default="width")
    p.add_argument("--full-scan", action="store_true",
                   help="scan to the b ceiling and report extra crossings")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_tip)

    p = sub.add_parser("bpoint", help="critical-line anchor point (JSON)")
    p.add_argument("--frac", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_bpoint)

    p = sub.add_parser("web", help="strands, tips and anchor points through a tree level")
    p.add_argument("--max-level", type=int, required=True)
    p.add_argument("--b", required=True, metavar="LO:HI:N")
    p.add_argument("--svg", help="also write an overlay SVG")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_web)

    p = sub.add_parser("construct", help="idealized plane-graph web")
    p.add_argument("--stages", type=int, required=True)
    p.add_argument("--format", choices=("svg", "json"), default="json")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("scan", help="parameter-plane raster (CSV or 16-bit PGM)")
    p.add_argument("--a", required=True, metavar="LO:HI:NX")
    p.add_argument("--b", required=True, metavar="LO:HI:NY")
    p.add_argument("--mode", default="width", help="width or lock:p/q")
    p.add_argument("--format", choices=("csv", "pgm"), default="csv")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="suite parameter override (repeatable)")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("farey", help="rational utilities")
    p.add_argument("--op", choices=("parents", "children", "level", "path"),
                   required=True)
    p.add_argument("--frac")
    p.add_argument("--side", choices=("L", "R"), default="R")
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--omega", type=float)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_farey)

    return ap


def _attach_ranges(argv: list[str]) -> list[str]:
    """Joins ``--b -1:1:3`` into ``--b=-1:1:3``; argparse reads -1:1:3 as a flag."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--a", "--b") and arg.startswith("-") and ":" in arg:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_ranges(sys.argv[1:] if argv is None else argv))
    if args.command == "farey":
        need = "omega" if args.op == "path" else "frac"
        if getattr(args, need) is None:
            parser.error(f"farey --op {args.op} needs --{need}")
    try:
        cfg = load_config(args.config, args.overrides)
        return args.fn(args, cfg)
    except (BracketError, ConsistencyError, TipNotFoundError, ValueError,
            KeyError, ZeroDivisionError, OSError) as exc:  # OSError: --config, --out
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
