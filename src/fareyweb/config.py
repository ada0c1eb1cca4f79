"""Runtime configuration: the one numerics context of the library.

A ``Config`` is frozen and hashable, so the numerics functions take it as one
``num`` argument and the tip caches key on it; ``DEFAULT`` holds every library
default.  A config file is flat ``key=value`` lines (``#`` comments allowed);
command line ``--set key=value`` overrides win over the file, which wins over
the defaults below.  The effective configuration is echoed into every output
header so a result file alone reproduces its run.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, fields
from pathlib import Path


@dataclass(frozen=True)
class Config:
    rot_tol: float = 1e-6        # rotation-number enclosure target width
    rot_max_iter: int = 10_000_000  # map steps one rotation-number descent may run
    scan_tol: float = 1e-3       # coarser enclosure width for raster scans
    solver_tol: float = 1e-12    # root-bracket width in a
    b_tol: float = 1e-10         # bisection width in b (tips)
    b_step: float = 0.01         # coarse scan step in b
    b_ceiling: float = 4.0
    q_cap: int = 128             # largest denominator analysed or snapped to
    grid_base: int = 4096        # displacement grid: grid_base + grid_per_q * q
    grid_per_q: int = 512

    def __post_init__(self):
        for name in ("rot_tol", "scan_tol", "solver_tol", "b_tol", "b_step"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not math.isfinite(self.b_ceiling):
            raise ValueError("b_ceiling must be finite")
        for name in ("rot_max_iter", "q_cap", "grid_base", "grid_per_q"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")

    @property
    def grid(self) -> tuple[int, int]:
        return (self.grid_base, self.grid_per_q)

    def header(self) -> str:
        parts = " ".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self))
        return f"# config: {parts}"

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: The library defaults; every ``num`` argument falls back to this.
DEFAULT = Config()


def cached(maxsize: int):
    """``lru_cache`` keyed on the call's bound arguments with defaults applied.

    ``f(x)``, ``f(x, DEFAULT)`` and ``f(x, num=DEFAULT)`` share one entry.  The
    wrapper exposes the cache's ``cache_info`` and ``cache_clear``.
    """
    def decorate(fn):
        sig = inspect.signature(fn)
        lru = functools.lru_cache(maxsize)(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            bound = sig.bind(*args, **kw)
            bound.apply_defaults()
            return lru(*bound.args, **bound.kwargs)

        wrapper.cache_info, wrapper.cache_clear = lru.cache_info, lru.cache_clear
        return wrapper
    return decorate


def load_config(path: str | Path | None = None, overrides: list[str] | None = None) -> Config:
    items = []
    if path is not None:
        for raw in Path(path).read_text().splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            if not value:
                raise ValueError(f"bad config line {raw!r}; expected key=value")
            items.append((key.strip(), value.strip()))
    for item in overrides or []:
        key, _, value = item.partition("=")
        if not value:
            raise ValueError(f"bad override {item!r}; expected key=value")
        items.append((key.strip(), value.strip()))
    # field types arrive as strings under `from __future__ import annotations`
    casts = {f.name: {"int": int, "float": float}[f.type] for f in fields(Config)}
    values = {}
    for key, value in items:
        if key not in casts:
            raise KeyError(f"unknown config key {key!r}")
        try:
            values[key] = casts[key](value)
        except ValueError:
            raise ValueError(f"{key} must be {casts[key].__name__}, got {value!r}") from None
    return Config(**values)
