"""Command-line interface: single runs, parameter sweeps, and bound tables.

Run configuration is a line-oriented ``key = value`` file; ``#`` starts
a comment.  Results are written as CSV rows with a fixed column set so
sweep outputs from different invocations concatenate cleanly.
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import statistics
import sys
from collections.abc import Callable, Iterator
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import BinaryIO

from . import bounds as bnd
from .agents import ParamError, SimParams
from .engine import TERM_CLOSED, TERM_LOW_ENERGY, TERM_STEP_CAP, run
from .grid import Region, RegionError, line_region, parse_region, square_region

CSV_COLUMNS = [
    "run_id",
    "region",
    "n",
    "algorithm",
    "approach",
    "scheduler",
    "dt",
    "e0",
    "alpha",
    "ecrit_mobile",
    "ecrit_settled",
    "seed",
    "terminated",
    "T_C",
    "N",
    "E_total",
    "max_Ei",
    "A_C",
    "NDA_shutdown",
    "NDA_failed",
]

EVENT_HEADER = "t,agent,action,from,to,s1,s2,E"


class ConfigError(ValueError):
    """Raised for malformed run configuration files."""


_CONFIG_KEYS = {
    "region": str,
    "algorithm": str,
    "approach": int,
    "scheduler": str,
    "dt": int,
    "e0": float,
    "ecrit_mobile": float,
    "ecrit_settled": float,
    "alpha": float,
    "m": int,
    "seed": int,
    "max_steps": int,
}

# Keys a sweep may vary; their values parse as in ``_CONFIG_KEYS``.
_VARY_KEYS = (
    "dt", "e0", "alpha", "ecrit_mobile", "ecrit_settled", "algorithm", "approach", "scheduler"
)


def parse_config(text: str) -> dict:
    """Parse a ``key = value`` configuration file into a typed dict."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate configuration key {key!r}")
        try:
            out[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
    return out


def load_region(spec: str, base: Path | None = None) -> Region:
    """Load a region from a file path or a ``line:<n>[:<entry>]`` /
    ``square:<side>`` shorthand."""
    if spec.startswith("line:"):
        parts = spec.split(":")
        n = int(parts[1])
        entry = int(parts[2]) if len(parts) > 2 else 0
        return line_region(n, entry)
    if spec.startswith("square:"):
        return square_region(int(spec.split(":")[1]))
    path = Path(spec)
    if base is not None and not path.is_absolute():
        path = base / path
    return parse_region(path.read_text())


def _load_run_config(config: str) -> tuple[dict, Region]:
    """Read a run configuration and load its region, relative to it."""
    cfg_path = Path(config)
    cfg = parse_config(cfg_path.read_text())
    if "region" not in cfg:
        raise ConfigError("configuration is missing the 'region' key")
    return cfg, load_region(cfg["region"], base=cfg_path.parent)


@contextmanager
def _outputs(
    out: str | None, extra: str | None
) -> Iterator[tuple[csv.DictWriter, BinaryIO | None]]:
    """Yield a run-CSV writer on ``out`` (stdout if None or ``-``) that
    writes each row through at once, and the file ``extra`` (None for
    none) opened for writing in binary.  A CSV file is appended to only if
    it is empty or starts with the header, which goes to a fresh file or
    stdout.  Nothing is written until both are open: ``out`` opens first,
    for appending, and ``extra`` last, so a command that cannot open
    either leaves both files as they were (an ``out`` this call created
    is removed again)."""
    path = None if out in (None, "-") else Path(out)
    existed = path is not None and path.exists()
    fresh = not existed or path.stat().st_size == 0
    if not fresh:
        with path.open(newline="") as fh:
            header = fh.readline().rstrip("\r\n")
        if header != ",".join(CSV_COLUMNS):
            raise ConfigError(
                f"{out} exists and its first line is not the run CSV header; "
                "refusing to append to it"
            )
    with ExitStack() as stack:
        fh = sys.stdout if path is None else stack.enter_context(
            path.open("a", newline="", buffering=1))
        try:
            extra_fh = None if extra is None else stack.enter_context(Path(extra).open("wb"))
        except OSError:
            if path is not None and not existed:
                path.unlink(missing_ok=True)
            raise
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        if fresh:
            writer.writeheader()
        yield writer, extra_fh


def _event_sink(fh: BinaryIO) -> Callable[[bytes], object]:
    """An ``on_events`` sink that streams the event log to ``fh`` after
    its header: each step's lines arrive as one ``bytes`` from the kernel
    and are written as they are, so memory stays bounded."""
    fh.write(f"{EVENT_HEADER}\n".encode())
    return fh.write


def _point_params(cfg: dict, vary: dict[str, list], seeds: int) -> list[SimParams]:
    """The validated parameters of every run, in run-id order: each
    point of the cartesian product of ``vary`` over ``seeds`` seeds
    counted up from the configured one."""
    base = {k: v for k, v in cfg.items() if k != "region"}
    base_seed = base.pop("seed", 0)
    keys = sorted(vary)
    runs = []
    for point in itertools.product(*(vary[k] for k in keys)):
        for s in range(seeds):
            params = SimParams(**{**base, **dict(zip(keys, point)), "seed": base_seed + s})
            params.validate()
            runs.append(params)
    return runs


def _run_rows(
    cfg: dict, region: Region, runs: list[SimParams], writer: csv.DictWriter,
    on_events: Callable[[bytes], object] | None = None,
) -> list[dict]:
    """Run each parameter set and write its row as the run finishes."""
    rows = []
    for i, p in enumerate(runs):
        m = run(region, p, on_events=on_events).metrics
        row = {
            "run_id": f"r{i:06d}",
            "region": cfg["region"],
            "n": region.n,
            "algorithm": p.algorithm,
            "approach": p.approach,
            "scheduler": p.scheduler,
            "dt": p.dt,
            "e0": p.e0,
            "alpha": p.alpha,
            "ecrit_mobile": p.ecrit_mobile,
            "ecrit_settled": p.ecrit_settled,
            "seed": p.seed,
            "terminated": m.terminated,
            "T_C": m.t_c,
            "N": m.n_agents,
            "E_total": f"{m.e_total:.6g}",
            "max_Ei": f"{m.max_ei:.6g}",
            "A_C": m.a_c,
            "NDA_shutdown": m.nda_shutdown,
            "NDA_failed": m.nda_failed,
        }
        writer.writerow(row)
        rows.append(row)
    return rows


def cmd_run(args: argparse.Namespace) -> int:
    cfg, region = _load_run_config(args.config)
    runs = _point_params(cfg, {}, 1)
    with _outputs(args.out, args.log_events) as (writer, log):
        (row,) = _run_rows(cfg, region, runs, writer, None if log is None else _event_sink(log))
    if args.strict and row["terminated"] == TERM_STEP_CAP:
        print("run hit the step cap without terminating", file=sys.stderr)
        return 1
    return 0


def _parse_vary(specs: list[str]) -> dict[str, list]:
    vary: dict[str, list] = {}
    for spec in specs:
        if "=" not in spec:
            raise ConfigError(f"--vary expects key=v1,v2,..., got {spec!r}")
        key, _, values = spec.partition("=")
        key = key.strip()
        if key not in _VARY_KEYS:
            raise ConfigError(
                f"cannot vary {key!r}; supported keys: {sorted(_VARY_KEYS)}"
            )
        if key in vary:
            raise ConfigError(f"duplicate --vary key {key!r}")
        conv = _CONFIG_KEYS[key]
        vary[key] = [conv(v.strip()) for v in values.split(",") if v.strip()]
        if not vary[key]:
            raise ConfigError(f"--vary {key} lists no values")
    return vary


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg, region = _load_run_config(args.config)
    vary = _parse_vary(args.vary or [])
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    runs = _point_params(cfg, vary, args.seeds)
    with _outputs(args.out, args.agg or None) as (writer, agg):
        rows = _run_rows(cfg, region, runs, writer)
        if agg is not None:
            _write_aggregate(rows, sorted(vary), agg)
    return 0


_AGG_METRICS = ["T_C", "N", "E_total", "max_Ei", "A_C", "NDA_shutdown", "NDA_failed"]


def _write_aggregate(rows: list[dict], keys: list[str], out: BinaryIO) -> None:
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in keys), []).append(row)
    fieldnames = list(keys) + ["runs", "frac_closed", "frac_low_energy", "frac_step_cap"]
    for metric in _AGG_METRICS:
        fieldnames += [f"mean_{metric}", f"std_{metric}"]
    with io.TextIOWrapper(out, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for point in sorted(groups):
            group = groups[point]
            rec = dict(zip(keys, point))
            rec["runs"] = len(group)
            for reason in (TERM_CLOSED, TERM_LOW_ENERGY, TERM_STEP_CAP):
                rec[f"frac_{reason}"] = (
                    f"{sum(r['terminated'] == reason for r in group) / len(group):.4g}"
                )
            for metric in _AGG_METRICS:
                vals = [float(r[metric]) for r in group]
                rec[f"mean_{metric}"] = f"{statistics.fmean(vals):.6g}"
                rec[f"std_{metric}"] = (
                    f"{statistics.stdev(vals):.6g}" if len(vals) > 1 else "0"
                )
            writer.writerow(rec)


def _bounds_rows(args: argparse.Namespace) -> list[tuple[str, int, float]]:
    case = args.case
    if case == "approach1":
        _require(args, "e0", "dt")
        b = bnd.approach1_bounds(
            args.e0, args.ecrit_mobile, args.dt, args.ecrit_settled, args.alpha
        )
        rows = [
            ("d_max", 7, b.d_max),
            ("N_frontier", 8, b.n_frontier),
            ("T_C_upper", 11, b.t_c_ub),
            ("N_upper", 12, b.n_ub),
        ]
        if b.settled_survival is not None:
            rows.append(("settled_survival", 14, int(b.settled_survival)))
        return rows
    if case == "approach2":
        _require(args, "e0")
        b = bnd.approach2_bounds(args.e0, args.ecrit_mobile)
        return [("d_max", 7, b.d_max), ("A_covered_upper", 13, b.a_covered_ub)]
    alpha = args.alpha or 0.0
    if case == "linear_edge":
        _require(args, "n", "dt")
        b = bnd.linear_edge_bounds(args.n, args.dt, alpha)
        rows = [
            ("T_C", 24, b.t_c),
            ("N", 26, float(b.n_agents)),
            ("E_total_upper", 30 if alpha == 0 else 29, b.e_total_ub),
            ("E_settled_max", 36, b.e_settled_max),
            ("E_mobile_max", 36, b.e_mobile_max),
        ]
        if b.dt_equalize is not None:
            rows.append(("dt_equalize", 37, b.dt_equalize))
        if alpha > 0:
            exact, approx, e_bound = bnd.linear_edge_dt_opt(args.n, alpha)
            rows += [
                ("dt_opt", 31, exact),
                ("dt_opt_approx", 32, approx),
                ("E_total_at_opt", 33, e_bound),
            ]
        return rows
    # linear_mid
    _require(args, "n", "j", "dt")
    variant = args.variant
    b = bnd.linear_mid_bounds(args.n, args.j, args.dt, alpha, variant)
    greedy = variant == "greedy"
    rows = [
        ("T_C_upper", 40, b.t_c_ub),
        ("N_j", 45 if greedy else 58, float(b.n_j)),
        (
            "E_total",
            (51 if alpha == 0 else 50) if greedy else (62 if alpha == 0 else 61),
            b.e_total,
        ),
        ("dt_opt_exists", 53 if greedy else 64, int(b.opt_exists)),
    ]
    if b.dt_opt is not None:
        rows.append(("dt_opt", 52 if greedy else 63, b.dt_opt))
    return rows


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ConfigError(
            f"case {args.case!r} requires --{', --'.join(missing)}"
        )


def cmd_bounds(args: argparse.Namespace) -> int:
    rows = _bounds_rows(args)
    if args.out and args.out != "-":
        with Path(args.out).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "formula", "value"])
            writer.writerows(rows)
    else:
        width = max(len(name) for name, _, _ in rows)
        for name, formula, value in rows:
            val = f"{value:g}" if isinstance(value, float) else str(value)
            print(f"{name:<{width}}  [{formula:>2}]  {val}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridswarm",
        description="Simulate energy-constrained swarm coverage of grid regions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a single configured run")
    p_run.add_argument("--config", required=True, help="path to a key=value config file")
    p_run.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_run.add_argument("--log-events", default=None, help="write the event log to this path")
    p_run.add_argument(
        "--strict", action="store_true", help="exit nonzero if the run hits the step cap"
    )
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a cartesian parameter sweep")
    p_sweep.add_argument("--config", required=True, help="path to the base config file")
    p_sweep.add_argument(
        "--vary",
        action="append",
        metavar="KEY=V1,V2,...",
        help="vary a parameter over the listed values (repeatable)",
    )
    p_sweep.add_argument("--seeds", type=int, default=50, help="seeds per point (default 50)")
    p_sweep.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_sweep.add_argument("--agg", default=None, help="also write per-point aggregates here")
    p_sweep.set_defaults(func=cmd_sweep)

    p_bounds = sub.add_parser("bounds", help="print analytic bound tables")
    p_bounds.add_argument(
        "--case",
        required=True,
        choices=["approach1", "approach2", "linear_edge", "linear_mid"],
    )
    p_bounds.add_argument("--e0", type=float, default=None)
    p_bounds.add_argument("--ecrit-mobile", dest="ecrit_mobile", type=float, default=1.0)
    p_bounds.add_argument("--ecrit-settled", dest="ecrit_settled", type=float, default=None)
    p_bounds.add_argument("--alpha", type=float, default=None)
    p_bounds.add_argument("--dt", type=int, default=None)
    p_bounds.add_argument("--n", type=int, default=None)
    p_bounds.add_argument("--j", type=int, default=None)
    p_bounds.add_argument(
        "--variant", choices=list(bnd.MID_VARIANTS), default="greedy"
    )
    p_bounds.add_argument("--out", default=None, help="write CSV here instead of a table")
    p_bounds.set_defaults(func=cmd_bounds)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParamError, RegionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
