"""Command-line entry point.

Subcommands:

  verify-euler       check euler residuals against the cataloged targets
  verify-divergence  check D_t Tt + D_x Tx against Q.E where flux is cataloged
  simulate           integrate one configuration, write trajectory + densities
  drift-scan         scan drift against eps, fit the power law
  parse-expr         parse, canonicalize and optionally evaluate an expression

The verify commands and drift-scan select their blocks alike: --case all and
--kind both by default.  Under --case all a block without the requested
flux (verify-divergence) or density (drift-scan) is skipped; a block that
--case names fails instead.

Exit codes: 0 pass, 1 verification failure, 2 configuration error (a
requested density not cataloged included), 3 requested flux not cataloged,
4 numerical failure (blow-up or boundary contamination).

Configuration may come from a flat key=value file (--config); command-line
flags override file entries.  Reports are printed as JSON lines embedding
the resolved configuration and the package version.  PTNLS_SEED serves as
the seed fallback when --seed is absent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from . import __version__
from .analysis import (DRIFT_FLOOR_FACTOR, MIN_FIT_MEMBERS, DensityAccumulator,
                       DensityUnavailableError, default_scan_config, density_expr,
                       drift_from_timeseries, drift_scan, emit_report)
from .catalog import CaseId, Kind, load_catalog
from .jetexpr import (EvalError, JetBatch, JetOrderError, ParamValues, ParseError,
                      coord_from_name, eval_expr, parse_expr, to_text)
from .solver import (BlowUpError, BoundaryContaminationError, Gaussian, Grid,
                     SolverConfig, TrajectoryWriter, stream_members)
from .verify import FluxUnavailableError, check_divergence, check_residual

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_FLUX_UNAVAILABLE = 3
EXIT_NUMERICAL = 4


class ConfigError(Exception):
    pass


def _read_config_file(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


class Settings:
    """Merged view of defaults, config file and flags (flags win).  Records
    every value actually consumed, for embedding into reports."""

    _CONVERTERS = {
        "case": str, "kind": str, "form": str, "initial": str,
        "eps": float, "mu": float, "sigma": float, "alpha": float, "g": float,
        "L": float, "dt": float, "t_final": float, "amplitude": float,
        "width": float, "center": float, "tol": float,
        "N": int, "n": int, "seed": int, "sample_every": int,
        "eps_grid": str, "out_dir": str,
    }

    def __init__(self, args: argparse.Namespace, file_values: dict[str, str]):
        self.args = args
        self.file_values = dict(file_values)
        for key in self.file_values:
            if key not in self._CONVERTERS:
                raise ConfigError(f"unknown config key {key!r}")
        self.resolved: dict = {"version": __version__}

    def get(self, key: str, default=None):
        value = getattr(self.args, key, None)
        if value is None and key in self.file_values:
            try:
                value = self._CONVERTERS[key](self.file_values[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from None
        if value is None:
            value = default
        self.resolved[key] = value
        return value

    @staticmethod
    def _int(source: str, text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{source}: expected an integer, got {text!r}") from None

    def seed(self) -> int:
        value = getattr(self.args, "seed", None)
        if value is None and "seed" in self.file_values:
            value = self._int("config key seed", self.file_values["seed"])
        if value is None:
            value = self._int("PTNLS_SEED", os.environ.get("PTNLS_SEED", "0"))
        self.resolved["seed"] = value
        return value


def _emit(record: dict, settings: Settings, **chosen) -> None:
    """Print `record` as one JSON line, its "config" the resolved settings
    and what the command chose where no setting did (`chosen`)."""
    record = dict(record)
    record["config"] = {k: (v if isinstance(v, (int, float, str, bool, type(None)))
                            else repr(v))
                        for k, v in {**settings.resolved, **chosen}.items()}
    print(json.dumps(record))


def _requested_blocks(settings: Settings) -> list[tuple[CaseId, Kind]]:
    case = settings.get("case", "all")
    kind = settings.get("kind", "both")
    cases = list(CaseId) if case == "all" else [CaseId.parse(case)]
    kinds = list(Kind) if kind == "both" else [Kind.parse(kind)]
    return [(c, k) for c in cases for k in kinds]


def _solver_config(settings: Settings, base: SolverConfig) -> SolverConfig:
    """`base` with every value given by a flag or the config file put in its
    place."""
    params = ParamValues(**{f.name: settings.get(f.name, getattr(base.params, f.name))
                            for f in fields(ParamValues)})
    grid = Grid(L=settings.get("L", base.grid.L), N=settings.get("N", base.grid.N))
    name = settings.get("initial", "gaussian")
    if name == "gaussian":
        initial = Gaussian(settings.get("amplitude", base.initial.amplitude),
                           settings.get("width", base.initial.width),
                           settings.get("center", base.initial.center))
    elif name == "ground":
        # a flag or config key that is given must not go unread
        for key in ("amplitude", "width", "center"):
            if getattr(settings.args, key, None) is not None or key in settings.file_values:
                raise ConfigError(f"--{key} does not apply to initial=ground")
        initial = SolverConfig().initial  # the harmonic ground state
    else:
        raise ConfigError(f"initial must be 'gaussian' or 'ground', got {name!r}")
    return replace(base, params=params, dt=settings.get("dt", base.dt),
                   T_final=settings.get("t_final", base.T_final),
                   grid=grid, initial=initial)


def _print_raw_notes(comparisons) -> None:
    for rc in comparisons:
        if rc.matches_corrected is False:
            print(f"  note: raw {rc.slot} differs from the corrected reading; {rc.note}")
        elif not rc.parses:
            print(f"  note: raw {rc.slot} does not parse ({rc.error})")


def _sample_settings(settings: Settings, default_tol: float) -> tuple[int, float]:
    """--n and --tol of a verify command, rejected unless n >= 1 and tol is
    positive and finite."""
    n = settings.get("n", 100)
    tol = settings.get("tol", default_tol)
    if n < 1:
        raise ConfigError(f"--n must be at least 1, got {n}")
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"--tol must be positive and finite, got {tol}")
    return n, tol


def cmd_verify_euler(settings: Settings) -> int:
    seed = settings.seed()
    n, tol = _sample_settings(settings, 1e-10)
    ok = True
    for case_id, kind in _requested_blocks(settings):
        rep = check_residual(case_id, kind, n=n, tol=tol, seed=seed)
        _emit(rep.as_record(), settings)
        status = "ok" if rep.match else "FAIL"
        tag = " (derived target)" if rep.target_derived else ""
        print(f"[{status}] euler residual {case_id.value}/{kind.value}: "
              f"worst {rep.worst_rel_error:.3e}, eps-slope {rep.epsilon_slope:.3f}{tag}")
        _print_raw_notes(rep.raw_comparisons)
        ok = ok and rep.match
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_verify_divergence(settings: Settings) -> int:
    seed = settings.seed()
    n, tol = _sample_settings(settings, 1e-9)
    explicit = settings.get("case", "all") != "all"
    ok = True
    for case_id, kind in _requested_blocks(settings):
        try:
            rep = check_divergence(case_id, kind, n=n, tol=tol, seed=seed)
        except FluxUnavailableError as exc:
            if explicit:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_FLUX_UNAVAILABLE
            print(f"[skip] divergence {case_id.value}/{kind.value}: {exc}")
            continue
        _emit(rep.as_record(), settings)
        status = "ok" if rep.zero_at_eps0 else "FAIL"
        sign = "+" if rep.orientation > 0 else "-"
        print(f"[{status}] divergence {case_id.value}/{kind.value}: "
              f"D_t Tt + D_x Tx = {sign}Q.E at eps=0 (worst {rep.worst_rel_error:.3e}, "
              f"leading order {rep.leading_order:.3f})")
        _print_raw_notes(rep.raw_comparisons)
        ok = ok and rep.zero_at_eps0
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _check_output_names(out_dir: str, header: list[str]) -> None:
    """Raise ConfigError unless `out_dir` encodes in the filesystem encoding
    and every header line in UTF-8, the encoding of every output file, so
    that a command refuses them before it makes a directory or steps
    anything.  An argument holding bytes that the locale cannot decode
    reaches the header as lone surrogates, which UTF-8 cannot encode."""
    encoding = sys.getfilesystemencoding()
    try:
        os.fsencode(out_dir)
    except UnicodeEncodeError:
        raise ConfigError(f"out_dir {out_dir!r} cannot be encoded in the filesystem "
                          f"encoding ({encoding})") from None
    for line in header:
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            key, _, value = line.partition("=")
            raise ConfigError(f"{key} {value!r} cannot be written to the UTF-8 output "
                              f"headers: it holds bytes that the filesystem encoding "
                              f"({encoding}) does not decode") from None


def cmd_simulate(settings: Settings) -> int:
    settings.seed()
    case_id = CaseId.parse(settings.get("case", "1a"))
    # the solver's own scheme and dt, with the scans' initial data
    cfg = _solver_config(settings, SolverConfig(
        case_id=case_id, initial=default_scan_config(case_id).initial))
    out_dir = settings.get("out_dir", "out")
    sample_every = settings.get("sample_every", 50)
    header = [f"{k}={v}" for k, v in settings.resolved.items()] + [f"scheme={cfg.scheme}"]
    _check_output_names(out_dir, header)
    os.makedirs(out_dir, exist_ok=True)

    cat = load_catalog()
    densities = DensityAccumulator(cfg, [cfg.params.eps], [
        kind for kind in Kind if cat.conserved_vector(case_id, kind) is not None])
    # the trajectory is written as it is stepped, and named only once complete
    traj_path = os.path.join(out_dir, "trajectory.csv")
    part_path = traj_path + ".tmp"
    errors = [None]
    fh = open(part_path, "wb")
    try:
        with fh:
            writer = TrajectoryWriter(fh, cfg, header)
            for sample in stream_members(cfg, [cfg.params.eps], sample_every, errors):
                writer.write(sample.t, sample.q[0])
                densities.add(sample)
        if errors[0] is not None:
            raise errors[0]
    except BaseException:
        os.remove(part_path)
        raise
    os.replace(part_path, traj_path)

    [series] = densities.series(errors)
    for ts in series:
        drift_abs, drift_rel = drift_from_timeseries(ts)
        _emit({"check": "simulate-density", "case": case_id.value,
               "kind": ts.kind.value, "form": ts.form, "Q0": float(ts.values[0]),
               "drift_abs": drift_abs, "drift_rel": drift_rel}, settings, scheme=cfg.scheme)
        print(f"[ok] {ts.kind.value} density: Q0 = {ts.values[0]:.6g}, "
              f"drift {drift_abs:.3e} (rel {drift_rel:.3e})")
    paths = [traj_path]
    if series:
        paths += emit_report(series, out_dir, stem="density", header_lines=header)
    print("wrote: " + ", ".join(paths))
    return EXIT_OK


def _parse_eps_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"eps-grid must be start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad eps-grid {text!r}: {exc}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"eps-grid start and stop must be finite, got {text!r}")
    if start <= 0 or stop <= start or count < MIN_FIT_MEMBERS:
        raise ConfigError(f"eps-grid needs 0 < start < stop and count >= {MIN_FIT_MEMBERS}")
    return list(np.logspace(np.log10(start), np.log10(stop), count))


def cmd_drift_scan(settings: Settings) -> int:
    """Scan every requested block, write them all in one report, then print
    each block's record and verdict in block order."""
    settings.seed()
    blocks = _requested_blocks(settings)
    explicit = settings.get("case", "all") != "all"
    form = settings.get("form", "Tt")
    eps_list = _parse_eps_grid(settings.get("eps_grid", "1e-3:1e-1:7"))
    out_dir = settings.get("out_dir", "out")
    sample_every = settings.get("sample_every")  # None: drift_scan's own spacing

    # every block's density is looked up before any block is stepped
    skipped = {}
    for block in blocks:
        try:
            density_expr(*block, form)
        except DensityUnavailableError as exc:
            if explicit:
                raise
            skipped[block] = exc
    # each case is stepped once; every requested kind is evaluated on its trajectories
    kinds_of: dict[CaseId, list[Kind]] = {}
    for case_id, kind in blocks:
        if (case_id, kind) not in skipped:
            kinds_of.setdefault(case_id, []).append(kind)
    cfgs = {case_id: _solver_config(settings, default_scan_config(case_id))
            for case_id in kinds_of}
    # an unset sample_every is named by each report's config lines instead
    header = [f"{k}={v}" for k, v in settings.resolved.items() if v is not None]
    _check_output_names(out_dir, header)
    reports = {(r.case_id, r.kind): r
               for case_id, kinds in kinds_of.items()
               for r in drift_scan(case_id, kinds, eps_list, cfg=cfgs[case_id],
                                   form=form, sample_every=sample_every)}
    paths = emit_report(list(reports.values()), out_dir, header_lines=header)

    for case_id, kind in blocks:
        name = f"{case_id.value}/{kind.value}"
        if (case_id, kind) in skipped:
            print(f"[skip] drift scan {name}: {skipped[case_id, kind]}")
            continue
        report = reports[case_id, kind]
        # NaN is not JSON: a failed member's numbers are null
        members = [{k: None if isinstance(v, float) and math.isnan(v) else v
                    for k, v in asdict(m).items()} for m in report.members]
        _emit({"check": "drift-scan", "case": case_id.value, "kind": kind.value,
               "form": form, "floor": report.floor, "slope": report.slope,
               "intercept": report.intercept, "fit_residual": report.fit_residual,
               "slope_valid": report.slope_valid, "fit_members": report.fit_members,
               "members": members}, settings,
              scheme=report.cfg.scheme, sample_every=report.sample_every)
        for m in report.members:
            if m.failed:
                print(f"[skip] eps={m.eps:g}: {m.error}")
        if report.slope_valid:
            print(f"[ok] drift scan {name}: slope {report.slope:.3f} "
                  f"over {report.fit_members} members (floor {report.floor:.3e})")
        else:
            print(f"[FAIL] drift scan {name}: only {report.fit_members} members above "
                  f"{DRIFT_FLOOR_FACTOR:g}x floor {report.floor:.3e}; no slope fitted")
    print("wrote: " + ", ".join(paths))
    ok = all(r.slope_valid for r in reports.values())
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _parse_assignments(text: str, what: str) -> dict[str, float]:
    out: dict[str, float] = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise ConfigError(f"{what}: expected name=value, got {item!r}")
        name, value = item.split("=", 1)
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise ConfigError(f"{what}: bad number {value!r}") from None
    return out


def cmd_parse_expr(settings: Settings) -> int:
    args = settings.args
    e = parse_expr(args.expr)
    print(f"canonical: {to_text(e)}")
    print(f"jet order: {e.order}")
    point_spec = getattr(args, "point", None)
    if point_spec is None:
        return EXIT_OK
    values = {}
    for name, value in _parse_assignments(point_spec, "--point").items():
        coord = coord_from_name(name)
        if coord is None:
            raise ConfigError(f"--point: {name!r} is not a jet coordinate")
        values[coord] = value
    pvals = _parse_assignments(getattr(args, "params", "") or "", "--params")
    names = [f.name for f in fields(ParamValues)]
    for name in pvals:
        if name not in names:
            raise ConfigError(f"--params: unknown parameter {name!r} "
                              f"(expected one of: {', '.join(names)})")
    params = ParamValues(**pvals)
    batch = JetBatch(np.array([args.t]), np.array([args.x]),
                     {c: np.array([v]) for c, v in values.items()})
    try:
        value = float(eval_expr(e, batch, params)[0])
    except EvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"value at (t={args.t:g}, x={args.x:g}): {value!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptnls",
        description="Verification and simulation for approximate conservation "
                    "laws of a PT-symmetric inhomogeneous NLS family.")
    parser.add_argument("--version", action="version", version=f"ptnls {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value file; flags override")
        p.add_argument("--seed", type=int, help="RNG seed (fallback: PTNLS_SEED, then 0)")

    def verify_flags(p, tol: str):
        common(p)
        p.add_argument("--case", help="1a, 1b, 1c, 2 or all (default all)")
        p.add_argument("--kind", choices=["energy", "charge", "both"], default=None)
        p.add_argument("--n", type=int, help="sample count (default 100)")
        p.add_argument("--tol", type=float, help=f"relative tolerance (default {tol})")

    verify_flags(sub.add_parser("verify-euler", help="euler residuals vs cataloged targets"),
                 "1e-10")
    verify_flags(sub.add_parser("verify-divergence", help="D_t Tt + D_x Tx vs Q.E"), "1e-9")

    def solver_flags(p, case_help: str):
        p.add_argument("--case", help=case_help)
        p.add_argument("--eps", type=float)
        p.add_argument("--mu", type=float)
        p.add_argument("--sigma", type=float)
        p.add_argument("--alpha", type=float)
        p.add_argument("--g", type=float)
        p.add_argument("--N", type=int)
        p.add_argument("--L", type=float)
        p.add_argument("--dt", type=float)
        p.add_argument("--t-final", dest="t_final", type=float)
        p.add_argument("--initial", choices=["gaussian", "ground"])
        p.add_argument("--amplitude", type=float)
        p.add_argument("--width", type=float)
        p.add_argument("--center", type=float)
        p.add_argument("--sample-every", dest="sample_every", type=int)
        p.add_argument("--out-dir", dest="out_dir")

    p = sub.add_parser("simulate", help="integrate one configuration")
    common(p)
    solver_flags(p, "1a, 1b, 1c or 2")

    p = sub.add_parser("drift-scan", help="drift vs eps power-law scan")
    common(p)
    solver_flags(p, "1a, 1b, 1c, 2 or all (default all)")
    p.add_argument("--kind", choices=["energy", "charge", "both"], default=None)
    p.add_argument("--form", choices=["Tt", "PhiT"], default=None)
    p.add_argument("--eps-grid", dest="eps_grid",
                   help="start:stop:count, log spaced (default 1e-3:1e-1:7)")

    p = sub.add_parser("parse-expr", help="parse, print, optionally evaluate")
    common(p)
    p.add_argument("expr")
    p.add_argument("--point", help="jet values, e.g. u=1,v=0.5,u_x=-2")
    p.add_argument("--params", help="parameter values, e.g. eps=0.1,mu=2")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--x", type=float, default=0.5)

    return parser


_COMMANDS = {
    "verify-euler": cmd_verify_euler,
    "verify-divergence": cmd_verify_divergence,
    "simulate": cmd_simulate,
    "drift-scan": cmd_drift_scan,
    "parse-expr": cmd_parse_expr,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK

    try:
        file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
        settings = Settings(args, file_values)
        return _COMMANDS[args.command](settings)
    except (ConfigError, ValueError, ParseError, JetOrderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FluxUnavailableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FLUX_UNAVAILABLE
    except (BlowUpError, BoundaryContaminationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
