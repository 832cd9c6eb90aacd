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
4 numerical failure (blow-up or boundary contamination).  A failure prints
one "error:" line on stderr and a warning one "warning:" line.

A command takes only the flags it reads, and refuses any other with its own
usage: drift-scan's members take their eps from --eps-grid alone, so it has
no --eps, and parse-expr, which draws nothing at random, has no --seed.

Configuration may come from a flat key=value file (--config) whose keys are
the command's flag names, with underscores or hyphens (t_final, t-final);
command-line flags override file entries.  A key the command has no flag
for exits 2, as does a config key (a file names no other file) and an
abbreviated flag (t for --t-final), in the file or on the command line.
Reports are printed as JSON lines embedding the resolved configuration and
the package version.  PTNLS_SEED serves as the seed fallback when --seed is
absent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, fields, replace

import numpy as np

from . import __version__
from .analysis import (DRIFT_FLOOR_FACTOR, MIN_FIT_MEMBERS, DensityAccumulator,
                       DensityUnavailableError, default_scan_config, density_expr,
                       drift_from_timeseries, drift_scan, emit_report,
                       write_timeseries_csv, write_timeseries_svg)
from .catalog import CaseId, Kind, load_catalog
from .jetexpr import (ExprError, JetBatch, ParamValues, coord_from_name, eval_expr,
                      parse_expr, to_text)
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


def _config_flags(path: str) -> tuple[list[str], list[str]]:
    """The keys of the config file at `path`, and its key=value lines as the
    flags --key=value (underscores made hyphens) for the command's parser."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    keys, flags = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            # a key with a space in it would be read as a positional argument
            if not eq or len(key.split()) != 1:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            keys.append(key)
            flags.append(f"--{key.replace('_', '-')}={value}")
    return keys, flags


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """`argv` parsed by `parser`, what the command's parser leaves refused by
    it, with its own usage; with --config, parsed again after the file's
    lines as flags, so that the command line wins and a key the command has
    no flag for, or a config key, is refused."""
    args, extra = parser.parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if args.config is not None:
        keys, flags = _config_flags(args.config)
        args, extra = parser.parse_known_args(argv[:1] + flags + argv[1:])
        # argv parsed alone, so what is left came from the file; the file's
        # own --config would be overridden by the command line's, unread
        unread = [f for f in flags if f in extra or f.startswith("--config=")]
        if unread:
            key = keys[flags.index(unread[0])]
            raise ConfigError(f"unknown config key {key!r} for {args.command}")
    return args


class Settings:
    """The parsed flags, recording every value consumed, for embedding into
    reports."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.resolved: dict = {"version": __version__}

    def get(self, key: str, default=None):
        value = getattr(self.args, key)
        if value is None:
            value = default
        self.resolved[key] = value
        return value

    def seed(self) -> int:
        value = self.args.seed
        if value is None:
            text = os.environ.get("PTNLS_SEED", "0")
            try:
                value = int(text)
            except ValueError:
                raise ConfigError(f"PTNLS_SEED: expected an integer, got {text!r}") from None
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


def _requested_blocks(settings: Settings) -> tuple[list[tuple[CaseId, Kind]], bool]:
    """The blocks --case and --kind request, and whether --case named the
    case: a block it names fails where one of --case all is skipped."""
    case = settings.get("case")
    kind = settings.get("kind")
    cases = list(CaseId) if case == "all" else [CaseId.parse(case)]
    kinds = list(Kind) if kind == "both" else [Kind.parse(kind)]
    return [(c, k) for c in cases for k in kinds], case != "all"


def _solver_config(settings: Settings, base: SolverConfig) -> SolverConfig:
    """`base` with every value given by a flag put in its place; a model
    parameter the command has no flag for keeps `base`'s value."""
    params = ParamValues(**{f.name: settings.get(f.name, getattr(base.params, f.name))
                            for f in fields(ParamValues) if hasattr(settings.args, f.name)})
    grid = Grid(L=settings.get("L", base.grid.L), N=settings.get("N", base.grid.N))
    if settings.get("initial") == "gaussian":
        initial = Gaussian(settings.get("amplitude", base.initial.amplitude),
                           settings.get("width", base.initial.width),
                           settings.get("center", base.initial.center))
    else:
        # a flag that is given must not go unread
        for key in ("amplitude", "width", "center"):
            if getattr(settings.args, key) is not None:
                raise ConfigError(f"--{key} does not apply to initial=ground")
        initial = SolverConfig().initial  # the harmonic ground state
    return replace(base, params=params, dt=settings.get("dt", base.dt),
                   T_final=settings.get("t_final", base.T_final),
                   grid=grid, initial=initial)


def _verify(settings: Settings, name: str, check, verdict) -> int:
    """`check` each requested block at --n and --tol (n >= 1, tol positive
    and finite) and print its record, its `verdict(report)` (passed, text)
    as an [ok] or [FAIL] line and its raw-reading notes; exit 1 if any
    failed.  Under --case all a block without a flux is skipped."""
    seed = settings.seed()
    n = settings.get("n")
    tol = settings.get("tol")
    if n < 1:
        raise ConfigError(f"--n must be at least 1, got {n}")
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"--tol must be positive and finite, got {tol}")
    blocks, explicit = _requested_blocks(settings)
    ok = True
    for case_id, kind in blocks:
        block = f"{name} {case_id.value}/{kind.value}"
        try:
            rep = check(case_id, kind, n=n, tol=tol, seed=seed)
        except FluxUnavailableError as exc:
            if explicit:
                raise
            print(f"[skip] {block}: {exc}")
            continue
        _emit(rep.as_record(), settings)
        passed, text = verdict(rep)
        print(f"[{'ok' if passed else 'FAIL'}] {block}: {text}")
        for rc in rep.raw_comparisons:
            if rc.matches_corrected is False:
                print(f"  note: raw {rc.slot} differs from the corrected reading; {rc.note}")
            elif not rc.parses:
                print(f"  note: raw {rc.slot} does not parse ({rc.error})")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_verify_euler(settings: Settings) -> int:
    return _verify(settings, "euler residual", check_residual, lambda rep: (
        rep.match, f"worst {rep.worst_rel_error:.3e}, eps-slope {rep.epsilon_slope:.3f}"
                   + (" (derived target)" if rep.target_derived else "")))


def cmd_verify_divergence(settings: Settings) -> int:
    return _verify(settings, "divergence", check_divergence, lambda rep: (
        rep.zero_at_eps0,
        f"D_t Tt + D_x Tx = {'+' if rep.orientation > 0 else '-'}Q.E at eps=0 "
        f"(worst {rep.worst_rel_error:.3e}, leading order {rep.leading_order:.3f})"))


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


def _sample_every(settings: Settings) -> int | None:
    """--sample-every, rejected below 1; None leaves the spacing to the scan."""
    sample_every = settings.get("sample_every")
    if sample_every is not None and sample_every < 1:
        raise ConfigError(f"--sample-every must be at least 1, got {sample_every}")
    return sample_every


def cmd_simulate(settings: Settings) -> int:
    settings.seed()
    case_id = CaseId.parse(settings.get("case"))
    # the solver's own scheme and dt, with the scans' initial data
    cfg = _solver_config(settings, SolverConfig(
        case_id=case_id, initial=default_scan_config(case_id).initial))
    out_dir = settings.get("out_dir")
    sample_every = _sample_every(settings)
    header = [f"{k}={v}" for k, v in settings.resolved.items()] + [f"scheme={cfg.scheme}"]
    _check_output_names(out_dir, header)
    cat = load_catalog()
    # built before out_dir is made: it refuses a parameter a density is undefined at
    densities = DensityAccumulator(cfg, [cfg.params.eps], [
        kind for kind in Kind if cat.conserved_vector(case_id, kind) is not None])
    os.makedirs(out_dir, exist_ok=True)

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
        paths += [os.path.join(out_dir, "density_timeseries.csv"),
                  os.path.join(out_dir, "density_timeseries.svg")]
        write_timeseries_csv(series, paths[1], header)
        write_timeseries_svg(series, paths[2], header)
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
    blocks, explicit = _requested_blocks(settings)
    form = settings.get("form")
    eps_list = _parse_eps_grid(settings.get("eps_grid"))
    out_dir = settings.get("out_dir")
    sample_every = _sample_every(settings)  # None: drift_scan's own spacing

    # every block's density is looked up before any block is stepped; each
    # case is stepped once, and every requested kind evaluated on its trajectories
    skipped, kinds_of = {}, {}
    for case_id, kind in blocks:
        try:
            density_expr(case_id, kind, form)
        except DensityUnavailableError as exc:
            if explicit:
                raise
            skipped[case_id, kind] = exc
        else:
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
    if args.point is None:
        return EXIT_OK
    values = {}
    for name, value in _parse_assignments(args.point, "--point").items():
        coord = coord_from_name(name)
        if coord is None:
            raise ConfigError(f"--point: {name!r} is not a jet coordinate")
        values[coord] = value
    pvals = _parse_assignments(args.params or "", "--params")
    names = [f.name for f in fields(ParamValues)]
    for name in pvals:
        if name not in names:
            raise ConfigError(f"--params: unknown parameter {name!r} "
                              f"(expected one of: {', '.join(names)})")
    params = ParamValues(**pvals)
    batch = JetBatch(np.array([args.t]), np.array([args.x]),
                     {c: np.array([v]) for c, v in values.items()})
    value = float(eval_expr(e, batch, params)[0])
    print(f"value at (t={args.t:g}, x={args.x:g}): {value!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptnls",
        description="Verification and simulation for approximate conservation "
                    "laws of a PT-symmetric inhomogeneous NLS family.")
    parser.add_argument("--version", action="version", version=f"ptnls {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, seed: bool = True):
        # no abbreviations: a config key "t" must not be read as --t-final
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(parser=p)  # refuses what it leaves unparsed (_parse_args)
        p.add_argument("--config", help="key=value file of this command's flags; flags override")
        if seed:
            p.add_argument("--seed", type=int, help="RNG seed (fallback: PTNLS_SEED, then 0)")
        return p

    def block_flags(p, case: str):
        p.add_argument("--case", default=case,
                       help="1a, 1b, 1c, 2 or all (default %(default)s)")
        p.add_argument("--kind", choices=["energy", "charge", "both"], default="both")

    for name, summary, tol in [("verify-euler", "euler residuals vs cataloged targets", 1e-10),
                               ("verify-divergence", "D_t Tt + D_x Tx vs Q.E", 1e-9)]:
        p = command(name, summary)
        block_flags(p, "all")
        p.add_argument("--n", type=int, default=100, help="sample count (default %(default)s)")
        p.add_argument("--tol", type=float, default=tol,
                       help="relative tolerance (default %(default)s)")

    def solver_flags(p, sample_every):
        p.add_argument("--mu", type=float)
        p.add_argument("--sigma", type=float)
        p.add_argument("--alpha", type=float)
        p.add_argument("--g", type=float)
        p.add_argument("--N", type=int)
        p.add_argument("--L", type=float)
        p.add_argument("--dt", type=float)
        p.add_argument("--t-final", dest="t_final", type=float)
        p.add_argument("--initial", choices=["gaussian", "ground"], default="gaussian")
        p.add_argument("--amplitude", type=float)
        p.add_argument("--width", type=float)
        p.add_argument("--center", type=float)
        p.add_argument("--sample-every", dest="sample_every", type=int, default=sample_every)
        p.add_argument("--out-dir", dest="out_dir", default="out")

    p = command("simulate", "integrate one configuration")
    p.add_argument("--case", default="1a", help="1a, 1b, 1c or 2 (default %(default)s)")
    p.add_argument("--eps", type=float)
    solver_flags(p, 50)

    p = command("drift-scan", "drift vs eps power-law scan")
    block_flags(p, "all")
    solver_flags(p, None)
    p.add_argument("--form", choices=["Tt", "PhiT"], default="Tt")
    p.add_argument("--eps-grid", dest="eps_grid", default="1e-3:1e-1:7",
                   help="start:stop:count, log spaced (default %(default)s)")

    p = command("parse-expr", "parse, print, optionally evaluate", seed=False)
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

# each failure main reports in one error: line, with its exit code
_EXIT_CODES = {ConfigError: EXIT_CONFIG, ValueError: EXIT_CONFIG, ExprError: EXIT_CONFIG,
               FluxUnavailableError: EXIT_FLUX_UNAVAILABLE, BlowUpError: EXIT_NUMERICAL,
               BoundaryContaminationError: EXIT_NUMERICAL}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a warning prints as one line naming no source line; restored on return
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        # numpy's overflow and invalid-value warnings would repeat the typed error
        with np.errstate(over="ignore", invalid="ignore"):
            args = _parse_args(build_parser(), argv)
            return _COMMANDS[args.command](Settings(args))
    except SystemExit as exc:  # argparse has printed its message
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
