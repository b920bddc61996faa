"""Command-line front end.

Three verbs:

    compute    bound values for one potential over chosen partial waves
    reproduce  recompute one of the four reference tables with deviations
    check      sandwich + invariant suite, nonzero exit on any violation

Configuration is a flat INI file (a [potential] section plus optional [run]
and [quadrature] sections).  Every [potential] and [run] key can also be
given as a flag, which overrides the file (`check` reads only [run]'s ell);
the [quadrature] keys (rel_tol, abs_tol, max_subdivisions) have no flag.  A
section or key outside these is a configuration error.  Exit codes: 0
success, 1 invariant or reproduction failure, 2 configuration error, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import sys
import time
import warnings
from dataclasses import dataclass

from .bounds import METHODS, Method, Side, sandwich
from .errors import (AccuracyError, ConfigurationError, DomainError,
                     IntegrationError, InvariantViolation, NoBoundStateError,
                     SearchRangeError, TruncationError)
from .potentials import SHAPES, Kind, Potential
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
from .tables import render, reproduce_table

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

#: stable wide-output column order
CSV_COLUMNS = ("ell", "g_BS", "g_eq2", "g_B", "g_GGMT", "g_c_shoot",
               "g_c_nystrom", "g_New", "p*", "g_C1", "g_C2")

METHOD_NAMES = tuple(m.value for m in METHODS)


def _unique(items) -> tuple:
    """Repeated methods and partial waves alike: first appearance wins."""
    return tuple(dict.fromkeys(items))


def _ells(items) -> tuple[int, ...]:
    """The partial waves of a run or a check, each once: at least one, and
    none negative."""
    ells = _unique(items)
    if not ells:
        raise ConfigurationError("at least one ell is required")
    if any(e < 0 for e in ells):
        raise ConfigurationError("ell values must be nonnegative")
    return ells


@dataclass(frozen=True)
class RunConfig:
    potential: Potential
    ells: tuple[int, ...] = (0,)
    methods: tuple[str, ...] = ("all",)
    fmt: str = "csv"
    digits: int = 6
    quadrature: QuadratureConfig = DEFAULT_CONFIG

    def __post_init__(self):
        object.__setattr__(self, "ells", _ells(self.ells))
        if not self.methods:
            raise ConfigurationError("at least one method is required")
        for m in self.methods:
            if m != "all" and m not in METHOD_NAMES:
                raise ConfigurationError(
                    f"unknown method {m!r}; choose from {', '.join(METHOD_NAMES)} or 'all'")
        if self.fmt not in ("csv", "md", "markdown"):
            raise ConfigurationError(f"format must be csv or md, got {self.fmt!r}")
        if self.digits < 2:
            raise ConfigurationError("digits must be at least 2")


@dataclass(frozen=True)
class RunRecord:
    ell: int
    method: str
    value: float
    optimal_param: float | None
    error_estimate: float
    wall_time_s: float


def expand_methods(names, potential: Potential) -> tuple[str, ...]:
    """Resolve 'all' to every bound method that applies to the potential;
    first appearance sets the order, repeats are dropped."""
    every = [m.value for m, spec in METHODS.items()
             if spec.side is not Side.EXACT and spec.kind in (None, potential.kind)]
    return _unique(m for name in names for m in (every if name == "all" else (name,)))


def run(config: RunConfig) -> list[RunRecord]:
    """One record per (ell, method), in deterministic order."""
    methods = expand_methods(config.methods, config.potential)
    specs = [METHODS[Method(name)] for name in methods]
    for spec in specs:
        if spec.kind not in (None, config.potential.kind):
            raise ConfigurationError(f"method {spec.method.value} applies only "
                                     f"to potential kind {spec.kind.value}")
    cfg = config.quadrature
    records = []
    for ell in config.ells:
        for spec in specs:
            t0 = time.perf_counter()
            res = spec.compute(config.potential, ell, cfg)
            rel_err = 10.0 * cfg.rel_tol if spec.rel_error is None else spec.rel_error
            records.append(RunRecord(ell, spec.method.value, res.value,
                                     res.optimal_param, rel_err * res.value,
                                     time.perf_counter() - t0))
    return records


def render_wide(records: list[RunRecord], fmt: str, digits: int) -> str:
    """Wide table, one row per ell, fixed column order; blank when absent."""
    num = f"{{:.{digits}g}}"
    by_ell: dict[int, dict[str, str]] = {}
    for rec in records:
        col = METHODS[Method(rec.method)].column
        if col is None:
            continue
        cells = by_ell.setdefault(rec.ell, {})
        cells[col] = num.format(rec.value)
        if rec.method == Method.VARIATIONAL and rec.optimal_param is not None:
            cells["p*"] = num.format(rec.optimal_param)
    rows = [[str(ell)] + [by_ell[ell].get(c, "") for c in CSV_COLUMNS[1:]]
            for ell in sorted(by_ell)]
    return render(CSV_COLUMNS, rows, fmt)


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

def load_grid_csv(path: str) -> list[tuple[float, float]]:
    """Two-column CSV (radius, value); a non-numeric first row is a header."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            lines = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigurationError(f"field grid_csv: cannot read {path!r}: {exc}") from None
    for rownum, row in enumerate(lines):
        if not row or not "".join(row).strip():
            continue
        try:
            rows.append((float(row[0]), float(row[1])))
        except (ValueError, IndexError):
            if rownum == 0:
                continue
            raise ConfigurationError(
                f"{path}: line {rownum + 1} is not 'radius,value'")
    if not rows:
        raise ConfigurationError(f"{path}: no grid rows found")
    return rows


def build_potential(kind: str, R: float = 1.0, alpha: float | None = None,
                    shell_width: float | None = None,
                    grid_csv: str | None = None) -> Potential:
    try:
        k = Kind(kind)
    except ValueError:
        raise ConfigurationError(
            f"unknown potential kind {kind!r}; choose from "
            f"{', '.join(x.value for x in Kind)}") from None
    # the one parameter the kind takes, if any; the others are ignored
    param = "grid_csv" if k is Kind.TABULATED else SHAPES[k].param
    value = {"alpha": alpha, "shell_width": shell_width, "grid_csv": grid_csv}.get(param)
    if param is not None and value is None:
        raise ConfigurationError(f"field {param} is required for kind {k.value}")
    if k is Kind.TABULATED:
        return Potential.tabulated(load_grid_csv(value))
    return Potential(k, R=R, **({param: float(value)} if param else {}))


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(text.replace(",", " ").split())


#: per section: (INI key, option name, parser) of every recognized key
_CONFIG_KEYS = {
    "potential": (("kind", "kind", str), ("R", "R", float),
                  ("alpha", "alpha", float), ("shell_width", "shell_width", float),
                  ("grid_csv", "grid_csv", str)),
    "run": (("ell", "ells", _parse_ints), ("methods", "methods", _parse_names),
            ("format", "fmt", str), ("digits", "digits", int)),
    "quadrature": (("rel_tol", "rel_tol", float), ("abs_tol", "abs_tol", float),
                   ("max_subdivisions", "max_subdivisions", int)),
}


def read_config_file(path: str, skip: tuple[str, ...] = ()) -> dict:
    """The keys of the file by option name, parsed; the options in `skip`
    are neither parsed nor returned.  A key outside `_CONFIG_KEYS` is an
    error."""
    parser = configparser.ConfigParser()
    sections = {}
    try:
        if not parser.read(path):
            raise ConfigurationError(f"cannot read config file {path!r}")
        # [DEFAULT] is no gcrit section; its keys would reach every other
        for name in (parser.default_section, *parser.sections()):
            known = {parser.optionxform(key) for key, _, _ in _CONFIG_KEYS.get(name, ())}
            for key in parser[name]:
                if key not in known:
                    raise ConfigurationError(
                        f"config file {path!r}: [{name}] {key} is not a gcrit key")
        for name, keys in _CONFIG_KEYS.items():
            if parser.has_section(name):
                sec = parser[name]
                sections[name] = {opt: _config_value(path, name, key, sec[key], conv)
                                  for key, opt, conv in keys
                                  if key in sec and opt not in skip}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"config file {path!r}: {exc}") from None
    out = {**sections.get("potential", {}), **sections.get("run", {})}
    if "quadrature" in sections:
        out["quadrature"] = QuadratureConfig(**sections["quadrature"])
    return out


def _config_value(path: str, section: str, key: str, text: str, conv):
    try:
        return conv(text)
    except ValueError:
        raise ConfigurationError(f"config file {path!r}: [{section}] {key} = "
                                 f"{text!r} is not a valid value") from None


def _merge_run_config(args, skip: tuple[str, ...] = (), **run_flags) -> RunConfig:
    """The config file, overridden by the potential flags, --ell and the
    verb's own `run_flags`; a flag left out (None) keeps the file's value,
    and a value neither gives is the default of `build_potential` or
    `RunConfig`.  The file's values of the options in `skip`, which the
    verb does not use, are not read."""
    opts: dict = read_config_file(args.config, skip) if args.config else {}
    flags = {"kind": args.potential or None, "R": args.R, "alpha": args.alpha,
             "shell_width": args.shell_width, "grid_csv": args.grid_csv,
             "ells": tuple(args.ell) if args.ell else None, **run_flags}
    opts.update({k: v for k, v in flags.items() if v is not None})
    shape = {opt: opts.pop(opt) for _, opt, _ in _CONFIG_KEYS["potential"] if opt in opts}
    if not shape.get("kind"):
        raise ConfigurationError("field kind: no potential given (flag or config file)")
    return RunConfig(potential=build_potential(**shape), **opts)


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_compute(args) -> int:
    config = _merge_run_config(args, methods=tuple(args.methods) if args.methods else None,
                               fmt=args.format, digits=args.digits)
    _check_writable(args.out)
    records = run(config)
    if args.records:
        num = f"{{:.{config.digits}g}}"
        rows = [[str(r.ell), r.method, num.format(r.value),
                 "" if r.optimal_param is None else num.format(r.optimal_param),
                 f"{r.error_estimate:.2e}", f"{r.wall_time_s:.3f}"] for r in records]
        text = render(["ell", "method", "value", "optimal_param",
                       "error_estimate", "wall_time_s"], rows, config.fmt)
    else:
        text = render_wide(records, config.fmt, config.digits)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    if args.digits < 2:
        raise ConfigurationError("digits must be at least 2")
    _check_writable(args.out)
    artifact = reproduce_table(args.table)
    text = artifact.to_markdown(args.digits) if args.format == "md" else artifact.to_csv(args.digits)
    _emit(text, args.out)
    status = "PASS" if artifact.passed else "FAIL"
    errata = "".join(f"; erratum applied: {e.describe()}" for e in artifact.errata)
    print(f"table {args.table}: {status} (max relative deviation "
          f"{artifact.max_deviation:.2e}{errata})", file=sys.stderr)
    return EXIT_OK if artifact.passed else EXIT_INVARIANT


def _cmd_check(args) -> int:
    if args.config or args.potential:
        config = _merge_run_config(args, skip=("methods", "fmt", "digits"))
        potentials = [config.potential]
        ells, cfg = config.ells, config.quadrature
    else:
        # every analytic kind, at its parameter's default; one without a default sits out
        potentials = [Potential(k, **({s.param: s.default} if s.param else {}))
                      for k, s in SHAPES.items() if s.param is None or s.default]
        ells, cfg = _ells(args.ell or (0, 1, 2)), DEFAULT_CONFIG
    failures = 0

    def report(ok: bool, text: str):
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {text}")
        if not ok:
            failures += 1

    for pot in potentials:
        reg = pot.validate_regularity(0.5)
        report(reg.ok, f"{pot.label()}: regular at origin and infinity")
        if not reg.ok:
            # outside the admissible class the bounds carry no guarantee
            continue
        for ell in ells:
            try:
                rep = sandwich(pot, ell, cfg)
            except InvariantViolation as exc:
                report(False, str(exc))
                continue
            name = f"{pot.label()} ell={ell}"
            report(rep.ordering_ok(),
                   f"{name}: max lower {rep.max_lower:.6g} <= exact "
                   f"{rep.exact_shooting:.6g} <= min upper {rep.min_upper:.6g}")
            seq = rep.lower_sequence
            report(rep.lower_sequence_ok(),
                   f"{name}: lower sequence monotone "
                   f"({seq[0]:.6g} <= {seq[1]:.6g} <= {seq[2]:.6g})")
            report(rep.ggmt_ok(),
                   f"{name}: optimized power family at least first moment")
            report(rep.solvers_agree(),
                   f"{name}: solvers agree to {rep.solver_gap:.2e}")
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


def _check_writable(out_path: str | None):
    """Refuse an --out path that cannot be written before anything is
    computed, without creating or truncating the file; `_emit` still maps a
    failed write to the same error."""
    if not out_path:
        return
    target = (out_path if os.path.exists(out_path)
              else os.path.dirname(os.path.abspath(out_path)))
    if os.path.isdir(out_path) or not os.access(target, os.W_OK):
        raise ConfigurationError(f"cannot write {out_path!r}: not a writable file path")


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigurationError(f"cannot write {out_path!r}: {exc}") from None
    else:
        sys.stdout.write(text)


def _add_potential_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="INI config file")
    p.add_argument("--potential", help="potential kind "
                   f"({', '.join(k.value for k in Kind)})")
    p.add_argument("--R", type=float, help="radius parameter (default 1)")
    p.add_argument("--alpha", type=float, help="cutoff multiplier (stis)")
    p.add_argument("--shell-width", dest="shell_width", type=float,
                   help="shell width (shell)")
    p.add_argument("--grid-csv", dest="grid_csv",
                   help="two-column CSV of (radius, value) (tabulated)")
    p.add_argument("--ell", type=int, nargs="+", help="partial waves")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcrit",
        description="Bracket the critical coupling of attractive central potentials")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_compute = sub.add_parser("compute", help="compute bound values")
    _add_potential_flags(p_compute)
    p_compute.add_argument("--methods", nargs="+",
                           help=f"methods to run: {', '.join(METHOD_NAMES)} or all")
    p_compute.add_argument("--format", choices=("csv", "md"), help="output format")
    p_compute.add_argument("--records", action="store_true",
                           help="long format: one line per (ell, method) with timing")
    p_compute.add_argument("--digits", type=int, help="significant digits (default 6)")
    p_compute.add_argument("--out", help="write output to a file instead of stdout")
    p_compute.set_defaults(func=_cmd_compute)

    p_repr = sub.add_parser("reproduce", help="recompute a reference table")
    p_repr.add_argument("--table", type=int, required=True, choices=(1, 2, 3, 4))
    p_repr.add_argument("--format", choices=("csv", "md"))
    p_repr.add_argument("--digits", type=int, default=6)
    p_repr.add_argument("--out", help="write output to a file instead of stdout")
    p_repr.set_defaults(func=_cmd_reproduce)

    p_check = sub.add_parser("check", help="run the invariant suite")
    _add_potential_flags(p_check)
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            # a warning prints as one plain line, without its source location
            warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                             file=sys.stderr)
            return args.func(args)
    except (ConfigurationError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AccuracyError, IntegrationError, NoBoundStateError,
            SearchRangeError, TruncationError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
