"""Command-line pipelines: exact / gamma / solve / convergence / fit / norms / verify.

Case configuration is flat ``key = value`` text under ``[section]`` headers
(parsed with the stdlib parser, unknown keys are hard errors).  Commands
write CSV artifacts with a single header row and 17-significant-digit
floats; ``solve``, ``convergence`` and ``fit`` also write a JSON run
manifest listing the produced files, and they, ``exact --field-csv`` and
``norms --output`` overwrite nothing without ``--force``.  Exit codes: 0 success, 1
verification failure, 2 usage/config error (an output path that cannot be
written included), 3 numerical failure (running out of memory included).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    FitError,
    default_fit_radii,
    default_rays,
    fit_corner_exponent,
    interface_flux_jump,
)
from .exact_solutions import (
    DegenerateAngleError,
    NoSignChangeError,
    RootConvergenceError,
    TransmissionSignError,
    build_dirichlet_example,
    corrector_solve,
    eval_separable_xy,
    grad_separable_xy,
    manufactured_grad,
    manufactured_load,
    manufactured_value,
    singular_exponent,
    singular_exponents,
    transmission_coeffs,
)
from .fem import (
    EllipticityError,
    ProblemSpec,
    SolverError,
    coefficient_jump,
    error_report,
    fit_rate,
    solution_field,
    solve_problem,
)
from .geometry import GeometryError, make_wedge, sector, wedge_angles
from .norms import (
    NormEstimateError,
    NormParams,
    SampledField,
    fmt,
    read_sampled_field_csv,
    weighted_norm,
    write_csv,
    write_sampled_field_csv,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Unusable case configuration."""


@dataclass
class CaseConfig:
    theta_plus: float
    theta_minus: float
    radius: float = 1.0
    h: float = 0.1
    mu: float = 1.0
    a0: float | None = None
    gamma: float | None = None
    lam: float | None = None
    Lam: float | None = None
    phi: str = "exact_trace"
    g: str = "zero"
    h_data: str = "zero"
    n_rays: int = 32
    n_radii: int = 9
    directory: str = "out"
    formats: tuple[str, ...] = ("csv",)
    source_text: str = ""

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.source_text.encode("utf-8")).hexdigest()


def _finite_positive(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError("not a finite positive number")
    return value


def _count(least: int):
    def parse(text: str) -> int:
        if not (text.isdecimal() and int(text) >= least):
            raise ValueError(f"not an integer >= {least}")
        return int(text)

    return parse


def _formats(text: str) -> tuple[str, ...]:
    formats = tuple(t.strip() for t in text.split(",") if t.strip())
    for name in formats:
        if name not in ("csv", "svg"):
            raise ValueError(f"unknown format {name!r} (known: csv, svg)")
    return formats


# section -> key -> (CaseConfig field, parser); the defaults live on CaseConfig
_SCHEMA = {
    "geometry": {key: (key, float) for key in ("theta_plus", "theta_minus", "radius", "h", "mu")},
    "coefficient": {
        "a0": ("a0", _finite_positive), "gamma": ("gamma", _finite_positive),
        "lambda": ("lam", _finite_positive), "Lambda": ("Lam", _finite_positive),
    },
    "data": {"phi": ("phi", str.strip), "g": ("g", str.strip), "h": ("h_data", str.strip)},
    "analysis": {"n_rays": ("n_rays", _count(1)), "n_radii": ("n_radii", _count(4))},
    "output": {"directory": ("directory", str.strip), "formats": ("formats", _formats)},
}


def load_case_config(path) -> CaseConfig:
    text = Path(path).read_text(encoding="utf-8")
    # no header can name the section "", so [DEFAULT] is an ordinary section, and an unknown one
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), default_section="")
    parser.optionxform = str  # lambda and Lambda are distinct keys
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            name, parse = _SCHEMA[section][key]
            try:
                values[name] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    if "theta_plus" not in values or "theta_minus" not in values:
        raise ConfigError("[geometry] needs theta_plus and theta_minus")
    return CaseConfig(**values, source_text=text)


def _poly_field(key: str, expr: str):
    # "poly: c0 cx cy cxx cxy cyy" -> quadratic polynomial; missing terms are 0
    tokens = expr.split(":", 1)[1].replace(",", " ").split()
    try:
        coeffs = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ConfigError(f"[data] {key} = {expr!r}: {exc}") from exc
    if len(coeffs) > 6 or not all(map(math.isfinite, coeffs)):
        raise ConfigError(f"[data] {key} = {expr!r}: a quadratic takes at most 6 finite numbers")
    c0, cx, cy, cxx, cxy, cyy = coeffs + [0.0] * (6 - len(coeffs))

    def f(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return c0 + cx * x + cy * y + cxx * x * x + cxy * x * y + cyy * y * y

    return f


def _data(key: str, selector: str, named: dict):
    """The ``[data]`` field ``selector`` names: a ``poly:`` quadratic or one of ``named``."""
    if selector.startswith("poly:"):
        return _poly_field(key, selector)
    if selector not in named:
        raise ConfigError(f"unknown {key} selector {selector!r}")
    return named[selector]


def build_case(cfg: CaseConfig):
    """The case's ``(problem, exact, exact_grad)``; the exact pair is None unless known."""
    if cfg.gamma is not None and cfg.a0 is not None:
        raise ConfigError("[coefficient] takes either gamma or a0, not both")
    domain = sector(cfg.theta_minus, cfg.theta_plus, cfg.radius)
    wedge = domain.wedge
    if cfg.gamma is not None:
        a0 = transmission_coeffs(cfg.gamma, wedge).a0
    else:
        a0 = 1.0 if cfg.a0 is None else cfg.a0
    coeff = coefficient_jump(a0, lam=cfg.lam, Lam=cfg.Lam)

    named_phi = {"zero": 0.0, "sin": manufactured_value}
    if cfg.phi == "exact_trace":
        gamma = cfg.gamma if cfg.gamma is not None else singular_exponent(a0, wedge)
        sol, _ = build_dirichlet_example(gamma, wedge)
        named_phi["exact_trace"] = partial(eval_separable_xy, sol)
    phi = _data("phi", cfg.phi, named_phi)
    h_fn = _data("h", cfg.h_data, {"zero": None, "manufactured_sin": manufactured_load})
    g_comp = _data("g", cfg.g, {"zero": None})
    g_plus = None
    if g_comp is not None:

        def g_plus(x, y):
            v = g_comp(x, y)
            return np.stack([v, np.zeros_like(v)], axis=-1)

    # the exact solution is known only for the two data sets that it solves
    exact = exact_grad = None
    if cfg.g == "zero" and cfg.phi == "exact_trace" and cfg.h_data == "zero":
        exact, exact_grad = phi, partial(grad_separable_xy, sol)
    elif cfg.g == "zero" and cfg.phi == "sin" and cfg.h_data == "manufactured_sin" and a0 == 1.0:
        exact, exact_grad = manufactured_value, manufactured_grad

    problem = ProblemSpec(domain=domain, coeff=coeff, phi=phi, g_plus=g_plus, g_minus=g_plus, h=h_fn)
    return problem, exact, exact_grad


# ---------------------------------------------------------------------------
# output plumbing


MANIFEST = "manifest.json"


def _unclaimed(path, force: bool) -> Path:
    """``path``, unless a directory is there, or a file and ``force`` is off: then a ``ConfigError``."""
    path = Path(path)
    if path.is_dir():
        raise ConfigError(f"refusing to write {path}: it is a directory")
    if path.exists() and not force:
        raise ConfigError(f"refusing to overwrite {path} (pass --force)")
    return path


class OutputGuard:
    """Hands out output paths: one per name in a run, never the manifest's, and no overwrite without ``force``.

    An earlier run's manifest counts as an output too: without ``force`` it
    is refused here, before any file of this run is written.
    """

    def __init__(self, directory: Path, force: bool):
        self.directory = directory
        self.force = force
        self.files: list[str] = []
        self._taken = {_unclaimed(directory / MANIFEST, force).resolve()}

    def path(self, name: str) -> Path:
        if name in ("", ".", "..") or Path(name).name != name:
            raise ConfigError(f"output name {name!r} is not a plain file name")
        self.directory.mkdir(parents=True, exist_ok=True)
        p = self.directory / name
        if p.resolve() in self._taken:
            raise ConfigError(f"output name {name!r} is taken by another output of this run")
        self._taken.add(_unclaimed(p, self.force).resolve())
        self.files.append(name)
        return p

    def finish(self, config_hash: str, steps: list[tuple[str, str]]) -> None:
        """Write the manifest: config hash, tool version, step statuses and the files handed out.

        It carries no timestamps, so identical configs yield identical manifests.
        """
        payload = {
            "tool_version": __version__,
            "config_hash": config_hash,
            "steps": [{"name": n, "status": s} for n, s in steps],
            "files": sorted(self.files),
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        (self.directory / MANIFEST).write_text(text, encoding="utf-8")


def write_loglog_svg(path: Path, xs, series: dict[str, list[float]], xlabel: str, ylabel: str, title: str) -> None:
    """Minimal hand-rolled log-log polyline plot (no plotting dependency)."""
    width, height, margin = 640, 480, 60
    xs = [float(v) for v in xs]
    all_y = [v for ys in series.values() for v in ys if v > 0.0]
    if not all_y or not xs:
        raise ValueError("nothing to plot")
    lx = [math.log10(v) for v in xs]
    ly_min = math.log10(min(all_y))
    ly_max = math.log10(max(all_y))
    lx_min, lx_max = min(lx), max(lx)
    if lx_max == lx_min:
        lx_max += 1.0
    if ly_max == ly_min:
        ly_max += 1.0

    def px(v):
        return margin + (math.log10(v) - lx_min) / (lx_max - lx_min) * (width - 2 * margin)

    def py(v):
        return height - margin - (math.log10(v) - ly_min) / (ly_max - ly_min) * (height - 2 * margin)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.0f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<text x="{width/2:.0f}" y="{height-12}" text-anchor="middle" font-size="13">{xlabel}</text>',
        f'<text x="16" y="{height/2:.0f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {height/2:.0f})">{ylabel}</text>',
        f'<rect x="{margin}" y="{margin}" width="{width-2*margin}" height="{height-2*margin}" '
        f'fill="none" stroke="#444"/>',
    ]
    for d in range(math.floor(lx_min), math.ceil(lx_max) + 1):
        v = 10.0**d
        if lx_min <= d <= lx_max:
            parts.append(
                f'<line x1="{px(v):.1f}" y1="{margin}" x2="{px(v):.1f}" y2="{height-margin}" '
                f'stroke="#ccc" stroke-dasharray="3,3"/>'
            )
            parts.append(
                f'<text x="{px(v):.1f}" y="{height-margin+18}" text-anchor="middle" '
                f'font-size="11">1e{d}</text>'
            )
    for d in range(math.floor(ly_min), math.ceil(ly_max) + 1):
        v = 10.0**d
        if ly_min <= d <= ly_max:
            parts.append(
                f'<line x1="{margin}" y1="{py(v):.1f}" x2="{width-margin}" y2="{py(v):.1f}" '
                f'stroke="#ccc" stroke-dasharray="3,3"/>'
            )
            parts.append(
                f'<text x="{margin-6}" y="{py(v):.1f}" text-anchor="end" font-size="11">1e{d}</text>'
            )
    for idx, (label, ys) in enumerate(series.items()):
        color = colors[idx % len(colors)]
        pts = " ".join(
            f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys) if y > 0.0
        )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        for x, y in zip(xs, ys):
            if y > 0.0:
                parts.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="3" fill="{color}"/>')
        parts.append(
            f'<text x="{width-margin-6}" y="{margin+16+14*idx}" text-anchor="end" '
            f'font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# commands


def cmd_exact(args) -> int:
    out = _unclaimed(args.field_csv, args.force) if args.field_csv else None
    wedge = make_wedge(args.theta_minus, args.theta_plus)
    tc = transmission_coeffs(args.gamma, wedge)
    print(f"A = {fmt(tc.A)}")
    print(f"a0 = {fmt(tc.a0)}")
    print(f"C = {fmt(tc.C)}")
    if out is not None:
        sol, _ = build_dirichlet_example(args.gamma, wedge)
        rr = np.linspace(0.05, 1.0, 24)
        tt = default_rays(wedge, 33)
        R, T = np.meshgrid(rr, tt, indexing="ij")
        x, y = (R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()
        gx, gy = grad_separable_xy(sol, x, y)
        field = SampledField(
            np.column_stack([x, y]),
            eval_separable_xy(sol, x, y),
            np.column_stack([gx, gy]),
            np.where(wedge_angles(wedge, x, y) >= 0, 1, -1).astype(np.int8),
        )
        write_sampled_field_csv(field, out)
        print(f"field_csv = {out}")
    return EXIT_OK


def cmd_gamma(args) -> int:
    wedge = make_wedge(args.theta_minus, args.theta_plus)
    if (args.bracket_lo is None) != (args.bracket_hi is None):
        raise ConfigError("--bracket-lo and --bracket-hi must be given together")
    bracket = None if args.bracket_lo is None else (args.bracket_lo, args.bracket_hi)
    if bracket is not None and bracket[0] >= bracket[1]:
        raise ConfigError(f"--bracket-lo must be below --bracket-hi, got ({bracket[0]}, {bracket[1]})")
    roots = singular_exponents(args.a0, wedge, bracket=bracket)
    if not roots:
        raise NoSignChangeError("no root in bracket")
    print(f"gamma = {fmt(roots[0])}")
    print("roots = " + " ".join(fmt(r) for r in roots))
    return EXIT_OK


def cmd_corrector(args) -> int:
    wedge = make_wedge(args.theta_minus, args.theta_plus)
    c = corrector_solve(args.c_plus, args.c_minus, args.a0, wedge)
    print(f"a_star = {fmt(c.a_star)}")
    print(f"b_plus = {fmt(c.b_plus)}")
    print(f"b_minus = {fmt(c.b_minus)}")
    return EXIT_OK


def _open_case(args):
    """Load and build the case of ``args.config`` and guard its output directory: ``(cfg, case, guard)``.

    Every config and output-name check runs here, before any solve or file write.
    """
    cfg = load_case_config(args.config)
    case = build_case(cfg)
    return cfg, case, OutputGuard(Path(cfg.directory), args.force)


def cmd_solve(args) -> int:
    cfg, (problem, exact, exact_grad), guard = _open_case(args)
    res = None if args.residual_csv is None else guard.path(args.residual_csv)
    out = guard.path("solution.csv")
    fs = solve_problem(problem, cfg.h, cfg.mu)
    write_sampled_field_csv(solution_field(fs), out, value_column="u")
    steps = [("mesh", "ok"), ("assemble", "ok"), ("solve", f"iters={fs.diagnostics.iterations}")]
    if res is not None:
        write_csv(
            res,
            ["iteration", "relative_residual"],
            [[i + 1, float(r)] for i, r in enumerate(fs.diagnostics.history)],
        )
        steps.append(("residual_history", "ok"))
    if exact is not None:
        rep = error_report(fs, exact, exact_grad)
        steps.append(("error", f"linf={rep.linf:.3e}"))
        print(f"L2 = {fmt(rep.l2)}")
        print(f"brokenH1 = {fmt(rep.broken_h1)}")
        print(f"Linf = {fmt(rep.linf)}")
    guard.finish(cfg.config_hash, steps)
    print(f"ndof = {fs.mesh.n_vertices}")
    print(f"iterations = {fs.diagnostics.iterations}")
    print(f"preconditioner = {fs.diagnostics.preconditioner}")
    print(f"levels = {fs.diagnostics.levels}")
    print(f"true_residual = {fs.diagnostics.true_residual:.3e}")
    print(f"solution_csv = {out}")
    return EXIT_OK


def _convergence_level(problem: ProblemSpec, exact, exact_grad, h: float, mu: float):
    fs = solve_problem(problem, h, mu)
    flux = interface_flux_jump(fs, problem.coeff)
    if exact is not None:
        rep = error_report(fs, exact, exact_grad)
        l2, bh1, linf = rep.l2, rep.broken_h1, rep.linf
    else:
        l2 = bh1 = linf = float("nan")
    return [h, fs.mesh.n_vertices, l2, bh1, linf, flux.mean_jump]


def cmd_convergence(args) -> int:
    if args.levels < 1:
        raise ConfigError(f"--levels must be at least 1, got {args.levels}")
    cfg, (problem, exact, exact_grad), guard = _open_case(args)
    rows = [
        _convergence_level(problem, exact, exact_grad, cfg.h * 0.5**k, cfg.mu)
        for k in range(args.levels)
    ]
    out = guard.path("convergence.csv")
    write_csv(out, ["h", "ndof", "L2", "brokenH1", "Linf", "flux_jump"], rows)
    steps = [("convergence", f"levels={args.levels}")]
    if "svg" in cfg.formats:
        hs = [r[0] for r in rows]
        series = {}
        for name, j in (("L2", 2), ("brokenH1", 3), ("Linf", 4), ("flux_jump", 5)):
            vals = [r[j] for r in rows]
            if all(math.isfinite(v) and v > 0 for v in vals):
                series[name] = vals
        if series:
            svg = guard.path("convergence.svg")
            write_loglog_svg(svg, hs, series, "h", "error", "convergence")
            steps.append(("svg", "ok"))
    guard.finish(cfg.config_hash, steps)
    if exact is not None and len(rows) >= 2:
        hs = [r[0] for r in rows]
        print(f"L2_rate = {fmt(fit_rate(hs, [r[2] for r in rows]))}")
        print(f"H1_rate = {fmt(fit_rate(hs, [r[3] for r in rows]))}")
    print(f"convergence_csv = {out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg, (problem, _, _), guard = _open_case(args)
    try:
        radii = default_fit_radii(cfg.h, cfg.radius, cfg.n_radii)
    except FitError as exc:  # the window follows from h and R alone
        raise ConfigError(f"[geometry] h = {cfg.h:g}, radius = {cfg.radius:g}: {exc}") from exc
    fs = solve_problem(problem, cfg.h, cfg.mu)
    rays = default_rays(problem.domain.wedge, cfg.n_rays)
    fit = fit_corner_exponent(fs, rays, radii)
    curve = guard.path("fit.csv")
    write_csv(
        curve,
        ["r", "sup_abs_v"],
        [[float(r), float(s)] for r, s in zip(fit.radii, fit.sup_values)],
    )
    summary = guard.path("fit_summary.csv")
    write_csv(summary, ["beta", "intercept", "r2"], [[fit.beta, fit.intercept, fit.r_squared]])
    guard.finish(cfg.config_hash, [("fit", f"beta={fit.beta:.6g}")])
    print(f"beta = {fmt(fit.beta)}")
    print(f"r2 = {fmt(fit.r_squared)}")
    print(f"fit_csv = {curve}")
    return EXIT_OK


def cmd_norms(args) -> int:
    out = _unclaimed(args.output, args.force) if args.output else None
    field = read_sampled_field_csv(args.solution_csv)
    params = NormParams(k=args.k, alpha=args.alpha, tau=args.tau)
    report = weighted_norm(field, params)
    for line in report.as_lines():
        print(line)
    if out:
        write_csv(
            out,
            ["k", "alpha", "tau", *(f"seminorm_{i}_0" for i in range(args.k + 1)),
             "seminorm_k_alpha", "total"],
            [[args.k, args.alpha, args.tau, *report.seminorms_k0,
              report.seminorm_kalpha, report.total]],
        )
        print(f"norms_csv = {out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .acceptance import run_acceptance

    results = run_acceptance(args.filter)
    if not results:
        raise ConfigError(f"--filter {args.filter!r} matches no criterion")
    n_fail = sum(1 for r in results if not r.passed)
    print(f"{len(results) - n_fail}/{len(results)} criteria passed")
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY_FAIL


def positive_float(text: str) -> float:
    try:
        return _finite_positive(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r}: not a finite number")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wedgelab",
        description="Elliptic interface problems on wedge domains: exact solutions, "
        "FEM solves, and regularity diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"wedgelab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_angles(p):
        p.add_argument("--theta-plus", type=float, required=True, help="upper wall angle (radians)")
        p.add_argument("--theta-minus", type=float, required=True, help="lower wall angle (radians)")
        p.add_argument("--degrees", action="store_true", help="interpret angles in degrees")

    p = sub.add_parser("exact", help="transmission coefficients of the wall-vanishing solution")
    p.add_argument("--gamma", type=positive_float, required=True)
    add_angles(p)
    p.add_argument("--field-csv", help="also write a sampled-field CSV of the solution")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("gamma", help="smallest singular exponent for a coefficient jump")
    p.add_argument("--a0", type=positive_float, required=True)
    add_angles(p)
    p.add_argument("--bracket-lo", type=positive_float, default=None)
    p.add_argument("--bracket-hi", type=positive_float, default=None)
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser(
        "corrector", help="piecewise-linear plane matching tangential wall derivatives"
    )
    p.add_argument("--c-plus", type=finite_float, required=True)
    p.add_argument("--c-minus", type=finite_float, required=True)
    p.add_argument("--a0", type=positive_float, required=True)
    add_angles(p)
    p.set_defaults(fn=cmd_corrector)

    p = sub.add_parser("solve", help="FEM solve from a case config")
    p.add_argument("config")
    p.add_argument("--force", action="store_true")
    p.add_argument("--residual-csv", default=None, metavar="NAME",
                   help="also write the CG residual history under this name")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("convergence", help="refinement sweep with CSV/SVG artifacts")
    p.add_argument("config")
    p.add_argument("--levels", type=int, default=3)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_convergence)

    p = sub.add_parser("fit", help="corner-exponent fit of a solved case")
    p.add_argument("config")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("norms", help="weighted-norm estimate of a solution CSV")
    p.add_argument("solution_csv")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--output", help="write the report as a CSV row")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_norms)

    p = sub.add_parser("verify", help="run the acceptance battery")
    p.add_argument("--filter", default="",
                   help="run only criteria whose name contains this substring (any case)")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    if getattr(args, "degrees", False):
        args.theta_plus = math.radians(args.theta_plus)
        args.theta_minus = math.radians(args.theta_minus)
    try:
        return args.fn(args)
    except (ConfigError, DegenerateAngleError, EllipticityError, GeometryError, NormEstimateError,
            TransmissionSignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RootConvergenceError, SolverError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"numerical failure: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
