"""Command-line front end: JSON config parsing, subcommand dispatch, CSV/SVG
reports, and reproducible run manifests.

Usage:
    lab classify           --config cfg.json [--out DIR]
    lab solve              --config cfg.json [--which h|minimal|family|exterior-ball] [--out DIR] [--svg]
    lab verify             --config cfg.json [--target ID_OR_PATH] [--out DIR]
    lab certify-divergence --config cfg.json [--out DIR]

Exit codes: 0 success/determinate; 1 malformed config, unreadable input, or a
command that does not fit K or f; 2 inconclusive verdict or failed
verification; 3 solver error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .errors import ConfigError, DomainError, LabError, UnsupportedCombinationError
from . import analysis as _analysis
from . import bvp1d as _bvp1d
from . import construct as _construct
from . import funcs as _funcs
from . import problem as _problem
from . import quad as _quad


# ---------------------------------------------------------------------------
# config schema: every key with its check and its default, stated once
# ---------------------------------------------------------------------------

REQUIRED = object()  # default of a key the config must give

CONSTRUCTIONS = ("minimal", "family", "exterior-ball")
SOLVE_TARGETS = ("h",) + CONSTRUCTIONS


# Each check below is a function check(value, path) returning the parsed value.

def _number(above: float | None = None, below: float | None = None,
            minimum: float | None = None):
    """A finite number with above < x < below and x >= minimum (each bound optional).

    JSON parses the overflow 1e400 as inf, so inf and nan are rejected.
    """
    def check(value, path):
        x = float(value)
        if not np.isfinite(x):
            raise ConfigError(f"{path} must be a finite number")
        if above is not None and x <= above:
            raise ConfigError(f"{path} must be > {above:g}")
        if minimum is not None and x < minimum:
            raise ConfigError(f"{path} must be >= {minimum:g}")
        if below is not None and x >= below:
            raise ConfigError(f"{path} must be < {below:g}")
        return x
    return check


def _integer(minimum: int, maximum: int | None = None):
    """An integer with minimum <= x (<= maximum if given); bools and non-integral
    numbers are rejected, not truncated, and float() raises OverflowError on one
    beyond the float range."""
    def check(value, path):
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not float(value).is_integer() or value < minimum):
            raise ConfigError(f"{path} must be an integer >= {minimum}")
        if maximum is not None and value > maximum:
            raise ConfigError(f"{path} must be an integer <= {maximum}")
        return int(value)
    return check


def _text():
    return lambda value, path: str(value)


def _numbers(item):
    """A list whose entries each pass the check item."""
    return lambda value, path: tuple(item(x, path) for x in value)


def _one_of(choices: tuple[str, ...]):
    def check(value, path):
        if value not in choices:
            raise ConfigError(f"{path} must be one of {', '.join(choices)}")
        return value
    return check


def _record(schema: dict, build=SimpleNamespace):
    """An object with only the keys of schema {key: (check, default)}, passed to build.

    A missing key takes its default, which is checked like a given value; a
    default of None leaves the field None, for the command to compute.
    """
    def check(obj, path):
        name = path or "root"
        if not isinstance(obj, dict):
            raise ConfigError(f"{name} must be an object")
        unknown = set(obj) - set(schema)
        if unknown:
            raise ConfigError(f"unknown keys at {name}: {sorted(unknown)}")
        fields = {}
        for key, (check_value, default) in schema.items():
            where = f"{path}.{key}" if path else key
            if key not in obj and default is REQUIRED:
                raise ConfigError(f"{name}: missing key {key!r}")
            if key not in obj and default is None:
                fields[key] = None
                continue
            try:
                fields[key] = check_value(obj.get(key, default), where)
            except ConfigError:
                raise
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"{where}: bad value: {exc}") from exc
        return build(**fields)
    return check


def _kind(label: str, kinds: dict):
    """An object whose 'kind' picks a row (constructor, {key: check}) of kinds;
    every other key of the row is required."""
    rows = {kind: _record({key: (c, REQUIRED) for key, c in keys.items()}, build)
            for kind, (build, keys) in kinds.items()}

    def check(obj, path):
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ConfigError(f"{path} must be an object with a 'kind'")
        kind = obj["kind"]
        if not isinstance(kind, str) or kind not in rows:
            raise ConfigError(f"{path}.kind: unknown {label} kind {kind!r}")
        return rows[kind]({k: v for k, v in obj.items() if k != "kind"}, path)
    return check


def _constant_f(value: float):
    return _funcs.GeneralDecreasingF(
        lambda t, c=value: np.full_like(np.asarray(t, dtype=float), c),
        name=f"constant({value})")


WEIGHT_KINDS = {
    "power": (_funcs.PowerPhi, {"alpha": _number()}),
    "power_split": (_funcs.PowerSplitPhi, {"alpha": _number(), "beta": _number()}),
    "power_log": (_funcs.PowerLogPhi, {"alpha": _number(), "beta": _number()}),
    "iter_log": (_funcs.IterLogPhi, {"alpha": _number(), "betas": _numbers(_number())}),
    "tabulated": (
        lambda knots, values, near0_exponent, tail_exponent: _funcs.TabulatedPhi(
            knots=np.asarray(knots), values=np.asarray(values),
            near0_exp=near0_exponent, tail_exp=tail_exponent),
        {"knots": _numbers(_number()), "values": _numbers(_number()),
         "near0_exponent": _number(), "tail_exponent": _number()}),
}
NONLINEARITY_KINDS = {
    "power": (_funcs.PowerF, {"p": _number()}),
    "constant": (_constant_f, {"value": _number(above=0.0)}),
}
COMPACT_SET_KINDS = {
    "origin": (_problem.Origin, {}),
    "ball": (_problem.Ball, {"radius": _number()}),
    "point_set": (_problem.PointSet, {"centers": _numbers(_numbers(_number()))}),
}

CONFIG = _record({
    "problem": (_record({
        "N": (_integer(2), REQUIRED),
        "phi": (_kind("weight", WEIGHT_KINDS), REQUIRED),
        "f": (_kind("nonlinearity", NONLINEARITY_KINDS), REQUIRED),
        "K": (_kind("compact-set", COMPACT_SET_KINDS), REQUIRED),
    }, _problem.ProblemSpec), REQUIRED),
    "solve": (_record({
        "tol_sup": (_number(above=0.0), 1e-8),
        "max_outer": (_integer(1), 64),
        "max_picard": (_integer(1), 600),
        "nodes": (_integer(32, 2 ** 20), 2048),    # the residual audit's minimum
        "which": (_one_of(SOLVE_TARGETS), "minimal"),
        "n_max": (_integer(4, 2 ** 16), 64),    # 16 doubling levels at most
        "a": (_number(minimum=0.0), 0.0),
        "b": (_number(minimum=0.0), 0.0),
        "t_min": (_number(above=0.0, below=0.25), 1e-7),
        "delta_min": (_number(above=0.0, below=0.05), 1e-6),  # layer window (2 delta_min, 0.1)
    }), {}),
    "verify": (_record({
        "target": (_text(), "minimal"),
        "mode": (_one_of(("equality", "inequality")), "inequality"),
        "tol": (_number(), None),
        "r1": (_number(above=0.0), None),
        "samples": (_integer(1, 10 ** 6), 10_000),
        "h": (_number(above=0.0), 0.01),
    }), {}),
    "certify": (_record({
        "regime": (_one_of(("tail", "near0", "boundary")), "tail"),
        "r0": (_number(above=0.0), 1.0),
        "levels": (_integer(3, 1000), 24),  # 2^-1000 is still a normal double
    }), {}),
    "output_dir": (_text(), "out"),
    "seed": (_integer(0), 42),
})


def load_config(path: str) -> SimpleNamespace:
    """The checked config: cfg.problem is a ProblemSpec, cfg.solve.n_max and so on
    are the table's fields, and cfg.echo is the JSON as read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    cfg = CONFIG(raw, "")
    cfg.echo = raw
    cfg.solve.config = _bvp1d.SolveConfig(tol_sup=cfg.solve.tol_sup,
                                          max_outer=cfg.solve.max_outer,
                                          max_picard=cfg.solve.max_picard)
    return cfg


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _write_atomic(path: Path, text: str) -> None:
    """Write text to a sibling temporary file, then rename it over path."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_csv_atomic(path: Path, header: list[str], rows: list[list[str]]) -> None:
    _write_atomic(path, "".join(",".join(row) + "\n" for row in [header, *rows]))


def write_manifest(path: Path, payload: dict) -> None:
    """Strict JSON: a non-finite number (an empty window's increment) is written as null."""
    strict = json.loads(json.dumps(payload), parse_constant=lambda name: None)
    _write_atomic(path, json.dumps(strict, indent=2, sort_keys=True, allow_nan=False) + "\n")


def write_profile_svg(path: Path, r: np.ndarray, u: np.ndarray, title: str) -> None:
    """Self-contained log-log polyline plot; no plotting dependency."""
    mask = (r > 0) & (u > 0)
    x = np.log10(r[mask])
    y = np.log10(u[mask])
    if x.size < 2:
        return
    W, H, pad = 640, 480, 50
    x0, x1 = float(x.min()), float(x.max())
    y0, y1 = float(y.min()), float(y.max())
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0
    px = pad + (x - x0) / (x1 - x0) * (W - 2 * pad)
    py = H - pad - (y - y0) / (y1 - y0) * (H - 2 * pad)
    pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W/2:.0f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{H-pad}" x2="{W-pad}" y2="{H-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{H-pad}" stroke="black"/>',
        f'<text x="{W/2:.0f}" y="{H-12}" text-anchor="middle" font-size="12">log10 r</text>',
        f'<text x="14" y="{H/2:.0f}" font-size="12" transform="rotate(-90 14 {H/2:.0f})">log10 u</text>',
        f'<text x="{pad}" y="{H-pad+16}" font-size="10">{x0:.2f}</text>',
        f'<text x="{W-pad}" y="{H-pad+16}" text-anchor="end" font-size="10">{x1:.2f}</text>',
        f'<text x="{pad-4}" y="{H-pad}" text-anchor="end" font-size="10">{y0:.2f}</text>',
        f'<text x="{pad-4}" y="{pad+4}" text-anchor="end" font-size="10">{y1:.2f}</text>',
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>',
        "</svg>",
    ]
    _write_atomic(path, "\n".join(svg) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(cfg: SimpleNamespace, out: Path) -> int:
    t0 = time.perf_counter()
    prediction = _quad.classify_existence(cfg.problem)
    rows = [rep.csv_row() for rep in prediction.reports]
    write_csv_atomic(out / "conditions.csv",
                     ["criterion", "status", "value", "method", "evaluations"], rows)
    verdict = {True: "exists", False: "does-not-exist", None: "inconclusive"}[prediction.exists]
    write_manifest(out / "manifest.json", {
        "command": "classify",
        "version": __version__,
        "config": cfg.echo,
        "timings": {"classify": time.perf_counter() - t0},
        "headline": {"verdict": verdict, "criterion": prediction.criterion_used},
        "outputs": ["conditions.csv"],
    })
    print(f"verdict: {verdict} (criterion: {prediction.criterion_used})")
    return 0 if prediction.determinate else 2


def _power_fit(profile) -> tuple[float, float]:
    r = np.geomspace(0.1, 10.0, 200)
    u = np.asarray(profile(r))
    A = np.vstack([np.ones_like(r), np.log(r)]).T
    coef, *_ = np.linalg.lstsq(A, np.log(u), rcond=None)
    return float(np.exp(coef[0])), float(coef[1])


def _check_stencil(cfg: SimpleNamespace, which: str) -> None:
    """Cross-key check of problem.N against solve.n_max: the flux stencil must be
    finite on every ladder grid of the construction (the outer radius n_max
    enters it as about n_max^N)."""
    problem, solve = cfg.problem, cfg.solve
    if which == "exterior-ball":
        if not problem.K.solid:
            return  # the construction refuses this K
        grids = _construct.shell_grids(problem.N, problem.K.radius, solve.n_max,
                                       solve.nodes, solve.delta_min)
    else:
        grids = _construct.origin_grids(problem.N, solve.n_max, solve.nodes)
    for grid in grids.values():
        try:
            _bvp1d.flux_stencil(grid.nodes, problem.N)
        except DomainError as exc:
            raise ConfigError(f"problem.N = {problem.N} is too large for solve.n_max = "
                              f"{solve.n_max}: {exc}") from exc


def _build_construction(cfg: SimpleNamespace, which: str):
    """Run one of CONSTRUCTIONS.

    Every result is audited on its raw last iterate, which is stencil-smooth,
    inside its trusted window.
    """
    solve = cfg.solve
    _check_stencil(cfg, which)
    if which == "exterior-ball":
        return _construct.exterior_ball_minimal(cfg.problem, n_max=solve.n_max,
                                                config=solve.config, nodes=solve.nodes,
                                                delta_min=solve.delta_min)
    result = _construct.minimal_solution(cfg.problem, n_max=solve.n_max,
                                         config=solve.config, nodes=solve.nodes)
    if which == "family":
        result = _construct.family_member(cfg.problem, solve.a, solve.b, result,
                                          n_max=solve.n_max, config=solve.config,
                                          nodes=solve.nodes)
    return result


def cmd_solve(cfg: SimpleNamespace, out: Path, svg: bool, which: str | None = None) -> int:
    which = which or cfg.solve.which
    t0 = time.perf_counter()
    timings: dict[str, float] = {}
    headline: dict = {}
    outputs: list[str] = []
    asym = None

    if which == "h":
        try:  # the reachable first node depends on both keys
            _bvp1d.RadialGrid.two_sided_unit(cfg.solve.t_min, cfg.solve.nodes)
        except DomainError as exc:
            raise ConfigError(f"solve.t_min = {cfg.solve.t_min:g} with solve.nodes = "
                              f"{cfg.solve.nodes}: {exc}") from exc
        profile = _bvp1d.solve_H(cfg.problem.phi, cfg.problem.f, cfg.solve.config,
                                 nodes=cfg.solve.nodes, t_min=cfg.solve.t_min)
        headline["H_mid"] = float(profile(0.5))
        residual = None
    else:
        result = _build_construction(cfg, which)
        profile = result.profile
        residual = _analysis.residual_radial(result.raw_last, cfg.problem, "equality",
                                             r_window=result.trusted_window)
        if which == "exterior-ball":
            headline["layer_window"] = list(result.layer_window)
        else:
            try:
                asym = _analysis.asymptotics(profile, cfg.problem.N,
                                             window=result.trusted_window)
            except DomainError as exc:
                raise ConfigError(f"solve.n_max = {cfg.solve.n_max} is too small for "
                                  f"the asymptotics of this grid: {exc}") from exc
        if which == "minimal":
            c_fit, q_fit = _power_fit(profile)
            headline.update({"c_fit": c_fit, "q_fit": q_fit, "n_reached": cfg.solve.n_max})
        if which == "family":
            headline.update({
                "a": cfg.solve.a, "b": cfg.solve.b,
                "sandwich_lower_margin": result.sandwich_lower_margin,
                "sandwich_upper_margin": result.sandwich_upper_margin,
                "a_hat": asym.a_hat, "b_hat": asym.b_hat,
            })
        else:
            headline.update({
                "converged": result.converged,
                "window_increments": [float(x) for x in result.window_increments],
            })
    timings["solve"] = time.perf_counter() - t0

    write_csv_atomic(out / "profile.csv", ["r", "u"], profile.to_csv_rows())
    outputs.append("profile.csv")
    if residual is not None:
        write_csv_atomic(
            out / "residual.csv",
            ["sample_count", "min_residual", "fraction_nonnegative",
             "sup_norm_equation_defect", "stencil_spacing", "skipped"],
            [residual.csv_row()],
        )
        outputs.append("residual.csv")
    if asym is not None:
        write_csv_atomic(
            out / "asymptotics.csv",
            ["a_hat", "b_hat", "a_error", "b_error"],
            [[_fmt(asym.a_hat), _fmt(asym.b_hat), _fmt(asym.a_error), _fmt(asym.b_error)]],
        )
        outputs.append("asymptotics.csv")
    if svg:
        write_profile_svg(out / "profile.svg", profile.grid.nodes, profile.values,
                          f"solve {which}")
        outputs.append("profile.svg")
    write_manifest(out / "manifest.json", {
        "command": f"solve {which}",
        "version": __version__,
        "config": cfg.echo,
        "timings": timings,
        "headline": headline,
        "outputs": outputs,
    })
    for key, val in headline.items():
        print(f"{key}: {val}")
    return 0


def _load_profile_csv(path: Path, dimension: int) -> _bvp1d.RadialProfile:
    name = repr(str(path))  # quoted and escaped, so a line break in it keeps one message line
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except OSError as exc:
        raise ConfigError(f"unreadable target: {name}") from exc
    except ValueError as exc:  # a cell that is not a number, or a ragged row
        raise ConfigError(f"target {name} is not a table of numbers: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 16:
        raise ConfigError(f"target {name} is not a profile table")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"target {name} has values that are not finite")
    if not np.all(data[:, 0] > 0):
        raise ConfigError(f"target {name} has radii that are not positive")
    if not np.all(np.diff(data[:, 0]) > 0):
        raise ConfigError(f"target {name} has radii that are not strictly increasing")
    grid = _bvp1d.RadialGrid(nodes=data[:, 0], dimension=dimension)
    return _bvp1d.RadialProfile(grid=grid, values=data[:, 1])


def cmd_verify(cfg: SimpleNamespace, out: Path, target: str | None = None) -> int:
    target = target or cfg.verify.target
    t0 = time.perf_counter()
    rows: list[list[str]] = []
    outputs = ["verify.csv"]
    all_pass = True

    def add(prop: str, ok: bool, margin: float, location: str) -> None:
        nonlocal all_pass
        rows.append([prop, "pass" if ok else "fail", _fmt(margin), location])
        if not ok:
            all_pass = False

    if target == "superposition":
        if not isinstance(cfg.problem.K, _problem.PointSet):
            raise ConfigError("superposition verification needs a point-set K")
        U = _build_reference_bound(cfg)
        V = _construct.superposition_field(U, cfg.problem.K.as_array())
        rep = _analysis.residual_field(V, cfg.problem, samples=cfg.verify.samples,
                                       h=cfg.verify.h, seed=cfg.seed)
        add("field-inequality-fraction", rep.fraction_nonnegative >= 0.99,
            rep.fraction_nonnegative - 0.99, "low-discrepancy samples")
        add("field-skipped-bounded", rep.skipped <= cfg.verify.samples // 100,
            float(cfg.verify.samples // 100 - rep.skipped), "sample filter")
        coord_names = [f"x{j + 1}" for j in range(cfg.problem.N)]
        write_csv_atomic(out / "samples.csv", coord_names + ["V", "residual"],
                         [[_fmt(x) for x in row] for row in rep.table])
        rr = np.geomspace(U.inner.r_min * 2.0, U.outer.r_max / 2.0, 512)
        write_csv_atomic(out / "bound_profile.csv", ["r", "U"],
                         [[_fmt(a), _fmt(b)] for a, b in zip(rr, U(rr))])
        outputs += ["samples.csv", "bound_profile.csv"]
    else:
        if target in CONSTRUCTIONS:
            result = _build_construction(cfg, target)
            profile, window = result.raw_last, result.trusted_window
            mode = "equality"
        else:
            profile = _load_profile_csv(Path(target), cfg.problem.N)
            window = None
            mode = cfg.verify.mode
        interior = profile.values[1:-1]
        add("positivity", bool(np.all(interior > 0)),
            float(np.min(interior)), "interior nodes")
        tol = cfg.verify.tol
        if tol is None:
            # second-order stencil error floor for the audited grid
            r = profile.grid.nodes
            eps = float(np.log(r[-1] / r[0]) / (len(r) - 1))
            tol = max(1e-8, 10.0 * eps * eps)
        rep = _analysis.residual_radial(profile, cfg.problem, mode, r_window=window)
        if mode == "equality":
            ok = rep.sup_norm_equation_defect <= tol
            worst = tol - rep.sup_norm_equation_defect
        else:
            ok = rep.min_residual >= -tol
            worst = rep.min_residual + tol
        add(f"residual-{mode}", ok, float(worst), f"r={rep.worst_radius:.6g}")
        r1 = cfg.verify.r1
        if r1 is None:
            lo = window[0] if window else profile.r_min
            hi = window[1] if window else profile.r_max
            r1 = float(np.sqrt(lo * min(hi, profile.r_max)))
        floor = window[0] if window else None
        ok = _analysis.min_principle_check(profile, float(r1), r_floor=floor,
                                           annulus=cfg.problem.K.solid)
        add("min-principle", ok, 0.0 if ok else -1.0, f"r1={float(r1):g}")
        tail = profile.values[-max(8, len(profile.values) // 16):]
        tail = tail[tail > 0]
        decay_ok = bool(np.all(np.diff(tail) <= 1e-12 * np.maximum(tail[:-1], tail[1:])))
        add("tail-decay", decay_ok, float(-np.max(np.diff(tail))) if len(tail) > 1 else 0.0,
            "largest radii")

    write_csv_atomic(out / "verify.csv",
                     ["property", "pass", "worst_margin", "location"], rows)
    write_manifest(out / "manifest.json", {
        "command": "verify",
        "version": __version__,
        "config": cfg.echo,
        "timings": {"verify": time.perf_counter() - t0},
        "headline": {"all_pass": all_pass, "target": target},
        "outputs": outputs,
    })
    for row in rows:
        print(f"{row[0]}: {row[1]} (margin {row[2]})")
    return 0 if all_pass else 2


def _build_reference_bound(cfg: SimpleNamespace):
    """Glued single-point bound reused by superposition verification."""
    phi = cfg.problem.phi
    f = cfg.problem.f
    N = cfg.problem.N
    single = _problem.ProblemSpec(N=N, phi=phi, f=f, K=_problem.Origin())
    p = f.power_exponent()
    if p is None:
        raise UnsupportedCombinationError(
            "superposition verification requires a power nonlinearity")
    kw = _analysis.kelvin_weight(phi, N, p)
    if kw.exact is None:
        raise ConfigError("superposition verification requires a power-type weight")
    outer = _funcs.supersolution_profile(phi, f, N, inner_lower=1.0, r_min=1.0, nodes=800)
    wprof = _funcs.supersolution_profile(kw.exact, f, N, inner_lower=1.0, r_min=1.0, nodes=800)
    inner = _analysis.kelvin_transform(wprof, N)
    return _construct.glue_supersolution(inner, outer, single)


def cmd_certify_divergence(cfg: SimpleNamespace, out: Path) -> int:
    t0 = time.perf_counter()
    regime, r0 = cfg.certify.regime, cfg.certify.r0
    phi = cfg.problem.phi
    rows: list[list[str]] = []
    if regime == "boundary":
        levels = cfg.certify.levels
        if math.ldexp(r0, -levels) < sys.float_info.min:
            raise ConfigError(f"certify.r0 = {r0:g} with certify.levels = {levels}: "
                              "r0 2^-levels is below the smallest normal double")
        cert = _quad.divergence_certificate_boundary(phi, r0, levels)
        verdict = "divergent" if cert.divergent else "convergent"
        for k, (rk, val) in enumerate(zip(cert.radii, cert.values)):
            rows.append([str(k), _fmt(rk), _fmt(val)])
        headline = {"verdict": verdict,
                    "limit": cert.limit if cert.limit is not None else ""}
    else:
        monotone_ok = _quad.phi_tail_monotone(phi, r0) if regime == "tail" else True
        if regime == "tail":
            rep = _quad.integrate_tail(lambda s: s * phi(s), r0, criterion="first-moment-tail")
        else:
            rep = _quad.integrate_singular(lambda s: s * phi(s), r0,
                                           criterion="first-moment-near0")
        if not monotone_ok:
            verdict = "inconclusive"
        elif rep.status == _quad.INFINITE:
            verdict = "divergent"
        elif rep.status == _quad.FINITE:
            verdict = "convergent"
        else:
            verdict = "inconclusive"
        cert_vals = rep.certificate or ()
        for k, val in enumerate(cert_vals):
            rows.append([str(k), "", _fmt(val)])
        headline = {"verdict": verdict,
                    "value": rep.value if rep.value is not None else ""}
    write_csv_atomic(out / "certificate.csv", ["k", "radius", "value"], rows)
    write_manifest(out / "manifest.json", {
        "command": "certify-divergence",
        "version": __version__,
        "config": cfg.echo,
        "timings": {"certify": time.perf_counter() - t0},
        "headline": headline,
        "outputs": ["certificate.csv"],
    })
    print(f"verdict: {headline['verdict']}")
    if headline.get("value"):
        print(f"value: {headline['value']}")
    return 0 if headline["verdict"] != "inconclusive" else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Numerical lab for singular elliptic inequalities outside compact sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("classify", "solve", "verify", "certify-divergence"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="path to the JSON run config")
        sp.add_argument("--out", default=None, help="output directory (default: config output_dir)")
        if name == "solve":
            sp.add_argument("--which", default=None, choices=SOLVE_TARGETS)
            sp.add_argument("--svg", action="store_true", help="also write an SVG plot")
        if name == "verify":
            sp.add_argument("--target", default=None,
                            help="profile CSV path or construction id")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "classify":
            return cmd_classify(cfg, out)
        if args.command == "solve":
            return cmd_solve(cfg, out, args.svg, which=args.which)
        if args.command == "verify":
            return cmd_verify(cfg, out, target=args.target)
        if args.command == "certify-divergence":
            return cmd_certify_divergence(cfg, out)
    except (ConfigError, UnsupportedCombinationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except LabError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
