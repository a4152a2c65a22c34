"""Command-line front end: JSON config parsing, subcommand dispatch, CSV/SVG
reports, and reproducible run manifests.

Usage:
    lab classify           --config cfg.json [--out DIR]
    lab solve              --config cfg.json [--which h|minimal|family|exterior-ball] [--out DIR] [--svg]
    lab verify             --config cfg.json [--target ID_OR_PATH] [--out DIR]
    lab certify-divergence --config cfg.json [--out DIR]

Exit codes: 0 success/determinate; 1 malformed config or unreadable input;
2 inconclusive verdict or failed verification; 3 solver error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, LabError
from . import analysis as _analysis
from . import bvp1d as _bvp1d
from . import construct as _construct
from . import funcs as _funcs
from . import problem as _problem
from . import quad as _quad


# ---------------------------------------------------------------------------
# config parsing (strict: unknown keys rejected)
# ---------------------------------------------------------------------------

def _require_keys(obj: dict, allowed: set[str], path: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys at {path}: {sorted(unknown)}")


def _float(value, path: str, above: float | None = None, below: float | None = None,
           minimum: float | None = None) -> float:
    """A number field; inf and nan are rejected (JSON parses the overflow 1e400 as inf).

    Optional bounds: above < x < below and x >= minimum.
    """
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


def _int(value, path: str, minimum: int) -> int:
    """An integer field; bools and non-integral numbers are rejected, not truncated."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer()) or value < minimum):
        raise ConfigError(f"{path} must be an integer >= {minimum}")
    return int(value)


def parse_phi(obj: dict, path: str = "problem.phi"):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{path} must be an object with a 'kind'")
    kind = obj["kind"]
    alpha = f"{path}.alpha"
    if kind == "power":
        _require_keys(obj, {"kind", "alpha"}, path)
        return _funcs.PowerPhi(alpha=_float(obj["alpha"], alpha))
    if kind == "power_split":
        _require_keys(obj, {"kind", "alpha", "beta"}, path)
        return _funcs.PowerSplitPhi(alpha=_float(obj["alpha"], alpha),
                                    beta=_float(obj["beta"], f"{path}.beta"))
    if kind == "power_log":
        _require_keys(obj, {"kind", "alpha", "beta"}, path)
        return _funcs.PowerLogPhi(alpha=_float(obj["alpha"], alpha),
                                  beta=_float(obj["beta"], f"{path}.beta"))
    if kind == "iter_log":
        _require_keys(obj, {"kind", "alpha", "betas"}, path)
        return _funcs.IterLogPhi(alpha=_float(obj["alpha"], alpha),
                                 betas=tuple(_float(b, f"{path}.betas") for b in obj["betas"]))
    if kind == "tabulated":
        _require_keys(obj, {"kind", "knots", "values", "near0_exponent", "tail_exponent"}, path)
        return _funcs.TabulatedPhi(
            knots=np.asarray([_float(x, f"{path}.knots") for x in obj["knots"]]),
            values=np.asarray([_float(x, f"{path}.values") for x in obj["values"]]),
            near0_exp=_float(obj["near0_exponent"], f"{path}.near0_exponent"),
            tail_exp=_float(obj["tail_exponent"], f"{path}.tail_exponent"),
        )
    raise ConfigError(f"{path}.kind: unknown weight kind {kind!r}")


def parse_f(obj: dict, path: str = "problem.f"):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{path} must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "power":
        _require_keys(obj, {"kind", "p"}, path)
        return _funcs.PowerF(p=_float(obj["p"], f"{path}.p"))
    if kind == "constant":
        _require_keys(obj, {"kind", "value"}, path)
        c = _float(obj["value"], f"{path}.value")
        if c <= 0:
            raise ConfigError(f"{path}.value must be positive")
        return _funcs.GeneralDecreasingF(lambda t, c=c: np.full_like(np.asarray(t, dtype=float), c),
                                         name=f"constant({c})")
    raise ConfigError(f"{path}.kind: unknown nonlinearity kind {kind!r}")


def parse_K(obj: dict, path: str = "problem.K"):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{path} must be an object with a 'kind'")
    kind = obj["kind"]
    if kind == "origin":
        _require_keys(obj, {"kind"}, path)
        return _problem.Origin()
    if kind == "ball":
        _require_keys(obj, {"kind", "radius"}, path)
        return _problem.Ball(radius=_float(obj["radius"], f"{path}.radius"))
    if kind == "point_set":
        _require_keys(obj, {"kind", "centers"}, path)
        return _problem.PointSet(centers=tuple(tuple(_float(x, f"{path}.centers") for x in pt)
                                               for pt in obj["centers"]))
    raise ConfigError(f"{path}.kind: unknown compact-set kind {kind!r}")


_SOLVE_KEYS = {"tol_sup", "max_outer", "max_picard", "nodes", "which", "n_max",
               "a", "b", "t_min", "delta_min"}
_VERIFY_KEYS = {"target", "mode", "tol", "r1", "samples", "h"}
_CERTIFY_KEYS = {"regime", "r0", "levels"}


def _section(raw: dict, name: str, allowed: set[str]) -> dict:
    obj = raw.get(name, {})
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be an object")
    _require_keys(obj, allowed, name)
    return obj


class RunConfig:
    """Validated run configuration; unknown keys are rejected everywhere."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        _require_keys(raw, {"problem", "solve", "verify", "certify",
                            "output_dir", "seed"}, "root")
        if "problem" not in raw:
            raise ConfigError("config requires a 'problem' section")
        prob = _section(raw, "problem", {"N", "phi", "f", "K"})
        for key in ("N", "phi", "f", "K"):
            if key not in prob:
                raise ConfigError(f"problem.{key} is required")
        self.problem = _problem.ProblemSpec(
            N=_int(prob["N"], "problem.N", 2),
            phi=parse_phi(prob["phi"]),
            f=parse_f(prob["f"]),
            K=parse_K(prob["K"]),
        )
        solve = _section(raw, "solve", _SOLVE_KEYS)
        self.solve_config = _bvp1d.SolveConfig(
            tol_sup=_float(solve.get("tol_sup", 1e-8), "solve.tol_sup"),
            max_outer=_int(solve.get("max_outer", 64), "solve.max_outer", 1),
            max_picard=_int(solve.get("max_picard", 600), "solve.max_picard", 1),
        )
        self.nodes = _int(solve.get("nodes", 2048), "solve.nodes", 16)
        self.which = str(solve.get("which", "minimal"))
        self.n_max = _int(solve.get("n_max", 64), "solve.n_max", 4)
        self.a = _float(solve.get("a", 0.0), "solve.a", minimum=0.0)
        self.b = _float(solve.get("b", 0.0), "solve.b", minimum=0.0)
        self.t_min = _float(solve.get("t_min", 1e-7), "solve.t_min", above=0.0, below=0.25)
        self.delta_min = _float(solve.get("delta_min", 1e-6), "solve.delta_min", above=0.0)
        verify = _section(raw, "verify", _VERIFY_KEYS)
        self.verify_target = verify.get("target", "minimal")
        self.verify_mode = str(verify.get("mode", "inequality"))
        self.verify_tol = None if "tol" not in verify else _float(verify["tol"], "verify.tol")
        self.verify_r1 = (None if "r1" not in verify
                          else _float(verify["r1"], "verify.r1", above=0.0))
        self.verify_samples = _int(verify.get("samples", 10_000), "verify.samples", 1)
        self.verify_h = _float(verify.get("h", 0.01), "verify.h", above=0.0)
        certify = _section(raw, "certify", _CERTIFY_KEYS)
        self.certify_regime = str(certify.get("regime", "tail"))
        self.certify_r0 = _float(certify.get("r0", 1.0), "certify.r0", above=0.0)
        self.certify_levels = _int(certify.get("levels", 24), "certify.levels", 3)
        self.output_dir = str(raw.get("output_dir", "out"))
        self.seed = _int(raw.get("seed", 42), "seed", 0)
        self.echo = raw


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    try:
        return RunConfig(raw)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value: {exc}") from exc


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.16e}"


def write_csv_atomic(path: Path, header: list[str], rows: list[list[str]]) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    os.replace(tmp, path)


def write_manifest(path: Path, payload: dict) -> None:
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


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
    tmp = path.with_suffix(".tmp")
    tmp.write_text("\n".join(svg) + "\n", encoding="utf-8")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_classify(cfg: RunConfig, out: Path) -> int:
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


def _power_fit(profile, window=(0.1, 10.0)) -> tuple[float, float]:
    r = np.geomspace(window[0], window[1], 200)
    u = np.asarray(profile(r))
    A = np.vstack([np.ones_like(r), np.log(r)]).T
    coef, *_ = np.linalg.lstsq(A, np.log(u), rcond=None)
    return float(np.exp(coef[0])), float(coef[1])


def _build_construction(cfg: RunConfig, which: str):
    """Run the minimal, family or exterior-ball construction.

    Returns the result, the profile to audit and the audit window.  The
    exhaustion constructions are audited on their raw last iterate, which is
    stencil-smooth, inside their trusted window.
    """
    if which in ("minimal", "family"):
        result = _construct.minimal_solution(cfg.problem, n_max=cfg.n_max,
                                             config=cfg.solve_config, nodes=cfg.nodes)
        if which == "family":
            result = _construct.family_member(cfg.problem, cfg.a, cfg.b, result,
                                              n_max=cfg.n_max, config=cfg.solve_config,
                                              nodes=cfg.nodes)
        return result, result.raw_last, result.trusted_window
    if which == "exterior-ball":
        result = _construct.exterior_ball_minimal(cfg.problem, n_max=cfg.n_max,
                                                  config=cfg.solve_config, nodes=cfg.nodes,
                                                  delta_min=cfg.delta_min)
        R = cfg.problem.K.radius
        return result, result.profile, (R + 1e-2, R + cfg.n_max / 4.0)
    raise ConfigError(f"unknown solve target {which!r}")


def cmd_solve(cfg: RunConfig, out: Path, svg: bool, which: str | None = None) -> int:
    which = which or cfg.which
    t0 = time.perf_counter()
    timings: dict[str, float] = {}
    headline: dict = {}
    outputs: list[str] = []
    asym = None

    if which == "h":
        profile = _bvp1d.solve_H(cfg.problem.phi, cfg.problem.f, cfg.solve_config,
                                 nodes=cfg.nodes, t_min=cfg.t_min)
        headline["H_mid"] = float(profile(0.5))
        residual = None
    else:
        result, audited, window = _build_construction(cfg, which)
        profile = result.profile
        residual = _analysis.residual_radial(audited, cfg.problem, "equality",
                                             r_window=window)
        if which == "exterior-ball":
            headline["layer_window"] = list(result.layer_window)
        else:
            asym = _analysis.asymptotics(profile, cfg.problem.N, window=window)
        if which == "minimal":
            c_fit, q_fit = _power_fit(profile)
            headline.update({"c_fit": c_fit, "q_fit": q_fit, "n_reached": cfg.n_max})
        if which == "family":
            headline.update({
                "a": cfg.a, "b": cfg.b,
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
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except OSError as exc:
        raise ConfigError(f"unreadable target: {path}") from exc
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] < 16:
        raise ConfigError(f"target {path} is not a profile table")
    if not np.all(data[:, 0] > 0):
        raise ConfigError(f"target {path} has radii that are not positive")
    if not np.all(np.diff(data[:, 0]) > 0):
        raise ConfigError(f"target {path} has radii that are not strictly increasing")
    grid = _bvp1d.RadialGrid(nodes=data[:, 0], dimension=dimension, grading="geometric")
    return _bvp1d.RadialProfile(grid=grid, values=data[:, 1])


def cmd_verify(cfg: RunConfig, out: Path, target: str | None = None) -> int:
    target = target or str(cfg.verify_target)
    t0 = time.perf_counter()
    rows: list[list[str]] = []
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
        rep, table = _analysis.field_sample_table(V, cfg.problem,
                                                  samples=cfg.verify_samples,
                                                  h=cfg.verify_h, seed=cfg.seed)
        add("field-inequality-fraction", rep.fraction_nonnegative >= 0.99,
            rep.fraction_nonnegative - 0.99, "low-discrepancy samples")
        add("field-skipped-bounded", rep.skipped <= cfg.verify_samples // 100,
            float(cfg.verify_samples // 100 - rep.skipped), "sample filter")
        coord_names = [f"x{j + 1}" for j in range(cfg.problem.N)]
        write_csv_atomic(out / "samples.csv", coord_names + ["V", "residual"],
                         [[_fmt(x) for x in row] for row in table])
        rr = np.geomspace(U.inner.r_min * 2.0, U.outer.r_max / 2.0, 512)
        write_csv_atomic(out / "bound_profile.csv", ["r", "U"],
                         [[_fmt(a), _fmt(b)] for a, b in zip(rr, U(rr))])
    else:
        if target in ("minimal", "family", "exterior-ball"):
            _, profile, window = _build_construction(cfg, target)
            mode = "equality"
        else:
            profile = _load_profile_csv(Path(target), cfg.problem.N)
            window = None
            mode = cfg.verify_mode
        interior = profile.values[1:-1]
        add("positivity", bool(np.all(interior > 0)),
            float(np.min(interior)), "interior nodes")
        tol = cfg.verify_tol
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
        r1 = cfg.verify_r1
        if r1 is None:
            lo = window[0] if window else profile.r_min
            hi = window[1] if window else profile.r_max
            r1 = float(np.sqrt(lo * min(hi, profile.r_max)))
        floor = window[0] if window else None
        ok = _analysis.min_principle_check(profile, float(r1), r_floor=floor)
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
        "outputs": ["verify.csv"],
    })
    for row in rows:
        print(f"{row[0]}: {row[1]} (margin {row[2]})")
    return 0 if all_pass else 2


def _build_reference_bound(cfg: RunConfig):
    """Glued single-point bound reused by superposition verification."""
    phi = cfg.problem.phi
    f = cfg.problem.f
    N = cfg.problem.N
    single = _problem.ProblemSpec(N=N, phi=phi, f=f, K=_problem.Origin())
    kw = _analysis.kelvin_weight(phi, N, f.power_exponent() or 1.0)
    if kw.exact is None:
        raise ConfigError("superposition verification requires a power-type weight")
    outer = _funcs.supersolution_profile(phi, f, N, inner_lower=1.0, r_min=1.0, nodes=800)
    wprof = _funcs.supersolution_profile(kw.exact, f, N, inner_lower=1.0, r_min=1.0, nodes=800)
    inner = _analysis.kelvin_transform(wprof, N)
    return _construct.glue_supersolution(inner, outer, single)


def cmd_certify_divergence(cfg: RunConfig, out: Path) -> int:
    t0 = time.perf_counter()
    regime = cfg.certify_regime
    phi = cfg.problem.phi
    rows: list[list[str]] = []
    if regime == "boundary":
        cert = _quad.divergence_certificate_boundary(cfg.problem.phi, cfg.certify_r0,
                                                     cfg.certify_levels)
        verdict = "divergent" if cert.divergent else "convergent"
        for k, (rk, val) in enumerate(zip(cert.radii, cert.values)):
            rows.append([str(k), _fmt(rk), _fmt(val)])
        headline = {"verdict": verdict,
                    "limit": cert.limit if cert.limit is not None else ""}
    elif regime in ("tail", "near0"):
        monotone_ok = _quad.phi_tail_monotone(cfg.problem.phi, cfg.certify_r0) \
            if regime == "tail" else True
        if regime == "tail":
            rep = _quad.integrate_tail(lambda s: s * phi(s), cfg.certify_r0,
                                       criterion="first-moment-tail")
        else:
            rep = _quad.integrate_singular(lambda s: s * phi(s), 0.0, cfg.certify_r0,
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
    else:
        raise ConfigError(f"unknown certify regime {regime!r}")
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
            sp.add_argument("--which", default=None,
                            choices=["h", "minimal", "family", "exterior-ball"])
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except LabError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
