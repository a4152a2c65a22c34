"""End-to-end command-line runs: exit codes, CSV contracts, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from elliptic_lab.cli import main


def write_config(path, **overrides):
    cfg = {
        "problem": {
            "N": 3,
            "phi": {"kind": "power_split", "alpha": -3, "beta": -3},
            "f": {"kind": "power", "p": 1},
            "K": {"kind": "origin"},
        },
        "solve": {"nodes": 1024, "n_max": 32, "which": "minimal"},
        "output_dir": str(path.parent / "out"),
        "seed": 42,
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and key in cfg and isinstance(cfg[key], dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path.write_text(json.dumps(cfg))
    return cfg


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_exists(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    rc = main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "exists" in out
    header, rows = read_csv(tmp_path / "o" / "conditions.csv")
    assert header == ["criterion", "status", "value", "method", "evaluations"]
    assert len(rows) >= 2


def test_classify_nonexistent_tail(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"N": 3,
                               "phi": {"kind": "power_split", "alpha": -3, "beta": -2},
                               "f": {"kind": "power", "p": 1},
                               "K": {"kind": "origin"}})
    rc = main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "does-not-exist" in capsys.readouterr().out


def test_classify_inconclusive_tabulated_boundaryish(tmp_path):
    # a tabulated weight has no exact exponent family; a tail exponent inside
    # the scan's saturation band cannot be classified either way
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={
        "N": 3,
        "phi": {"kind": "tabulated", "knots": [0.5, 2.0], "values": [1.0, 0.25],
                "near0_exponent": -1.0, "tail_exponent": -2.002},
        "f": {"kind": "power", "p": 1},
        "K": {"kind": "origin"},
    })
    rc = main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("mutation,message", [
    ({"bogus": 1}, "unknown keys"),
    ({"problem": {"N": 3, "phi": {"kind": "nope"},
                  "f": {"kind": "power", "p": 1}, "K": {"kind": "origin"}}}, "weight kind"),
    ({"problem": {"phi": {"kind": "power"}}}, "missing key 'alpha'"),
    ({"problem": {"phi": {"kind": "power", "alpha": "x"}}}, "bad value"),
    ({"solve": []}, "solve must be an object"),
    ({"solve": {"nodes": 8}}, "solve.nodes must be an integer >= 32"),
    ({"verify": {"r1": "x"}}, "bad value"),
    ({"problem": {"N": 3.7}}, "problem.N must be an integer"),
    ({"seed": 1.9}, "seed must be an integer"),
    ({"solve": {"n_max": -4}}, "solve.n_max must be an integer >= 4"),
    ({"problem": {"phi": {"kind": "power", "alpha": 1e400}}}, "problem.phi.alpha must be a finite number"),
    ({"problem": {"phi": {"kind": "power", "alpha": "nan"}}}, "problem.phi.alpha must be a finite number"),
    ({"certify": {"regime": "tail", "r0": -1}}, "certify.r0 must be > 0"),
    ({"certify": {"regime": "boundary", "r0": 0}}, "certify.r0 must be > 0"),
    ({"solve": {"which": "family", "a": -1}}, "solve.a must be >= 0"),
    ({"solve": {"b": -0.5}}, "solve.b must be >= 0"),
    ({"solve": {"delta_min": 0}}, "solve.delta_min must be > 0"),
    ({"solve": {"t_min": 0}}, "solve.t_min must be > 0"),
    ({"solve": {"t_min": 0.25}}, "solve.t_min must be < 0.25"),
    ({"verify": {"h": -0.01}}, "verify.h must be > 0"),
    ({"verify": {"r1": -3}}, "verify.r1 must be > 0"),
    ({"verify": {"mode": "bogus"}}, "verify.mode must be one of equality, inequality"),
    ({"solve": {"which": "bogus"}}, "solve.which must be one of h, minimal, family, exterior-ball"),
    ({"certify": {"regime": "bogus"}}, "certify.regime must be one of tail, near0, boundary"),
    ({"problem": {"N": 10 ** 400}}, "problem.N: bad value: int too large to convert to float"),
    # the residual audit that solve and verify run needs 32 nodes
    ({"solve": {"nodes": 16}}, "solve.nodes must be an integer >= 32"),
    ({"solve": {"nodes": 31}}, "solve.nodes must be an integer >= 32"),
    # the exterior ball's layer window (2 delta_min, 0.1) must not invert
    ({"solve": {"delta_min": 0.05}}, "solve.delta_min must be < 0.05"),
])
def test_malformed_config(tmp_path, capsys, mutation, message):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **mutation)
    rc = main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert message in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


# A valid config naming every key of every section; the fuzz test below sets
# one of its fields (any path, nested objects included) to an arbitrary value.
FUZZ_BASE = {
    "problem": {
        "N": 3,
        "phi": {"kind": "iter_log", "alpha": -3.5, "betas": [0.6, 0.6]},
        "f": {"kind": "power", "p": 1},
        "K": {"kind": "point_set", "centers": [[0, 0, 0], [4, 0, 0]]},
    },
    "solve": {"tol_sup": 1e-8, "max_outer": 64, "max_picard": 600, "nodes": 2048,
              "which": "minimal", "n_max": 64, "a": 0.0, "b": 0.0, "t_min": 1e-7,
              "delta_min": 1e-6},
    "verify": {"target": "minimal", "mode": "inequality", "tol": 1e-8, "r1": 1.0,
               "samples": 10000, "h": 0.01},
    "certify": {"regime": "tail", "r0": 1.0, "levels": 24},
    "output_dir": "out",
    "seed": 42,
}


def _field_paths(obj, prefix=()):
    for key, val in obj.items():
        yield prefix + (key,)
        if isinstance(val, dict):
            yield from _field_paths(val, prefix + (key,))


def _json_values(integers):
    return st.recursive(
        st.none() | st.booleans() | integers | st.floats()
        | st.sampled_from([1e308, -1e308, 1e400]) | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                     max_size=3),
        max_leaves=6,
    )


JSON_VALUES = _json_values(st.integers())
# solve and verify allocate arrays of nodes, n_max and samples entries, so their
# fuzz keeps integers at most 4096
SMALL_JSON_VALUES = _json_values(st.integers(max_value=4096))
# FUZZ_BASE around the origin with a small ladder: solve and verify run it
SOLVE_BASE = {**FUZZ_BASE,
              "problem": {**FUZZ_BASE["problem"], "K": {"kind": "origin"}},
              "solve": {**FUZZ_BASE["solve"], "nodes": 128, "n_max": 64}}
FUZZ_CASES = {"classify": (FUZZ_BASE, JSON_VALUES),
              "certify-divergence": (FUZZ_BASE, JSON_VALUES),
              "solve": (SOLVE_BASE, SMALL_JSON_VALUES),
              "verify": (SOLVE_BASE, SMALL_JSON_VALUES)}


@pytest.mark.parametrize("command", list(FUZZ_CASES))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_config_field_keeps_exit_contract(tmp_path, capsys, command, data):
    base, values = FUZZ_CASES[command]
    path = data.draw(st.sampled_from(sorted(_field_paths(base))), label="path")
    value = data.draw(values, label="value")
    cfg = json.loads(json.dumps(base))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    rc = main([command, "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc in (0, 1, 2, 3)
    if rc == 1:
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command, key, value, maximum", [
    ("solve", "solve.nodes", 2 ** 20 + 1, 2 ** 20),
    ("solve", "solve.nodes", 10 ** 12, 2 ** 20),
    ("solve", "solve.n_max", 2 ** 16 + 1, 2 ** 16),
    ("verify", "verify.samples", 10 ** 6 + 1, 10 ** 6),
])
def test_oversized_config_integer_is_a_config_error(tmp_path, capsys, command, key, value,
                                                    maximum):
    """Sizes that would allocate the arrays are refused before any solve."""
    section, field = key.split(".")
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **{section: {field: value}})
    rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.strip() == f"config error: {key} must be an integer <= {maximum}"


def test_config_not_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    rc = main(["classify", "--config", str(cfg)])
    assert rc == 1
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("make,message", [
    (lambda path: None, "No such file or directory"),
    (lambda path: path.mkdir(), "Is a directory"),
    (lambda path: path.write_bytes(b"\xff\xfe{}"), "is not UTF-8 text"),
], ids=["missing", "directory", "not-utf8"])
def test_config_unreadable(tmp_path, capsys, make, message):
    cfg = tmp_path / "cfg.json"
    make(cfg)
    rc = main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert message in err and len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_gauge_profile(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"N": 3, "phi": {"kind": "power", "alpha": 0},
                               "f": {"kind": "constant", "value": 1.0},
                               "K": {"kind": "ball", "radius": 1.0}},
                 solve={"which": "h", "nodes": 1024})
    out = tmp_path / "o"
    rc = main(["solve", "--config", str(cfg), "--out", str(out), "--svg"])
    assert rc == 0
    data = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    mid = np.interp(0.5, data[:, 0], data[:, 1])
    assert mid == pytest.approx(0.125, abs=1e-9)
    assert (out / "profile.svg").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["headline"]["H_mid"] == pytest.approx(0.125, abs=1e-9)


def test_solve_gauge_unreachable_t_min_is_one_line(tmp_path, capsys):
    """A first gauge node above the uniform grid's cannot be graded to."""
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"N": 3, "phi": {"kind": "power", "alpha": 0},
                               "f": {"kind": "constant", "value": 1.0},
                               "K": {"kind": "ball", "radius": 1.0}},
                 solve={"which": "h", "nodes": 64, "t_min": 0.2})
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error: solve.t_min = 0.2 with solve.nodes = 64: ")
    assert "t_min = 0.2 is out of reach of a 65-node grid" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_solve_minimal_headline(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, solve={"which": "minimal", "nodes": 1024, "n_max": 64})
    out = tmp_path / "o"
    rc = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["headline"]["c_fit"] == pytest.approx(2.0, abs=0.02)
    assert manifest["headline"]["q_fit"] == pytest.approx(-0.5, abs=0.01)
    assert (out / "asymptotics.csv").exists()
    assert (out / "residual.csv").exists()


def test_solve_family_headline(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, solve={"which": "family", "nodes": 1024, "n_max": 64,
                             "a": 1.0, "b": 0.5})
    out = tmp_path / "o"
    rc = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # coarse run: extraction within a few percent is enough for the CLI path
    assert manifest["headline"]["a_hat"] == pytest.approx(1.0, abs=0.1)
    assert manifest["headline"]["b_hat"] == pytest.approx(0.5, abs=0.1)
    assert manifest["headline"]["sandwich_lower_margin"] >= -1e-6


def test_solve_exterior_ball(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"N": 3,
                               "phi": {"kind": "power_split", "alpha": -1, "beta": -3},
                               "f": {"kind": "power", "p": 1},
                               "K": {"kind": "ball", "radius": 1.0}},
                 solve={"which": "exterior-ball", "nodes": 1024, "n_max": 8})
    out = tmp_path / "o"
    rc = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    data = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    assert data[0, 0] == 1.0 and data[0, 1] == 0.0
    assert np.all(data[1:-1, 1] > 0)


@pytest.mark.parametrize("solve", [
    {"delta_min": 0.1, "nodes": 256, "n_max": 8},
    {"delta_min": 0.04, "nodes": 16, "n_max": 8},
], ids=["window-above-layer", "sixteen-nodes"])
def test_solve_exterior_ball_empty_increment_window(tmp_path, capsys, solve):
    # R + 10 delta_min lies at or beyond R + 0.5, or no node falls between
    # them, so the ladder's increment window holds no node
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"N": 3,
                               "phi": {"kind": "power_split", "alpha": -1, "beta": -3},
                               "f": {"kind": "power", "p": 1},
                               "K": {"kind": "ball", "radius": 1.0}},
                 solve={"which": "exterior-ball", **solve})
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in captured.err
    if rc == 0:
        assert "converged: False" in captured.out
    else:
        assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("which,n_max,code", [
    ("minimal", 16, 1), ("minimal", 32, 1), ("minimal", 45, 0), ("family", 16, 1),
])
def test_solve_n_max_too_small_for_asymptotics(tmp_path, capsys, which, n_max, code):
    # at 512 nodes the profile's interior spans fewer than three decades for
    # n_max <= 32; the bound moves with nodes, so the config check cannot state it
    cfg = tmp_path / "cfg.json"
    write_config(cfg, solve={"which": which, "nodes": 512, "n_max": n_max})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("config error: solve.n_max") and len(err.splitlines()) == 1
    else:
        assert err == ""


@pytest.mark.parametrize("which", ["minimal", "family"])
def test_solve_n_max_4_exits_on_the_asymptotics_window(tmp_path, capsys, which):
    # the documented minimum: every ladder radius is >= 2, so the construction
    # returns and only its trusted window is too short for the asymptotics
    cfg = tmp_path / "cfg.json"
    write_config(cfg, solve={"which": which, "nodes": 512, "n_max": 4})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: solve.n_max = 4 is too small")
    assert len(err.splitlines()) == 1


def test_solve_manifest_is_strict_json(tmp_path, capsys):
    # the increment window (R + 10 delta_min, R + 0.5) holds no node here, so
    # the window increments are not finite; they are written as null
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"N": 3,
                               "phi": {"kind": "power_split", "alpha": -1, "beta": -3},
                               "f": {"kind": "power", "p": 1},
                               "K": {"kind": "ball", "radius": 1.0}},
                 solve={"which": "exterior-ball", "delta_min": 0.049, "nodes": 32, "n_max": 8})
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    text = (tmp_path / "o" / "manifest.json").read_text()
    manifest = json.loads(text, parse_constant=reject)
    assert manifest["headline"]["window_increments"] == [None, None]


def test_classify_scan_overflow_is_inconclusive(tmp_path, capsys):
    # r**alpha overflows in the near-zero scan before its ratio test settles
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"N": 3, "phi": {"kind": "power", "alpha": -3.417},
                               "f": {"kind": "power", "p": 0.5}, "K": {"kind": "origin"}})
    rc = main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "Traceback" not in captured.err
    header, rows = read_csv(tmp_path / "o" / "conditions.csv")
    assert rows[0][:2] == ["shifted-moment-near0", "inconclusive"]


def test_iter_log_weight_parses(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"N": 3,
                               "phi": {"kind": "iter_log", "alpha": -3.5,
                                       "betas": [0.6, 0.6]},
                               "f": {"kind": "power", "p": 1},
                               "K": {"kind": "origin"}})
    rc = main(["classify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0


def test_solve_refusal_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"N": 3, "phi": {"kind": "power_split",
                                               "alpha": -3, "beta": -2},
                               "f": {"kind": "power", "p": 1},
                               "K": {"kind": "origin"}},
                 solve={"which": "minimal", "nodes": 512, "n_max": 8})
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "solver error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_minimal_all_pass(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, solve={"which": "minimal", "nodes": 1024, "n_max": 32})
    out = tmp_path / "o"
    rc = main(["verify", "--config", str(cfg), "--out", str(out),
               "--target", "minimal"])
    assert rc == 0
    header, rows = read_csv(out / "verify.csv")
    assert header == ["property", "pass", "worst_margin", "location"]
    assert all(row[1] == "pass" for row in rows)


def test_verify_exterior_ball_all_pass(tmp_path):
    # u vanishes on the ball, so the min-principle row takes the annulus form
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"N": 3,
                               "phi": {"kind": "power_split", "alpha": -1, "beta": -3},
                               "f": {"kind": "power", "p": 1},
                               "K": {"kind": "ball", "radius": 1.0}},
                 solve={"which": "exterior-ball", "nodes": 1024, "n_max": 32})
    out = tmp_path / "o"
    assert main(["verify", "--config", str(cfg), "--out", str(out),
                 "--target", "exterior-ball"]) == 0
    _, rows = read_csv(out / "verify.csv")
    assert [row[0] for row in rows] == ["positivity", "residual-equality",
                                        "min-principle", "tail-decay"]
    assert all(row[1] == "pass" for row in rows)


def test_verify_detects_injected_fault(tmp_path):
    # a profile file satisfying the equation, with one node pushed down by
    # 10 percent, must fail the residual row at the offending radius
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"N": 3, "phi": {"kind": "power", "alpha": -3},
                               "f": {"kind": "power", "p": 1},
                               "K": {"kind": "origin"}},
                 verify={"mode": "equality"})
    out = tmp_path / "o"
    r = np.geomspace(1e-2, 1e2, 1024)
    u = 2.0 * r ** -0.5
    good = tmp_path / "good.csv"
    bad = tmp_path / "perturbed.csv"
    bad_idx = 512
    for path, fault in ((good, False), (bad, True)):
        vals = u.copy()
        if fault:
            vals[bad_idx] *= 0.9
        with open(path, "w") as fh:
            fh.write("r,u\n")
            for ri, ui in zip(r, vals):
                fh.write(f"{ri:.16e},{ui:.16e}\n")
    assert main(["verify", "--config", str(cfg), "--out", str(out),
                 "--target", str(good)]) == 0
    rc = main(["verify", "--config", str(cfg), "--out", str(out),
               "--target", str(bad)])
    assert rc == 2
    header, rows = read_csv(out / "verify.csv")
    residual_row = next(row for row in rows if row[0].startswith("residual"))
    assert residual_row[1] == "fail"
    reported = float(residual_row[3].split("=")[1])
    assert reported == pytest.approx(r[bad_idx], rel=0.02)


def test_verify_superposition(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"N": 3,
                               "phi": {"kind": "power_split", "alpha": -3, "beta": -3},
                               "f": {"kind": "power", "p": 1},
                               "K": {"kind": "point_set",
                                     "centers": [[0, 0, 0], [4, 0, 0]]}},
                 verify={"target": "superposition", "samples": 2000})
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0


def test_verify_unreadable_target(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--target", str(tmp_path / "missing.csv")])
    assert rc == 1


def _table(r, u=None):
    """CSV body rows r,u of a target profile (u = 1 unless given)."""
    u = np.ones_like(r) if u is None else u
    return [f"{a:.16e},{b:.16e}" for a, b in zip(r, u)]


RADII = np.geomspace(1e-2, 1e2, 32)
SWAPPED_RADII = RADII.copy()
SWAPPED_RADII[[10, 11]] = SWAPPED_RADII[[11, 10]]


def _with_u(index, value):
    u = np.ones_like(RADII)
    u[index] = value
    return _table(RADII, u)


@pytest.mark.parametrize("rows,message", [
    (_table(np.concatenate(([0.0], np.geomspace(1e-2, 1e2, 31)))), "radii that are not positive"),
    (_table(SWAPPED_RADII), "radii that are not strictly increasing"),
    (_table(RADII)[:7] + [f"{RADII[7]:.16e},one"] + _table(RADII)[8:], "not a table of numbers"),
    (_table(RADII)[:7] + [f"{RADII[7]:.16e},1.0,2.0"] + _table(RADII)[8:],
     "not a table of numbers"),
    (_with_u(7, np.inf), "values that are not finite"),
    (_with_u(7, np.nan), "values that are not finite"),
], ids=["zero-radius", "swapped-radii", "non-numeric-cell", "ragged-row", "inf-value",
        "nan-value"])
def test_verify_target_nonpositive_radius(tmp_path, capsys, recwarn, rows, message):
    cfg = tmp_path / "cfg.json"
    write_config(cfg)
    target = tmp_path / "target.csv"
    target.write_text("r,u\n" + "".join(row + "\n" for row in rows))
    rc = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o"),
               "--target", str(target)])
    err = capsys.readouterr().err
    assert rc == 1
    assert message in err
    assert len(err.strip().splitlines()) == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# ---------------------------------------------------------------------------
# certify-divergence
# ---------------------------------------------------------------------------

def test_certify_tail_divergent(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"N": 3, "phi": {"kind": "power", "alpha": -2},
                               "f": {"kind": "power", "p": 1},
                               "K": {"kind": "origin"}},
                 certify={"regime": "tail", "r0": 1.0})
    rc = main(["certify-divergence", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "divergent" in capsys.readouterr().out
    header, rows = read_csv(tmp_path / "o" / "certificate.csv")
    vals = [float(r[2]) for r in rows]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_certify_tail_convergent_value(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"N": 3, "phi": {"kind": "power", "alpha": -2.5},
                               "f": {"kind": "power", "p": 1},
                               "K": {"kind": "origin"}},
                 certify={"regime": "tail", "r0": 1.0})
    out = tmp_path / "o"
    rc = main(["certify-divergence", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["headline"]["verdict"] == "convergent"
    assert abs(manifest["headline"]["value"] - 2.0) <= 1e-6


def test_certify_boundary_divergent(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"N": 3, "phi": {"kind": "power", "alpha": -2},
                               "f": {"kind": "power", "p": 1},
                               "K": {"kind": "ball", "radius": 1.0}},
                 certify={"regime": "boundary", "r0": 1.0, "levels": 20})
    out = tmp_path / "o"
    rc = main(["certify-divergence", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["headline"]["verdict"] == "divergent"


@pytest.mark.parametrize("levels,code", [(1000, 0), (1001, 1), (1100, 1)])
def test_certify_boundary_levels_bounded(tmp_path, capsys, levels, code):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"N": 3, "phi": {"kind": "power", "alpha": -1},
                               "f": {"kind": "power", "p": 1},
                               "K": {"kind": "ball", "radius": 1.0}},
                 certify={"regime": "boundary", "r0": 1.0, "levels": levels})
    rc = main(["certify-divergence", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == code
    if code == 1:
        assert err.startswith("config error: certify.levels must be an integer <= 1000")
        assert len(err.strip().splitlines()) == 1
    else:
        assert err == ""
        _, rows = read_csv(tmp_path / "o" / "certificate.csv")
        assert len(rows) == levels


@pytest.mark.parametrize("r0,levels,code", [(1e-300, 24, 0), (1e-300, 30, 1), (1e-10, 1000, 1)])
def test_certify_boundary_underflowing_radius_is_a_config_error(tmp_path, capsys, r0, levels,
                                                               code):
    # 1e-300 2^-24 = 5.96e-308 is still a normal double; 2^-30 and 2^-1000 take
    # the deepest radius below the smallest normal double
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"N": 3, "phi": {"kind": "power", "alpha": -1},
                               "f": {"kind": "power", "p": 1},
                               "K": {"kind": "ball", "radius": 1.0}},
                 certify={"regime": "boundary", "r0": r0, "levels": levels})
    rc = main(["certify-divergence", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == code
    if code:
        assert err.startswith("config error: certify.r0") and "certify.levels" in err
        assert len(err.strip().splitlines()) == 1
    else:
        assert err == ""


def test_certify_boundary_near_the_largest_double(tmp_path, capsys):
    # the top sub-panel [r0 15/16, r0] has lo + hi above the largest double;
    # I_0 = int_{r0/2}^{r0} (rho - r0/2) / rho d rho = (r0/2)(1 - ln 2)
    r0 = 1e308
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"N": 3, "phi": {"kind": "power", "alpha": -1},
                               "f": {"kind": "power", "p": 1},
                               "K": {"kind": "ball", "radius": 1.0}},
                 certify={"regime": "boundary", "r0": r0})
    rc = main(["certify-divergence", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(tmp_path / "o" / "certificate.csv")
    assert float(rows[0][2]) == pytest.approx(0.5 * r0 * (1.0 - np.log(2.0)), rel=1e-13)


def test_certify_boundary_power_log_weight_to_the_deepest_level(tmp_path, capsys):
    # r**-2 overflows near 2^-1000, the weight r**-2 log(1+r) does not
    cfg = tmp_path / "cfg.json"
    write_config(cfg, problem={"N": 3, "phi": {"kind": "power_log", "alpha": -2, "beta": 1},
                               "f": {"kind": "power", "p": 1},
                               "K": {"kind": "ball", "radius": 1.0}},
                 certify={"regime": "boundary", "r0": 1.0, "levels": 1000})
    rc = main(["certify-divergence", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert capsys.readouterr().err == ""
    _, rows = read_csv(tmp_path / "o" / "certificate.csv")
    assert len(rows) == 1000


# ---------------------------------------------------------------------------
# manifests and determinism
# ---------------------------------------------------------------------------

POINT_SET = {"N": 3, "phi": {"kind": "power_split", "alpha": -3, "beta": -3},
             "f": {"kind": "power", "p": 1},
             "K": {"kind": "point_set", "centers": [[0, 0, 0], [4, 0, 0]]}}


@pytest.mark.parametrize("argv,overrides", [
    (["classify"], {}),
    (["solve", "--which", "h", "--svg"],
     {"problem": {"N": 3, "phi": {"kind": "power", "alpha": -1},
                  "f": {"kind": "power", "p": 1}, "K": {"kind": "origin"}}}),
    (["solve", "--which", "minimal"], {}),
    (["verify", "--target", "minimal"], {}),
    (["verify", "--target", "superposition"],
     {"problem": POINT_SET, "verify": {"samples": 2000}}),
    (["certify-divergence"], {}),
], ids=["classify", "solve-h", "solve-minimal", "verify-minimal", "verify-superposition",
        "certify"])
def test_manifest_lists_every_output(tmp_path, argv, overrides):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, **overrides)
    out = tmp_path / "o"
    main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]])
    manifest = json.loads((out / "manifest.json").read_text())
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert sorted(manifest["outputs"]) == sorted(written)

def test_outputs_bit_identical_across_runs(tmp_path):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, solve={"which": "h", "nodes": 512},
                 problem={"N": 3, "phi": {"kind": "power", "alpha": -1},
                          "f": {"kind": "power", "p": 1},
                          "K": {"kind": "ball", "radius": 1.0}})
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["solve", "--config", str(cfg), "--out", str(b)]) == 0
    assert (a / "profile.csv").read_bytes() == (b / "profile.csv").read_bytes()
    assert main(["classify", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["classify", "--config", str(cfg), "--out", str(b)]) == 0
    assert (a / "conditions.csv").read_bytes() == (b / "conditions.csv").read_bytes()
