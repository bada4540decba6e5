"""Config parsing, env overrides, CLI subcommands and report files."""

import csv
import json
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stlab import cli
from stlab.cli import FLOAT_FMT, _write_csv, main
from stlab.config import (
    KEYS,
    ConfigError,
    config_from_pairs,
    env_overrides,
    load_config,
    parse_config_text,
)
from stlab.domain import Domain, build_interval
from stlab.kernel import KernelSet, resolve_samples
from stlab.measure import density_measure, power_distance_density, total_variation
from stlab.operator import solve_truncated_limit
from test_golden import _reject_constant


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_csv(path):
    with open(path) as fh:
        first = fh.readline().strip()
        rows = list(csv.reader(fh))
    return first, rows


def test_parse_config_text_basics():
    pairs = parse_config_text("# comment\n\ndomain.kind = disk\nsolver.tol=1e-8\n")
    assert pairs == [("domain.kind", "disk"), ("solver.tol", "1e-8")]


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="no_such.key"):
        parse_config_text("no_such.key = 1\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("domain.kind disk\n")


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_config_defaults():
    cfg = config_from_pairs([])
    assert cfg["domain.kind"] == "interval"
    assert cfg.params("domain.resolution") == {"n": 64}
    assert cfg["schedule.j"] == 14
    assert cfg["solver.tol"] == 1e-10
    assert cfg["format"] == ("csv", "json")


# the family, grid or method under which a key is accepted
CONTEXT = {
    "domain.nr": [("domain.kind", "disk")],
    "domain.ntheta": [("domain.kind", "disk")],
    "potential.value": [("potential.family", "constant")],
    "potential.alpha": [("potential.family", "power_distance")],
    "potential.scale": [("potential.family", "power_distance")],
    "potential.x0": [("potential.family", "interior_singularity")],
    "measure.density.value": [("measure.density", "uniform")],
    "measure.density.alpha": [("measure.density", "power_distance")],
    "measure.density.scale": [("measure.density", "power_distance")],
    "solver.max_iter": [("solver.method", "cg")],
}


def _valid_text(key):
    """A value inside the key's bound that differs from its default."""
    if key.kind in ("choice", "choices"):
        return key.bound[1]
    if key.kind == "floats":
        return ",".join(["0.5"] * key.bound)
    if key.kind == "text":
        return "stride:2"
    lo, hi = key.bound or (0, np.inf)
    if key.kind == "int":
        return str(hi if np.isfinite(hi) else lo + 5)
    return repr(lo + (min(hi, lo + 1.0) - lo) / 4.0)


def _invalid_texts(key):
    """Values the key's parser must reject: bad syntax, then its bound's edges."""
    texts = ["bogus"]
    if key.kind == "float":
        texts.append("inf")
    if key.kind == "floats":
        texts.append(",".join(["0.5"] * (key.bound - 1)))
    if key.kind in ("int", "float") and key.bound is not None:
        lo, hi = key.bound
        step = 1 if key.kind == "int" else 0
        texts.append(str(lo - (1 if key.closed_lo else step)))
        if np.isfinite(hi):
            texts.append(str(hi + step))
    return texts


def _edge_texts(key):
    """The closed edges of the key's bound, which its parser must accept."""
    if key.kind not in ("int", "float") or key.bound is None:
        return []
    lo, hi = key.bound
    if key.kind == "float":
        return [str(lo)] if key.closed_lo else []
    return [str(lo)] + ([str(hi)] if np.isfinite(hi) else [])


PARSED_KEYS = [k for k in KEYS.values() if k.kind != "text"]


@pytest.mark.parametrize("key", PARSED_KEYS, ids=[k.name for k in PARSED_KEYS])
def test_every_key_rejects_invalid_values(key):
    for text in _invalid_texts(key):
        with pytest.raises(ConfigError, match=re.escape(f"config key {key.name!r}")):
            config_from_pairs(CONTEXT.get(key.name, []) + [(key.name, text)])
    for text in _edge_texts(key):
        cfg = config_from_pairs(CONTEXT.get(key.name, []) + [(key.name, text)])
        assert cfg[key.name] == key.parse(text)


@pytest.mark.parametrize("key", KEYS.values(), ids=list(KEYS))
def test_every_key_env_and_file_agree(key):
    text = _valid_text(key)
    context = CONTEXT.get(key.name, [])
    from_file = config_from_pairs(context + parse_config_text(f"{key.name} = {text}\n"))
    env_name = "STL_" + key.name.replace(".", "_").upper()
    from_env = config_from_pairs(context + env_overrides({env_name: text}))
    assert from_file == from_env
    if key.name == "measure.atom":
        assert from_file.atoms == (key.parse(text),)
    else:
        assert from_file[key.name] == key.parse(text) != key.default


def test_readme_lists_every_key():
    with open(README, encoding="utf-8") as fh:
        readme = fh.read()
    missing = [name for name in KEYS if f"`{name}`" not in readme]
    assert not missing


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="schedule.j"):
        config_from_pairs([("schedule.j", "0")])
    with pytest.raises(ConfigError, match="solver.tol"):
        config_from_pairs([("solver.tol", "-1")])
    with pytest.raises(ConfigError, match="potential.family"):
        config_from_pairs([("potential.family", "bogus")])
    with pytest.raises(ConfigError, match="trace.order"):
        config_from_pairs([("trace.order", "3")])
    with pytest.raises(ConfigError, match="checks"):
        config_from_pairs([("checks", "representation,nonsense")])
    with pytest.raises(ConfigError, match="study.levels"):
        config_from_pairs([("study.levels", "1")])
    with pytest.raises(ConfigError, match="x0"):
        config_from_pairs([("potential.family", "interior_singularity")])
    with pytest.raises(ConfigError, match="domain.nr"):
        config_from_pairs([("domain.kind", "disk"), ("domain.n", "8")])
    with pytest.raises(ConfigError, match="hopf.refinements"):
        config_from_pairs([("hopf.refinements", "-3")])
    with pytest.raises(ConfigError, match="certificate.refinements"):
        config_from_pairs([("certificate.refinements", "0")])


def test_config_atom_dimension_checked():
    cfg = config_from_pairs([
        ("domain.kind", "disk"), ("domain.nr", "8"), ("measure.atom", "0.0,0.0,1.0"),
    ])
    m = cfg.build_measure(cfg.build_domain())
    assert len(m.atoms) == 1
    with pytest.raises(ConfigError, match="measure.atom"):  # 2d atom, 1d domain
        config_from_pairs([("measure.atom", "0.1,0.2,1.0")])


def test_env_overrides():
    env = {"STL_DOMAIN_N": "32", "STL_SOLVER_TOL": "1e-9", "PATH": "/bin"}
    pairs = env_overrides(env)
    assert ("domain.n", "32") in pairs
    assert ("solver.tol", "1e-9") in pairs
    with pytest.raises(ConfigError, match="STL_NOT_A_KEY"):
        env_overrides({"STL_NOT_A_KEY": "1"})


def test_load_config_env_wins(tmp_path):
    path = write(tmp_path, "domain.kind = interval\ndomain.n = 64\n")
    cfg = load_config(path, environ={"STL_DOMAIN_N": "16"})
    assert cfg.params("domain.resolution") == {"n": 16}


def test_sample_indices():
    cfg = config_from_pairs([("samples", "stride:8")])
    d = cfg.build_domain()
    idx = cfg.sample_indices(d)
    np.testing.assert_array_equal(idx, [0])  # interval has 2 boundary nodes
    cfg2 = config_from_pairs([("samples", "0,1")])
    np.testing.assert_array_equal(cfg2.sample_indices(d), [0, 1])
    with pytest.raises(ConfigError, match="samples"):
        config_from_pairs([("samples", "0,7")]).sample_indices(d)


def test_cli_solve_writes_reports(tmp_path):
    cfg = write(tmp_path, "domain.kind = interval\ndomain.n = 32\nmeasure.atom = 0.5,1.0\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "solution.csv")
    assert header == "schema=1"
    assert rows[0] == ["node", "x", "distance", "volume", "value"]
    assert len(rows) == 1 + 31
    header, trows = read_csv(out / "trace.csv")
    assert header == "schema=1"
    assert trows[0] == ["boundary", "coord", "value", "surface_weight"]
    # endpoint flux of the centered atom is 1/2
    assert float(trows[1][2]) == pytest.approx(0.5, abs=1e-10)
    report = json.loads((out / "solve.json").read_text())
    assert report["config"]["domain.kind"] == "interval"
    assert report["flux_residual"] <= 1e-8
    assert report["schedule"]["converged"] is True


def test_cli_solve_power_distance_density(tmp_path):
    cfg = write(tmp_path, "domain.kind = interval\ndomain.n = 32\nmeasure.density = power_distance\n"
                          "measure.density.alpha = 0.5\npotential.family = power_distance\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "solve.json").read_text())
    density = density_measure(power_distance_density(0.5))
    assert report["total_variation"] == total_variation(density, build_interval(32))
    assert report["flux_residual"] <= 1e-8
    assert report["schedule"]["converged"] is True


def test_cli_kernel_reports(tmp_path):
    cfg = write(tmp_path, "domain.kind = interval\ndomain.n = 16\npotential.family = constant\npotential.value = 2.0\n")
    out = tmp_path / "k"
    assert main(["kernel", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "kernels.csv")
    assert header == "schema=1"
    assert rows[0] == ["boundary", "node", "value"]
    assert len(rows) == 1 + 2 * 15
    summary = json.loads((out / "kernels.json").read_text())
    assert summary["n_samples"] == 2
    assert not summary["kernels"][0]["degenerate"]


def test_cli_verify_empty_checklist_passes(tmp_path):
    cfg = write(tmp_path, "domain.kind = interval\ndomain.n = 16\n")
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["checks"] == []
    assert report["passed"] is True


def test_cli_verify_disk_hopf(tmp_path):
    cfg = write(tmp_path, "\n".join([
        "domain.kind = disk",
        "domain.nr = 8",
        "measure.atom = 0.0,0.0,1.0",
        "checks = hopf",
        "hopf.refinements = 1",
    ]))
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    hopf = next(c for c in report["checks"] if c["check"] == "hopf")
    assert hopf["verdict"] == "positive"
    last = hopf["details"]["grids"][-1]
    assert last["limit_min"] == pytest.approx(1 / (2 * np.pi), abs=1e-6)
    assert (out / "hopf.csv").exists()


def test_cli_verify_failing_check_exits_one(tmp_path):
    cfg = write(tmp_path, "\n".join([
        "domain.kind = interval",
        "domain.n = 32",
        "checks = comparison",
        "comparison.epsilon = 1e6",
    ]))
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is False


def test_cli_verify_writes_non_finite_values_as_null(tmp_path):
    # V = 1e12 crushes the comparison solve to zero, so the located threshold
    # and the domination excess are infinite; the report must stay strict JSON
    cfg = write(tmp_path, "\n".join([
        "domain.kind = interval",
        "domain.n = 32",
        "potential.family = constant",
        "potential.value = 1e12",
        "checks = comparison",
    ]))
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "report.json", encoding="utf-8") as fh:
        report = json.load(fh, parse_constant=_reject_constant)
    comparison = report["checks"][0]
    assert comparison["details"]["threshold"] is None
    assert comparison["cases"][1]["left"] is None


@pytest.mark.parametrize("text,key", [
    ("potential.family = bogus\n", "potential.family"),
    # "auto" factors at every grid size, so there is no "direct" method
    ("solver.method = direct\n", "solver.method"),
], ids=["family", "method-direct"])
def test_cli_unknown_choice_exits_two(tmp_path, capsys, text, key):
    cfg = write(tmp_path, text)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert repr(key) in capsys.readouterr().err


def test_cli_unknown_key_exits_two(tmp_path, capsys):
    cfg = write(tmp_path, "nope = 1\n")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "nope" in capsys.readouterr().err


@pytest.mark.parametrize("command,checks", [
    ("solve", None),
    ("verify", "representation"),
    ("verify", "inequalities"),
    ("verify", "hopf"),
    ("verify", "energy"),
])
def test_cli_infinite_measure_exits_two(tmp_path, capsys, command, checks):
    # the paper's data is a finite measure: every reader of a non-integrable
    # density exits 2 with one message naming the key that makes it so
    text = ("domain.kind = interval\ndomain.n = 32\nmeasure.density = power_distance\n"
            "measure.density.alpha = 1.5\n")
    if checks is not None:
        text += f"checks = {checks}\n"
    assert main([command, "--config", write(tmp_path, text), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "'measure.density.alpha'" in err
    assert "finite measure" in err


def test_cli_study_requires_single_check(tmp_path, capsys):
    cfg = write(tmp_path, "domain.kind = interval\ndomain.n = 16\nchecks = representation,energy\nmeasure.atom = 0.5,1.0\n")
    assert main(["study", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    assert "exactly one" in capsys.readouterr().err


def test_cli_study_reports_refinement_table(tmp_path):
    cfg = write(tmp_path, "\n".join([
        "domain.kind = interval",
        "domain.n = 32",
        "checks = representation",
        "measure.atom = 0.5,1.0",
    ]))
    out = tmp_path / "s"
    assert main(["study", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "study.csv")
    assert header == "schema=1"
    assert rows[0] == ["h", "k", "residual"]
    hs = [float(r[0]) for r in rows[1:]]
    assert hs == sorted(hs, reverse=True)  # rows ordered by decreasing h
    assert len(hs) == 3
    report = json.loads((out / "study.json").read_text())
    assert report["check"] == "representation"
    # both sides are evaluated through the same operator, so the identity
    # sits at the solver floor and the observed order has no finite value: null
    assert report["at_solver_floor"] is True
    assert report["observed_order"] is None


def test_cli_study_builds_each_grid_after_the_previous_check(tmp_path, monkeypatch):
    # the study holds one refinement at a time: no grid is built ahead of its turn
    events = []
    real_refine, real_check = Domain.refine, cli._run_check
    monkeypatch.setattr(Domain, "refine", lambda self: events.append("build") or real_refine(self))
    monkeypatch.setattr(cli, "_run_check",
                        lambda name, cfg, d: events.append("check") or real_check(name, cfg, d))
    cfg = write(tmp_path, "domain.kind = interval\ndomain.n = 16\nchecks = representation\n"
                          "measure.atom = 0.5,1.0\n")
    assert main(["study", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    assert events == ["check", "build", "check", "build", "check"]


def test_cli_csv_floats_round_trip(tmp_path):
    cfg = write(tmp_path, "domain.kind = interval\ndomain.n = 16\nmeasure.atom = 0.375,1.0\n")
    out = tmp_path / "rt"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "solution.csv")
    run = load_config(cfg)
    domain = run.build_domain()
    u, _ = solve_truncated_limit(domain, run.build_potential(), run.build_measure(domain),
                                 run.build_solver())
    cells = [r[rows[0].index("value")] for r in rows[1:]]
    assert len(cells) == u.values.size
    # %.17g gives back every double exactly
    assert all(float(cell) == v for cell, v in zip(cells, u.values.tolist()))


_SPECIAL_FLOATS = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308,
                   1e300, -1e300, 1e-300, -1e-300, 0.1, 1.0 / 3.0)
_COLUMN_CELLS = {
    "float": st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()),
    "int": st.one_of(st.sampled_from((0, -1, 1, -2**63, 2**63 - 1)),
                     st.integers(min_value=-2**63, max_value=2**63 - 1)),
    "bool": st.booleans(),
    "name": st.one_of(st.sampled_from(("boundary_node_3", "trace_nonnegative_h_0.03125",
                                       "100%_%d_%s_%%")),
                      st.text(alphabet="abcxyz_019.-%", min_size=1, max_size=12)),
}
_COLUMN_DTYPES = {"float": np.float64, "int": np.int64, "bool": np.bool_, "name": np.str_}


def _reference_csv(header, blocks) -> bytes:
    """What _write_csv must print, formatted one cell at a time."""
    def cell(x):
        if isinstance(x, (bool, int, np.bool_, np.integer)):
            return str(int(x))
        if isinstance(x, float):
            return FLOAT_FMT % x
        return str(x)

    lines = ["schema=1", ",".join(header)]
    for block in blocks:
        lines += [",".join(cell(x) for x in row) for row in zip(*block)]
    return ("\n".join(lines) + "\n").encode()


@settings(max_examples=200)
@given(st.data())
def test_write_csv_matches_cell_by_cell_reference(tmp_path_factory, data):
    kinds = data.draw(st.lists(st.sampled_from(sorted(_COLUMN_CELLS)), min_size=1, max_size=5))
    sizes = data.draw(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=3))
    sizes.insert(data.draw(st.integers(min_value=0, max_value=len(sizes))), 0)
    blocks = []
    for n in sizes:
        block = []
        for kind in kinds:
            values = data.draw(st.lists(_COLUMN_CELLS[kind], min_size=n, max_size=n))
            # callers pass numpy columns and plain lists alike
            as_array = data.draw(st.booleans())
            block.append(np.array(values, dtype=_COLUMN_DTYPES[kind]) if as_array else values)
        blocks.append(tuple(block))
    header = [f"{kind}{j}" for j, kind in enumerate(kinds)]
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    _write_csv(str(path), header, blocks)
    assert path.read_bytes() == _reference_csv(header, blocks)


_KERNEL_SAMPLES = ("all", "stride:4", "5,0,17", "9")


@settings(max_examples=60, deadline=None)
@given(samples=st.sampled_from(_KERNEL_SAMPLES),
       pool=st.lists(_COLUMN_CELLS["float"], min_size=1, max_size=8),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@example(samples="all", pool=[-0.0, 5e-324, 1e300, np.nan, 1.0 / 3.0], seed=0)
@example(samples="stride:4", pool=[-0.0, 5e-324, 1e300, np.nan, 1.0 / 3.0], seed=1)
@example(samples="5,0,17", pool=[-0.0, 5e-324, 1e300, np.nan, 1.0 / 3.0], seed=2)
@example(samples="9", pool=[-0.0, 5e-324, 1e300, np.nan, 1.0 / 3.0], seed=3)
def test_cli_kernel_csv_matches_cell_by_cell_reference(tmp_path_factory, samples, pool, seed):
    # stlab kernel formats kernels.csv from its own row template, not through
    # _write_csv; it must print what the cell-by-cell reference prints for
    # one (boundary, node, value) block per sampled node, in sample order.
    # The kernel values are drawn, not solved
    tmp = tmp_path_factory.mktemp("kernel")
    cfg = write(tmp, "domain.kind = disk\ndomain.nr = 4\ndomain.ntheta = 20\n"
                     f"samples = {samples}\nformat = csv\n")
    drawn = []

    def fake_kernel_set(domain, potential, idx, solver, order):
        idx = resolve_samples(domain, idx)
        kernels = np.random.default_rng(seed).choice(np.array(pool), (domain.n_interior, idx.size))
        drawn.append((domain.n_interior, idx, kernels))
        return KernelSet(domain, idx, kernels, potential.label, None)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "kernel_set", fake_kernel_set)
        assert main(["kernel", "--config", cfg, "--out", str(tmp / "out")]) == 0
    [(n, idx, kernels)] = drawn
    assert idx.tolist() == {"all": list(range(20)), "stride:4": [0, 4, 8, 12, 16],
                            "5,0,17": [5, 0, 17], "9": [9]}[samples]
    blocks = [(np.full(n, a), np.arange(n), kernels[:, col]) for col, a in enumerate(idx)]
    expected = _reference_csv(("boundary", "node", "value"), blocks)
    assert (tmp / "out" / "kernels.csv").read_bytes() == expected


def test_write_csv_prints_percent_in_names_literally(tmp_path):
    path = tmp_path / "out.csv"
    _write_csv(str(path), ("case", "residual", "passed"),
               [(["100%_%d_%s_%%"], [-0.0], [True]), ([], [], [])])
    assert path.read_text() == "schema=1\ncase,residual,passed\n100%_%d_%s_%%,-0,1\n"


def test_cli_format_key_csv_only(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path, "domain.kind = interval\ndomain.n = 16\nmeasure.atom = 0.5,1.0\n"
                          "format = csv\n")
    out = tmp_path / "fmt"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "solution.csv").exists()
    assert not (out / "solve.json").exists()
    monkeypatch.setenv("STL_FORMAT", "csv,xml")
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert "'format'" in capsys.readouterr().err


CHECKS = KEYS["checks"].bound
# who reads each key that not every command reads: the commands, and the checks
# that verify and study run
MEASURE_READERS = ("solve", "representation", "inequalities", "hopf", "energy")
READERS = {
    "samples": ("kernel", "representation", "comparison"),
    "study.levels": ("study",),
    "measure.atom": MEASURE_READERS,
    "measure.density": MEASURE_READERS,
    "trace.order": ("solve", "kernel", "representation", "inequalities", "hopf",
                    "hopf_certificate", "comparison"),
    "hopf.refinements": ("hopf",),
    "certificate.refinements": ("hopf_certificate",),
    "comparison.alpha": ("comparison",),
    "comparison.epsilon": ("comparison",),
}
# (command, listed check): solve and kernel list none, verify and study one each
RUNS = [("solve", None), ("kernel", None),
        *[(command, check) for command in ("verify", "study") for check in CHECKS]]
READ_VALUES = {"samples": "0", "study.levels": "2", "measure.atom": "0.5,1.0",
               "measure.density": "uniform", "trace.order": "2", "hopf.refinements": "0",
               "certificate.refinements": "1", "comparison.alpha": "0.25",
               "comparison.epsilon": "0.5"}


def _unread(key):
    return [(command, check) for command, check in RUNS
            if command not in READERS[key] and check not in READERS[key]]


UNREAD = [(key, command, check) for key in READERS for command, check in _unread(key)]


@pytest.mark.parametrize("key,command,check", UNREAD,
                         ids=[f"{k}-{c}" + (f"-{x}" if x else "") for k, c, x in UNREAD])
def test_cli_key_that_no_reader_of_the_run_reads_exits_two(tmp_path, capsys, key, command, check):
    text = f"domain.kind = interval\ndomain.n = 16\n{key} = {READ_VALUES[key]}\n"
    if check is not None:
        text += f"checks = {check}\n"
    cfg = write(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("key", READERS)
def test_every_reader_of_a_key_accepts_it(key):
    for command, check in RUNS:
        if (command, check) in _unread(key):
            continue
        pairs = [(key, READ_VALUES[key])] + ([("checks", check)] if check else [])
        assert config_from_pairs(pairs, command) == config_from_pairs(pairs)


@pytest.mark.parametrize("command,checks,via_env", [
    ("solve", None, False),
    ("solve", None, True),
    *[("verify", check, False) for check in CHECKS],
    ("kernel", None, False),
], ids=["key", "env", *[f"verify-{check}" for check in CHECKS], "kernel"])
def test_cli_cg_iteration_cap_exits_two(tmp_path, capsys, monkeypatch, command, checks, via_env):
    """Every solve of every command goes through the config's solver settings."""
    text = "domain.kind = interval\ndomain.n = 32\nsolver.method = cg\n"
    # energy takes density sources only; the other readers of the measure take the atom
    if checks == "energy":
        text += "measure.density = uniform\n"
    elif command == "solve" or checks in MEASURE_READERS:
        text += "measure.atom = 0.5,1.0\n"
    if checks is not None:
        text += f"checks = {checks}\n"
    if via_env:
        monkeypatch.setenv("STL_SOLVER_MAX_ITER", "1")
    else:
        text += "solver.max_iter = 1\n"
    cfg = write(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "did not converge in 1 iterations" in capsys.readouterr().err
    # without the cap the same run converges
    monkeypatch.delenv("STL_SOLVER_MAX_ITER", raising=False)
    cfg = write(tmp_path, text.replace("solver.max_iter = 1\n", ""))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("text,key", [
    ("potential.family = power_distance\npotential.value = 7\n", "potential.value"),
    ("potential.family = power_distance\npotential.x0 = 0.1,0.2\n", "potential.x0"),
    ("potential.family = constant\npotential.alpha = 1.5\n", "potential.alpha"),
    ("measure.density.alpha = 0.3\n", "measure.density.alpha"),
    ("measure.density = uniform\nmeasure.density.scale = 2\n", "measure.density.scale"),
    ("solver.max_iter = 50\n", "solver.max_iter"),
    ("solver.method = auto\nsolver.max_iter = 50\n", "solver.max_iter"),
], ids=["value-power", "x0-power", "alpha-constant", "density-unset", "scale-uniform",
        "max_iter-unset", "max_iter-auto"])
def test_cli_unused_family_parameter_exits_two(tmp_path, capsys, text, key):
    cfg = write(tmp_path, "domain.kind = interval\ndomain.n = 16\nmeasure.atom = 0.5,1.0\n" + text)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("method", ["", "solver.method = auto\n"], ids=["unset", "auto"])
def test_cli_env_iteration_cap_without_cg_exits_two(tmp_path, capsys, monkeypatch, method):
    cfg = write(tmp_path, "domain.kind = interval\ndomain.n = 16\nmeasure.atom = 0.5,1.0\n" + method)
    monkeypatch.setenv("STL_SOLVER_MAX_ITER", "50")
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    assert "'solver.max_iter'" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("hopf.refinements", "2"),
    ("certificate.refinements", "3"),
    ("comparison.alpha", "0.3"),
    ("comparison.epsilon", "0.1"),
])
def test_cli_key_of_an_unlisted_check_exits_two(tmp_path, capsys, key, value):
    cfg = write(tmp_path, "domain.kind = interval\ndomain.n = 16\nmeasure.atom = 0.5,1.0\n"
                f"checks = representation\n{key} = {value}\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("text,key", [
    ("domain.kind = interval\nmeasure.atom = 0.5,1.0\n"
     "potential.family = interior_singularity\npotential.x0 = 0.3,0.2\n", "potential.x0"),
    ("domain.kind = disk\nmeasure.atom = 0.0,0.0,1.0\n"
     "potential.family = interior_singularity\npotential.x0 = 0.1\n", "potential.x0"),
    ("measure.atom = 0.5,1.0\npotential.family = constant\npotential.value = -1\n",
     "potential.value"),
    ("measure.atom = 0.5,1.0\npotential.family = power_distance\npotential.scale = -1\n",
     "potential.scale"),
], ids=["x0-interval", "x0-disk", "value-negative", "scale-negative"])
def test_cli_invalid_potential_parameter_exits_two(tmp_path, capsys, text, key):
    cfg = write(tmp_path, text + "checks = representation\n")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("text,key", [
    ("checks = hopf\nmeasure.atom = 0.3,1.0\n", "hopf.refinements"),
    ("checks = hopf_certificate\n", "certificate.refinements"),
], ids=["hopf", "hopf_certificate"])
def test_cli_x0_on_a_refined_node_names_the_ladder_keys(tmp_path, capsys, text, key):
    # x0 = 65/128 lies between two nodes of n=64 and on a node of n=128
    base = ("domain.kind = interval\ndomain.n = 64\n"
            "potential.family = interior_singularity\npotential.x0 = 0.5078125\n")
    cfg = write(tmp_path, base + text)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert "'potential.x0'" in err and repr(key) in err
    # without refinements the grid has no node on x0
    if key == "hopf.refinements":
        cfg = write(tmp_path, base + text + "hopf.refinements = 0\n")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0


@pytest.mark.parametrize("command,text", [
    ("solve", "domain.kind = interval\nmeasure.atom = 0.0,1\n"),
    ("verify", "domain.kind = interval\nmeasure.atom = 1.2,1\nchecks = representation\n"),
    ("solve", "domain.kind = disk\nmeasure.atom = 0.8,0.8,1\n"),
    ("study", "domain.kind = rectangle\nmeasure.atom = 0.5,1.0,1\nchecks = representation\n"),
], ids=["interval-endpoint", "interval-outside", "disk", "rectangle-edge"])
def test_cli_atom_outside_the_domain_exits_two(tmp_path, capsys, command, text):
    cfg = write(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "'measure.atom'" in err and "not strictly inside" in err


@pytest.mark.parametrize("text", [
    "schedule.j = 1100\n",
    "schedule.base = 1e200\nschedule.j = 2\n",
], ids=["j", "base"])
def test_cli_overflowing_schedule_exits_two(tmp_path, capsys, text):
    # base**J past the largest float would raise OverflowError from levels()
    cfg = write(tmp_path, "domain.kind = interval\ndomain.n = 16\nmeasure.atom = 0.5,1.0\n"
                + "potential.family = power_distance\npotential.alpha = 1.5\n" + text)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == 2
    assert "'schedule.j'" in capsys.readouterr().err


def test_cli_trace_order_two_reaches_verify_and_kernel(tmp_path, monkeypatch):
    """On the golden disk configs, order 2 changes both sides of the
    representation identity and the kernels; the identity still holds."""
    monkeypatch.setenv("STL_TRACE_ORDER", "2")
    monkeypatch.setenv("STL_CHECKS", "representation")
    out = tmp_path / "v"
    assert main(["verify", "--config", os.path.join(GOLDEN, "verify_disk.cfg"),
                 "--out", str(out)]) == 0
    _, rows = read_csv(out / "representation.csv")
    _, golden = read_csv(os.path.join(GOLDEN, "verify", "representation.csv"))
    assert [r[0] for r in rows] == [r[0] for r in golden]
    assert all(r[5] == "1" for r in rows[1:])
    for col in (1, 2):  # left, right
        assert all(r[col] != g[col] for r, g in zip(rows[1:], golden[1:]))
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["trace.order"] == 2 and report["passed"] is True

    out = tmp_path / "k"
    assert main(["kernel", "--config", os.path.join(GOLDEN, "kernel_disk.cfg"),
                 "--out", str(out)]) == 0
    with open(os.path.join(GOLDEN, "kernel", "kernels.csv"), "rb") as fh:
        assert (out / "kernels.csv").read_bytes() != fh.read()
