import gc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpg_elast import cli, study
from dpg_elast.assembly import build_dof_layout
from dpg_elast.material import make_isotropic
from dpg_elast.mesh import DegreeMap, build_initial_mesh, refine_marked
from dpg_elast.study import (StudyConfig, best_approximation_errors,
                             greedy_mark, hp_decide, l2_errors, make_benchmark,
                             observed_rate, rows_to_csv,
                             run_convergence_study, single_blas_thread)
from oracle import greedy_mark_by_set, hp_decide_by_set

MAT = make_isotropic(1.0, 0.5)


def test_l2_errors_of_zero_solution():
    # with x = 0 the errors equal the exact norms
    bench = make_benchmark("smooth", MAT)
    mesh = build_initial_mesh("unit_square", 4)
    degrees = DegreeMap(mesh, p=2)
    layout = build_dof_layout(mesh, degrees)
    x = np.zeros(layout.n_dofs)
    es, eu, ns, nu = l2_errors(layout, x, bench.exact)
    assert es == pytest.approx(ns, rel=1e-12)
    assert eu == pytest.approx(nu, rel=1e-12)
    # || sin(pi x) sin(pi y) ||_{L2}^2 = 1/4 per component, two components,
    # and the displacement carries the 2 mu scaling (here 2 mu = 1)
    assert nu == pytest.approx(np.sqrt(0.5), rel=1e-6)


def test_best_approximation_below_exact_norm():
    bench = make_benchmark("smooth", MAT)
    mesh = build_initial_mesh("unit_square", 2)
    degrees = DegreeMap(mesh, p=1)
    layout = build_dof_layout(mesh, degrees)
    bs, bu = best_approximation_errors(layout, bench.exact)
    _, _, ns, nu = l2_errors(layout, np.zeros(layout.n_dofs), bench.exact)
    assert 0.0 < bs < ns
    assert 0.0 < bu < nu


def test_greedy_mark():
    assert greedy_mark(np.array([1.0, 0.6, 0.4]), 0.5).tolist() == [0, 1]
    assert greedy_mark(np.array([1.0, 0.6, 0.4]), 1.0).tolist() == [0]
    assert greedy_mark(np.zeros(0), 0.5).tolist() == []
    assert greedy_mark(np.zeros(2), 0.5).tolist() == []


def layout_coords(mesh):
    return build_dof_layout(mesh, DegreeMap(mesh)).coords


def test_hp_decide():
    coords = layout_coords(build_initial_mesh("l_shape", 1))
    marked = np.arange(len(coords))
    h_marked, p_marked = hp_decide(marked, coords, (0.0, 0.0))
    # every initial element touches the reentrant corner
    assert h_marked.tolist() == marked.tolist() and not p_marked.size
    coords2 = layout_coords(build_initial_mesh("l_shape", 2))
    h_marked, p_marked = hp_decide(np.arange(12), coords2, (0.0, 0.0))
    assert len(h_marked) == 3
    assert len(p_marked) == 9
    assert [a.tolist() for a in hp_decide(np.zeros(0, dtype=int), coords2,
                                          (0.0, 0.0))] == [[], []]


@settings(max_examples=60, deadline=None)
@given(fraction=st.sampled_from([0.5, 1.0]) | st.floats(0.01, 1.0),
       data=st.data())
def test_greedy_mark_matches_set_reference(fraction, data):
    # random indicators, empty and all-zero ones among them, with some
    # set to exactly fraction * max
    n = data.draw(st.integers(0, 30))
    values = data.draw(st.lists(st.floats(0.0, 1e3) | st.just(0.0),
                                min_size=n, max_size=n))
    top = max(values, default=0.0)
    if top > 0.0:
        ties = data.draw(st.sets(st.integers(0, n - 1)))
        for i in ties - {values.index(top)}:
            values[i] = fraction * top
    marked = greedy_mark(np.array(values), fraction)
    assert marked.tolist() == sorted(
        greedy_mark_by_set(dict(enumerate(values)), fraction))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_hp_decide_matches_set_reference(data):
    # random marked sets on a refined L-shape mesh, with and without an
    # element at the reentrant corner
    mesh = build_initial_mesh("l_shape", data.draw(st.integers(1, 2)))
    for _ in range(data.draw(st.integers(0, 3))):
        active = mesh.active_elements
        mesh = refine_marked(mesh, data.draw(
            st.sets(st.sampled_from(active), min_size=1, max_size=4)))
    layout = build_dof_layout(mesh, DegreeMap(mesh))
    corner, _ = hp_decide_by_set(set(layout.elements.tolist()), mesh,
                                 (0.0, 0.0))
    positions = data.draw(st.sets(st.integers(0, len(layout.elements) - 1)))
    if data.draw(st.booleans()):
        positions.add(int(np.searchsorted(layout.elements, data.draw(
            st.sampled_from(sorted(corner))))))
    marked = np.array(sorted(positions), dtype=int)
    h_marked, p_marked = hp_decide(marked, layout.coords, (0.0, 0.0))
    h_ref, p_ref = hp_decide_by_set(set(layout.elements[marked].tolist()),
                                    mesh, (0.0, 0.0))
    assert layout.elements[h_marked].tolist() == sorted(h_ref)
    assert layout.elements[p_marked].tolist() == sorted(p_ref)


@pytest.mark.parametrize("kwargs", [
    dict(benchmark="smooth", method=2, mode="uniform_h", p=2, steps=2),
    dict(benchmark="lshape", method=1, mode="adaptive_hp", p=1, steps=4,
         marking_fraction=0.1),
])
def test_data_callables_called_once_per_degree_group_and_step(kwargs,
                                                              monkeypatch):
    # the loads, the L2 errors and the Dirichlet data each evaluate their
    # callable once per degree group (g: once) and step, never per element
    calls = Counter()
    groups = []
    make, build = study.make_benchmark, study.build_dof_layout

    def counted(name, fn):
        def wrapper(pts):
            calls[name] += 1
            return fn(pts)
        return wrapper

    def counting_benchmark(*args):
        bench = make(*args)
        return replace(bench, **{name: counted(name, getattr(bench, name))
                                 for name in ("f", "g", "exact")
                                 if getattr(bench, name) is not None})

    def recording_layout(*args, **kw):
        layout = build(*args, **kw)
        groups.append(len(layout.degree_groups))
        return layout

    monkeypatch.setattr(study, "make_benchmark", counting_benchmark)
    monkeypatch.setattr(study, "build_dof_layout", recording_layout)
    run_convergence_study(StudyConfig(**kwargs))
    assert len(groups) == kwargs["steps"]
    if kwargs["benchmark"] == "smooth":
        assert calls == {"f": sum(groups), "exact": sum(groups)}
    else:
        assert max(groups) > 1
        assert calls == {"g": len(groups), "exact": sum(groups)}


def test_observed_rate():
    xs = [1.0, 0.5, 0.25, 0.125]
    ys = [x ** 3 for x in xs]
    assert observed_rate(xs, ys) == pytest.approx(3.0, abs=1e-12)
    assert observed_rate(xs, ys, last=4) == pytest.approx(3.0, abs=1e-12)


def test_config_validation():
    good = StudyConfig()
    good.validate()
    for bad in [
        StudyConfig(benchmark="square"),
        StudyConfig(method=3),
        StudyConfig(mode="uniform"),
        StudyConfig(steps=0),
        StudyConfig(p=0),
        StudyConfig(delta_p=0),
        StudyConfig(delta_p=1),
        StudyConfig(lam=-1.0),
        StudyConfig(lam=float("nan")),
        StudyConfig(mu=float("inf")),
        StudyConfig(marking_fraction=0.0),
        StudyConfig(method=2, benchmark="lshape"),
        StudyConfig(mode="adaptive_hp", benchmark="smooth"),
    ]:
        with pytest.raises(ValueError):
            bad.validate()
    # with delta_p = 1 the condensed skeleton matrix has a null space
    with pytest.raises(ValueError, match="singular"):
        StudyConfig(delta_p=1).validate()


@pytest.mark.parametrize("name, mode", [("smooth", "uniform_h"),
                                        ("lshape", "adaptive_h")])
def test_study_builds_its_benchmark_once(name, mode, monkeypatch):
    # validate builds the benchmark to check the material, and the study
    # runs on that one: the L-shape's exponent bisection runs once
    builds = []
    make = study.make_benchmark

    def counted(*args):
        builds.append(args)
        return make(*args)

    monkeypatch.setattr(study, "make_benchmark", counted)
    run_convergence_study(StudyConfig(benchmark=name, mode=mode, steps=1,
                                      lam=123.0, mu=79.3))
    assert len(builds) == 1
    # a material the benchmark rejects still fails validation
    with pytest.raises(ValueError):
        run_convergence_study(StudyConfig(benchmark="lshape", lam=0.0))


def test_cli_builds_its_benchmark_once(monkeypatch, capsys):
    # the CLI validates the config, which builds the benchmark, and runs
    # the study on that one: the L-shape's exponent bisection runs once
    builds = []
    make = study.make_benchmark

    def counted(*args):
        builds.append(args)
        return make(*args)

    monkeypatch.setattr(study, "make_benchmark", counted)
    assert cli.main(["run", "--benchmark", "lshape", "--mode", "adaptive_h",
                     "--steps", "1", "--lambda", "123", "--mu", "79.3"]) == 0
    assert len(builds) == 1


def test_cli_step_value_error_is_not_a_config_error(monkeypatch, capsys):
    # only validation reports a configuration error (exit code 3); a
    # ValueError from inside a step propagates
    def broken(*args):
        raise ValueError("inside a step")

    monkeypatch.setattr(study, "_solve_step", broken)
    with pytest.raises(ValueError, match="^inside a step$"):
        cli.main(["run", "--steps", "1"])
    assert "config error" not in capsys.readouterr().err


def test_study_produces_rows():
    config = StudyConfig(benchmark="smooth", method=1, mode="uniform_h",
                         p=1, steps=2, lam=1.0, mu=0.5)
    rows = run_convergence_study(config)
    assert len(rows) == 2
    assert rows[0].n_dofs < rows[1].n_dofs
    assert rows[1].rel_combined < rows[0].rel_combined
    assert rows[1].eta < rows[0].eta
    assert rows[0].p_max == 1
    assert rows[1].h_min == pytest.approx(rows[0].h_min / 2.0)


@pytest.mark.parametrize("mode, steps", [("adaptive_h", 8),
                                         ("adaptive_hp", 6)])
def test_carried_kernels_match_fresh_kernels(mode, steps, monkeypatch):
    # the study carries class kernels across steps; building every step's
    # kernels from an empty cache must give the same results
    config = StudyConfig(benchmark="lshape", mode=mode, p=1, steps=steps,
                         lam=123.0, mu=79.3)
    carried = run_convergence_study(config)
    monkeypatch.setattr(study, "build_dof_layout",
                        lambda mesh, degrees, cache: build_dof_layout(mesh,
                                                                      degrees))
    fresh = run_convergence_study(config)
    assert [r.n_dofs for r in carried] == [r.n_dofs for r in fresh]
    for a, b in zip(carried, fresh):
        for name in ("e_sigma", "e_u", "rel_combined", "eta"):
            assert getattr(a, name) == pytest.approx(getattr(b, name),
                                                     rel=1e-10, abs=0.0)


def test_lshape_adaptive_study_leaves_no_reference_cycles():
    # the bench's lshape-adapt study with the cyclic garbage collector off:
    # everything it drops is freed by its reference count.  A recursive
    # closure in `build_dof_layout` (cached by `lru_cache`) and another in
    # the refinement's closure order left about 1,350 objects per study
    # (783 lists, 430 tuples, 68 cells) for the collector to find
    gc.collect()
    gc.disable()
    try:
        run_convergence_study(StudyConfig(
            benchmark="lshape", method=1, mode="adaptive_h", p=1, delta_p=2,
            steps=8, lam=123.0, mu=79.3))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_csv_roundtrip_and_determinism(tmp_path):
    config = StudyConfig(benchmark="smooth", steps=2, p=1,
                         out=str(tmp_path / "a.csv"))
    rows = run_convergence_study(config)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == ("step,n_dofs,h_min,p_max,e_sigma,e_u,rel_combined,"
                        "eta,wall_time")
    assert len(lines) == 3
    with open(tmp_path / "a.csv") as fh:
        assert fh.read() == text
    # formatting is deterministic for identical rows
    assert rows_to_csv(rows) == text


def write_config(tmp_path, body):
    path = tmp_path / "run.cfg"
    path.write_text(body)
    return str(path)


def test_cli_success(tmp_path, capsys):
    out = tmp_path / "report.csv"
    cfg = write_config(tmp_path, "\n".join([
        "# smoke configuration",
        "benchmark = smooth",
        "method = 1",
        "mode = uniform_h",
        "p = 1",
        "steps = 2",
        "lambda = 1.0",
        "mu = 0.5",
        f"out = {out}",
    ]) + "\n")
    code = cli.main(["run", "--config", cfg])
    assert code == 0
    assert out.exists()
    assert "completed 2 steps" in capsys.readouterr().out


def test_cli_overrides(tmp_path):
    cfg = write_config(tmp_path, "benchmark = smooth\nsteps = 5\n")
    out = tmp_path / "o.csv"
    code = cli.main(["run", "--config", cfg, "--steps", "1",
                     "--p", "1", "--mu", "0.5", "--lambda", "1.0",
                     "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        assert len(fh.read().strip().split("\n")) == 2  # header + one step


def test_cli_config_errors(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "missing.cfg")]) == 3
    bad = write_config(tmp_path, "volume = 3\n")
    assert cli.main(["run", "--config", bad]) == 3
    notpair = write_config(tmp_path, "steps\n")
    assert cli.main(["run", "--config", notpair]) == 3
    badval = write_config(tmp_path, "steps = many\n")
    assert cli.main(["run", "--config", badval]) == 3
    conflict = write_config(tmp_path, "benchmark = lshape\nmethod = 2\n")
    assert cli.main(["run", "--config", conflict]) == 3
    missing_dir = str(tmp_path / "missing" / "x.csv")
    nowhere = write_config(tmp_path, f"steps = 1\nout = {missing_dir}\n")
    assert cli.main(["run", "--config", nowhere]) == 3
    assert cli.main(["run", "--steps", "1", "--out", missing_dir]) == 3
    assert cli.main(["run", "--steps", "1", "--out", str(tmp_path)]) == 3
    # a file name the file system cannot hold fails before any step
    too_long = str(tmp_path / ("a" * 300 + ".csv"))
    capsys.readouterr()
    assert cli.main(["run", "--steps", "2", "--out", too_long]) == 3
    assert capsys.readouterr().err.startswith("config error:")
    assert cli.main(["run", "--volume", "3"]) == 3
    # materials the benchmark cannot take fail before any step: Poisson
    # ratio 0 has no L-shape corner exponent, and the solver material's
    # lambda / (2 mu) overflows
    for argv in (["--benchmark", "lshape", "--lambda", "0"],
                 ["--lambda", "1e300", "--mu", "1e-10"]):
        capsys.readouterr()
        assert cli.main(["run", *argv]) == 3
        assert capsys.readouterr().err.startswith("config error:")


def magnitudes():
    """Positive floats with decimal exponents from -300 to 300."""
    return st.builds(lambda m, e: m * 10.0 ** e,
                     st.floats(1.0, 10.0, exclude_max=True),
                     st.integers(-300, 300))


@settings(max_examples=200, deadline=None)
@given(benchmark=st.sampled_from(["smooth", "lshape"]),
       lam=st.one_of(st.just(0.0), magnitudes()), mu=magnitudes())
def test_validate_admits_only_materials_the_benchmark_takes(benchmark, lam,
                                                            mu):
    # a material that passes validation builds its benchmark; any other
    # is a ValueError, which the CLI reports as a configuration error
    config = StudyConfig(benchmark=benchmark, lam=lam, mu=mu)
    try:
        config.validate()
    except ValueError:
        return
    make_benchmark(benchmark, make_isotropic(lam, mu))


def test_cli_rejects_hp_without_singular_point(tmp_path, capsys):
    cfg = write_config(tmp_path, "benchmark = smooth\nmode = adaptive_hp\n"
                                 "steps = 2\n")
    assert cli.main(["run", "--config", cfg]) == 3
    assert "singular point" in capsys.readouterr().err


def test_cli_no_config_defaults(tmp_path):
    out = tmp_path / "d.csv"
    code = cli.main(["run", "--steps", "1", "--out", str(out)])
    assert code == 0
    assert out.exists()


@pytest.mark.parametrize("flag, value", [("--delta-p", "0"), ("--delta-p", "1"),
                                         ("--lambda", "-1"),
                                         ("--lambda", "nan"), ("--mu", "inf"),
                                         ("--p", "1.5"), ("--method", "3"),
                                         ("--benchmark", "foo"),
                                         ("--mode", "sideways"),
                                         ("--marking-fraction", "0")])
def test_cli_rejects_bad_flag_value(flag, value, capsys):
    assert cli.main(["run", "--steps", "1", flag, value]) == 3
    assert "config error" in capsys.readouterr().err


def blas_counts():
    """The thread count of each loaded OpenBLAS."""
    return [get() for get, _ in study._openblas_thread_controls()]


@pytest.fixture
def two_blas_threads(monkeypatch):
    """Every OpenBLAS on two threads and no thread variable set; the
    counts the test found come back afterwards."""
    if not study._openblas_thread_controls():
        pytest.skip("no OpenBLAS with thread controls is loaded")
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(variable, raising=False)
    before = blas_counts()
    for _, put in study._openblas_thread_controls():
        put(2)
    yield
    for (_, put), count in zip(study._openblas_thread_controls(), before):
        put(count)


def test_single_blas_thread_restores_counts(two_blas_threads, monkeypatch):
    with single_blas_thread():
        assert set(blas_counts()) == {1}
    assert set(blas_counts()) == {2}
    with pytest.raises(KeyError):
        with single_blas_thread():
            assert set(blas_counts()) == {1}
            raise KeyError("inside")
    assert set(blas_counts()) == {2}
    # a study runs on one thread
    seen = []

    def recorded_layout(*args, **kwargs):
        seen.append(blas_counts())
        return build_dof_layout(*args, **kwargs)

    monkeypatch.setattr(study, "build_dof_layout", recorded_layout)
    run_convergence_study(StudyConfig(steps=2))
    assert {n for counts in seen for n in counts} == {1}
    assert set(blas_counts()) == {2}


@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS",
                                      "OMP_NUM_THREADS"])
def test_single_blas_thread_yields_to_the_environment(two_blas_threads,
                                                      monkeypatch, variable):
    monkeypatch.setenv(variable, "2")
    with single_blas_thread():
        assert set(blas_counts()) == {2}
    assert set(blas_counts()) == {2}
