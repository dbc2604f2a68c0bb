"""End-to-end tests of the ppclust command-line runner.

Everything goes through cli.main() with real config files in tmp_path, so
the tests cover argument handling, validation, artifact writing, manifest
round-trips, and determinism exactly as a shell user would see them.
"""

import configparser
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from ppclust import cli, percolation, shotnoise
from ppclust.shotnoise import exponential_response, level_exceedance_bound


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def write_config(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


POISSON_SAMPLE = """
[run]
seed = 11

[window]
sides = 8
dimension = 2
metric = periodic

[generator]
type = poisson
intensity = 1.0
"""


@pytest.fixture()
def sample_config(tmp_path):
    return write_config(tmp_path / "sample.ini", POISSON_SAMPLE)


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.ini", POISSON_SAMPLE + "\n[sample]\nbogus = 1\n"
        )
        assert run_cli("sample", "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "sample" in err

    def test_unknown_generator_key_named(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.ini",
            POISSON_SAMPLE.replace("intensity = 1.0", "intensity = 1.0\nrho = 2"),
        )
        assert run_cli("sample", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "'rho'" in capsys.readouterr().err

    def test_missing_required_key_named(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.ini",
            "[run]\nseed = 1\n[window]\nsides = 4\n[generator]\ntype = poisson\n",
        )
        assert run_cli("sample", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "'intensity'" in capsys.readouterr().err

    def test_syntax_error_reports_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", "[run]\nseed 11\n")
        assert run_cli("sample", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "line" in capsys.readouterr().err.lower()

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli("sample", "--config", tmp_path / "nope.ini") == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_value_names_section_and_key(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.ini", POISSON_SAMPLE.replace("seed = 11", "seed = eleven")
        )
        assert run_cli("sample", "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "[run] seed" in err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", POISSON_SAMPLE + "\n[percolation]\n")
        assert run_cli("sample", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "percolation" in capsys.readouterr().err

    def test_negative_seed_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.ini", POISSON_SAMPLE.replace("seed = 11", "seed = -4")
        )
        assert run_cli("sample", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_seed_beyond_64_bits_rejected(self, tmp_path, capsys, where):
        seed = str(2**64)
        body = POISSON_SAMPLE.replace("seed = 11", f"seed = {seed}")
        flag = ["--seed", seed] if where == "flag" else []
        cfg = write_config(tmp_path / "c.ini", POISSON_SAMPLE if flag else body)
        assert run_cli("sample", "--config", cfg, *flag, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "[run] seed: master_seed must be a 64-bit unsigned integer" in err
        assert not (tmp_path / "o").exists()

    def test_largest_seed_accepted(self, tmp_path, sample_config):
        seed = 2**64 - 1
        out = tmp_path / "o"
        assert run_cli("sample", "--config", sample_config, "--seed", seed, "--out", out) == 0
        assert f"seed={seed}" in (out / "metadata.txt").read_text()

    def test_meta_experiment_mismatch(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.ini", "[meta]\nexperiment = summary\n" + POISSON_SAMPLE
        )
        assert run_cli("sample", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "summary" in capsys.readouterr().err

    def test_override_pairs_must_be_section_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.ini", POISSON_SAMPLE)
        assert run_cli("sample", "--config", cfg, "--badflag", "3") == 2
        assert "--badflag" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "window", ["sides = 1\ndimension = 9", "sides = " + ",".join(["1"] * 9)],
        ids=["dimension", "sides"],
    )
    def test_window_beyond_eight_dimensions_rejected(self, tmp_path, capsys, window):
        body = POISSON_SAMPLE.replace("sides = 8\ndimension = 2", window)
        cfg = write_config(tmp_path / "c.ini", body)
        assert run_cli("sample", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "[window] dimension: a window has at most 8 axes, got 9" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sections_differing_only_in_case_rejected(self, tmp_path, capsys):
        body = "[Run]\nseed = 1\nreplications = 999\n" + POISSON_SAMPLE.replace("11", "2")
        cfg = write_config(tmp_path / "c.ini", body)
        assert run_cli("sample", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "sections [Run] and [run]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "window", ["sides = 1\ndimension = 8", "sides = " + ",".join(["1"] * 8)],
        ids=["dimension", "sides"],
    )
    def test_window_of_eight_dimensions_accepted(self, tmp_path, window):
        body = POISSON_SAMPLE.replace("sides = 8\ndimension = 2", window)
        cfg = write_config(tmp_path / "c.ini", body)
        assert run_cli("sample", "--config", cfg, "--out", tmp_path / "o") == 0
        assert "sides = " + ",".join(["1.0"] * 8) in (tmp_path / "o" / "manifest.ini").read_text()

    def test_one_section_in_any_case_is_read(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", POISSON_SAMPLE.replace("[run]", "[Run]"))
        assert run_cli("sample", "--config", cfg, "--out", tmp_path / "o") == 0
        assert "seed = 11" in (tmp_path / "o" / "manifest.ini").read_text()

    def test_comments_and_inline_comments_ignored(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini",
            "# top comment\n[run]\nseed = 11  # inline\n[window]\nsides = 8\n"
            "[generator]\ntype = poisson\nintensity = 1.0\n",
        )
        assert run_cli("sample", "--config", cfg, "--out", tmp_path / "o") == 0


class TestOverrides:
    def test_seed_flag_overrides_config(self, tmp_path, sample_config):
        assert run_cli(
            "sample", "--config", sample_config, "--seed", 99, "--out", tmp_path / "a"
        ) == 0
        manifest = (tmp_path / "a" / "manifest.ini").read_text()
        assert "seed = 99" in manifest

    def test_dotted_override_changes_value(self, tmp_path, sample_config):
        assert run_cli(
            "sample",
            "--config",
            sample_config,
            "--generator.intensity",
            "2.0",
            "--out",
            tmp_path / "a",
        ) == 0
        manifest = (tmp_path / "a" / "manifest.ini").read_text()
        assert "intensity = 2.0" in manifest

    def test_override_still_validated(self, tmp_path, sample_config, capsys):
        assert run_cli(
            "sample",
            "--config",
            sample_config,
            "--generator.intensity",
            "-1",
            "--out",
            tmp_path / "a",
        ) == 2
        assert "intensity" in capsys.readouterr().err

    def test_seed_rejected_for_deterministic_experiment(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "k.ini", "[kernel_chain]\n")
        assert run_cli("kernel_chain", "--config", cfg, "--seed", 4) == 2
        assert "seed" in capsys.readouterr().err


class TestSampleExperiment:
    def test_same_config_twice_identical_points(self, tmp_path, sample_config):
        # [TRIVIAL] determinism: fixed seed, run twice, identical CSV bytes.
        for sub in ("a", "b"):
            assert run_cli(
                "sample", "--config", sample_config, "--out", tmp_path / sub
            ) == 0
        a = (tmp_path / "a" / "points.csv").read_bytes()
        b = (tmp_path / "b" / "points.csv").read_bytes()
        assert a == b
        assert a.startswith(b"x0,x1\n")

    def test_metadata_records_seed(self, tmp_path, sample_config):
        assert run_cli("sample", "--config", sample_config, "--out", tmp_path / "a") == 0
        meta = (tmp_path / "a" / "metadata.txt").read_text()
        assert "seed=11" in meta

    def test_different_seed_different_points(self, tmp_path, sample_config):
        assert run_cli("sample", "--config", sample_config, "--out", tmp_path / "a") == 0
        assert run_cli(
            "sample", "--config", sample_config, "--seed", 12, "--out", tmp_path / "b"
        ) == 0
        a = (tmp_path / "a" / "points.csv").read_bytes()
        b = (tmp_path / "b" / "points.csv").read_bytes()
        assert a != b

    def test_csv_uses_lf_and_dot_decimal(self, tmp_path, sample_config):
        assert run_cli("sample", "--config", sample_config, "--out", tmp_path / "a") == 0
        raw = (tmp_path / "a" / "points.csv").read_bytes()
        assert b"\r" not in raw
        assert b"," in raw and b";" not in raw

    def test_no_writes_outside_output_dir(self, tmp_path, sample_config, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out = tmp_path / "only_here"
        assert run_cli("sample", "--config", sample_config, "--out", out) == 0
        assert list(workdir.iterdir()) == []
        assert (out / "points.csv").exists()


class TestManifestRoundTrip:
    def test_manifest_reruns_byte_identical(self, tmp_path, sample_config):
        assert run_cli("sample", "--config", sample_config, "--out", tmp_path / "a") == 0
        manifest = tmp_path / "a" / "manifest.ini"
        assert run_cli("sample", "--config", manifest, "--out", tmp_path / "b") == 0
        for name in ("points.csv", "metadata.txt", "manifest.ini"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_manifest_contains_defaults_and_version(self, tmp_path):
        cfg = write_config(
            tmp_path / "k.ini", "[kernel_chain]\nlam = 1.0\n"
        )
        assert run_cli("kernel_chain", "--config", cfg, "--out", tmp_path / "a") == 0
        parser = configparser.ConfigParser()
        parser.read(tmp_path / "a" / "manifest.ini")
        assert parser["meta"]["experiment"] == "kernel_chain"
        assert parser["meta"]["version"]
        # defaulted keys are echoed explicitly
        assert parser["kernel_chain"]["m"] == "4"
        assert parser["kernel_chain"]["geo_p"] == "0.5"

    def test_manifest_roundtrip_with_overrides(self, tmp_path, sample_config):
        assert run_cli(
            "sample",
            "--config",
            sample_config,
            "--generator.intensity",
            "0.5",
            "--out",
            tmp_path / "a",
        ) == 0
        manifest = tmp_path / "a" / "manifest.ini"
        assert run_cli("sample", "--config", manifest, "--out", tmp_path / "b") == 0
        assert (tmp_path / "a" / "points.csv").read_bytes() == (
            tmp_path / "b" / "points.csv"
        ).read_bytes()


PERC_SWEEP = """
[run]
seed = 5
replications = 8

[window]
sides = 10
metric = euclidean

[generator]
type = poisson
intensity = 1.154701

[generator_b]
type = perturbed_lattice
delta = 0.93
replication = binomial 1 1.0
displacement = uniform_in_cell

[percolation]
mode = sweep
r_min = 0.3
r_max = 0.5
r_step = 0.1
"""
# The crossing and critical modes read [generator] alone.
PERC_ONE = (
    PERC_SWEEP[: PERC_SWEEP.index("[generator_b]")]
    + PERC_SWEEP[PERC_SWEEP.index("[percolation]") :]
)


class TestPercolationExperiment:
    def test_sweep_writes_one_file_per_family(self, tmp_path):
        cfg = write_config(tmp_path / "p.ini", PERC_SWEEP)
        assert run_cli("percolation", "--config", cfg, "--out", tmp_path / "a") == 0
        sweep_a = (tmp_path / "a" / "sweep_a.csv").read_text()
        sweep_b = (tmp_path / "a" / "sweep_b.csv").read_text()
        header = "r,largest_fraction,second_fraction,stderr_largest,stderr_second"
        assert sweep_a.splitlines()[0] == header
        assert sweep_b.splitlines()[0] == header
        assert len(sweep_a.splitlines()) == 4  # header + radii 0.3, 0.4, 0.5

    def test_threads_do_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "p.ini", PERC_SWEEP)
        for sub, threads in (("a", "1"), ("b", "4")):
            assert run_cli(
                "percolation",
                "--config",
                cfg,
                "--threads",
                threads,
                "--out",
                tmp_path / sub,
            ) == 0
        for name in ("sweep_a.csv", "sweep_b.csv", "manifest.ini"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_critical_mode(self, tmp_path):
        cfg = write_config(tmp_path / "p.ini", PERC_ONE)
        assert run_cli(
            "percolation",
            "--config",
            cfg,
            "--percolation.mode",
            "critical",
            "--run.replications",
            "6",
            "--out",
            tmp_path / "a",
        ) == 0
        text = (tmp_path / "a" / "critical.csv").read_text()
        assert text.splitlines()[0] == "r_c,std_error,replications"
        assert text.splitlines()[1].endswith(",6")

    def test_critical_mode_with_tol_below_the_float_spacing(self, tmp_path):
        # Both end where lo and hi are adjacent floats, so they agree.  The
        # alarm turns a bisection that never ends into a failure.
        cfg = write_config(tmp_path / "p.ini", PERC_ONE)
        texts = []

        def stop(signum, frame):
            raise TimeoutError("critical_radius did not return within 20 s")

        previous = signal.signal(signal.SIGALRM, stop)
        signal.alarm(20)
        try:
            for tol in ("1e-18", "5e-324"):
                out = tmp_path / tol
                assert run_cli("percolation", "--config", cfg, "--percolation.mode", "critical",
                               "--percolation.tol", tol, "--run.replications", "6",
                               "--out", out) == 0
                texts.append((out / "critical.csv").read_text())
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert texts[0] == texts[1]
        r_c, error, reps = map(float, texts[0].splitlines()[1].split(","))
        assert 0 < r_c and 0 < error < 1e-12 and reps == 6

    def test_runtime_error_exit_3(self, tmp_path, capsys):
        # crossing mode on a periodic window is a module-level error
        cfg = write_config(
            tmp_path / "p.ini",
            PERC_ONE.replace("metric = euclidean", "metric = periodic").replace(
                "mode = sweep", "mode = crossing"
            ),
        )
        assert run_cli("percolation", "--config", cfg, "--out", tmp_path / "a") == 3
        err = capsys.readouterr().err
        assert "runtime error" in err
        assert "Euclidean" in err

    @pytest.mark.parametrize("mode", ["crossing", "critical"])
    def test_generator_b_rejected_outside_sweep_mode(self, tmp_path, capsys, mode):
        cfg = write_config(tmp_path / "p.ini", PERC_SWEEP)
        out = tmp_path / "a"
        assert run_cli("percolation", "--config", cfg, "--percolation.mode", mode,
                       "--out", out) == 2
        assert "[generator_b]" in capsys.readouterr().err
        assert not out.exists()

    def test_nothing_written_on_runtime_error(self, tmp_path):
        cfg = write_config(
            tmp_path / "p.ini",
            PERC_ONE.replace("metric = euclidean", "metric = periodic").replace(
                "mode = sweep", "mode = crossing"
            ),
        )
        out = tmp_path / "a"
        assert run_cli("percolation", "--config", cfg, "--out", out) == 3
        assert not out.exists()


CURVE_RUNS = [
    ("percolation", PERC_ONE.replace("mode = sweep", "mode = crossing"), "crossing.csv",
     "crossing_probability"),
    (
        "coverage",
        "[run]\nseed = 5\nreplications = 3\n[window]\nsides = 5\n"
        "[generator]\ntype = poisson\nintensity = 1\n"
        "[coverage]\nr_min = 0.2\nr_max = 0.4\nr_count = 3\ngrid_n = 16\n",
        "coverage.csv",
        "k_covered_volume",
    ),
]


class TestOneCallPerCurve:
    @pytest.mark.parametrize(
        "experiment, config, table, estimator", CURVE_RUNS, ids=["crossing", "coverage"]
    )
    def test_one_estimator_call_with_every_radius(
        self, tmp_path, monkeypatch, experiment, config, table, estimator
    ):
        calls = []
        for module, name in (
            (percolation, "crossing_probability"),
            (percolation, "k_percolation_crossing"),
            (shotnoise, "k_covered_volume"),
        ):

            def recorded(spec, w, radii, *args, _name=name, _call=getattr(module, name), **kw):
                calls.append((_name, list(radii)))
                return _call(spec, w, radii, *args, **kw)

            monkeypatch.setattr(module, name, recorded)
        cfg = write_config(tmp_path / "c.ini", config)
        assert run_cli(experiment, "--config", cfg, "--out", tmp_path / "a") == 0
        rows = (tmp_path / "a" / table).read_text().splitlines()[1:]
        assert len(rows) == 3
        assert calls == [(estimator, [float(row.split(",")[0]) for row in rows])]


class TestKernelChainExperiment:
    def test_all_verdicts_hold_with_default_parameters(self, tmp_path):
        cfg = write_config(tmp_path / "k.ini", "[kernel_chain]\n")
        assert run_cli("kernel_chain", "--config", cfg, "--out", tmp_path / "a") == 0
        lines = (tmp_path / "a" / "chain.csv").read_text().splitlines()
        assert lines[0] == "chain,lower,upper,verdict,min_slack,witness"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 8
        assert all(row[3] == "holds" for row in rows)
        assert all(float(row[4]) >= -1e-12 for row in rows)

    def test_binomial_beyond_the_float_range(self, tmp_path):
        # C(2000, i) passes the float range; every verdict still holds.
        cfg = write_config(tmp_path / "k.ini", "[kernel_chain]\nr_values = 2,4,2000\n")
        assert run_cli("kernel_chain", "--config", cfg, "--out", tmp_path / "a") == 0
        lines = (tmp_path / "a" / "chain.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines]
        assert "binomial(2000 0.0005)" in rows[4]
        assert [row[3] for row in rows[1:]] == ["holds"] * 9

    def test_chain_endpoints(self, tmp_path):
        cfg = write_config(tmp_path / "k.ini", "[kernel_chain]\n")
        run_cli("kernel_chain", "--config", cfg, "--out", tmp_path / "a")
        text = (tmp_path / "a" / "chain.csv").read_text()
        assert "hypergeometric(6 3 2)" in text
        assert "poisson(1)" in text
        assert "geometric(0.5)" in text
        assert "mixture(" in text

    def test_deterministic_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "k.ini", "[kernel_chain]\n")
        for sub in ("a", "b"):
            assert run_cli("kernel_chain", "--config", cfg, "--out", tmp_path / sub) == 0
        assert (tmp_path / "a" / "chain.csv").read_bytes() == (
            tmp_path / "b" / "chain.csv"
        ).read_bytes()

    def test_incompatible_lam_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "k.ini", "[kernel_chain]\nlam = 5.0\n")
        assert run_cli("kernel_chain", "--config", cfg, "--out", tmp_path / "a") == 2
        assert "lam" in capsys.readouterr().err


class TestOtherExperiments:
    def test_summary_curve(self, tmp_path):
        cfg = write_config(
            tmp_path / "s.ini",
            "[run]\nseed = 3\nreplications = 10\n[window]\nsides = 8\n"
            "[generator]\ntype = poisson\nintensity = 1\n"
            "[summary]\nr_min = 0.2\nr_max = 1.0\nr_count = 3\n",
        )
        assert run_cli("summary", "--config", cfg, "--out", tmp_path / "a") == 0
        lines = (tmp_path / "a" / "curve.csv").read_text().splitlines()
        assert lines[0] == "r,estimate,std_error,replications"
        assert len(lines) == 4

    def test_compare_weak_writes_verdicts(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini",
            "[run]\nseed = 4\nreplications = 12\n[window]\nsides = 8\n"
            "[generator]\ntype = poisson\nintensity = 1\n"
            "[compare]\nscales = 0.5,1.0\nplacements = 16\n",
        )
        assert run_cli("compare", "--config", cfg, "--out", tmp_path / "a") == 0
        verdicts = (tmp_path / "a" / "verdicts.csv").read_text()
        assert verdicts.splitlines()[0] == "statistic,verdict"
        assert verdicts.splitlines()[-1].startswith("overall,")
        assert (tmp_path / "a" / "ordering_voids.csv").exists()
        assert (tmp_path / "a" / "ordering_factorial_moments_2.csv").exists()

    def test_compare_two_requires_generator_b(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.ini",
            "[run]\nseed = 4\n[window]\nsides = 8\n"
            "[generator]\ntype = poisson\nintensity = 1\n"
            "[compare]\nmode = two\n",
        )
        assert run_cli("compare", "--config", cfg, "--out", tmp_path / "a") == 2
        assert "generator_b" in capsys.readouterr().err

    def test_coverage_rows(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini",
            "[run]\nseed = 5\nreplications = 6\n[window]\nsides = 5\n"
            "[generator]\ntype = poisson\nintensity = 1\n"
            "[coverage]\nr_min = 0.2\nr_max = 0.4\nr_count = 2\ngrid_n = 16\n",
        )
        assert run_cli("coverage", "--config", cfg, "--out", tmp_path / "a") == 0
        lines = (tmp_path / "a" / "coverage.csv").read_text().splitlines()
        assert lines[0] == "r,k,volume,std_error"
        assert len(lines) == 3

    def test_sinr_gamma_sweep_monotone(self, tmp_path):
        cfg = write_config(
            tmp_path / "s.ini",
            "[run]\nseed = 6\n[window]\nsides = 6\nmetric = euclidean\n"
            "[generator]\ntype = poisson\nintensity = 1.5\n"
            "[sinr]\nnoise = 0.1\nthreshold = 1.0\n"
            "gammas = 0.0,0.2,0.5,1.0\n",
        )
        assert run_cli("sinr", "--config", cfg, "--out", tmp_path / "a") == 0
        lines = (tmp_path / "a" / "gamma_sweep.csv").read_text().splitlines()
        assert lines[0] == "gamma,n_edges"
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert counts == sorted(counts, reverse=True)
        assert (tmp_path / "a" / "edges.csv").read_text().splitlines()[0] == "i,j"

    def test_sinr_gamma_sweep_matches_separate_graphs(self, tmp_path):
        # One SINR pass per pattern gives every gamma the graph that its own
        # sinr_graph call gives, with a separate interferer pattern too.
        from ppclust import percolation, procgen, shotnoise
        from ppclust.core import RandomStream, cube

        cfg = write_config(
            tmp_path / "s.ini",
            "[run]\nseed = 6\n[window]\nsides = 6\ndimension = 2\nmetric = euclidean\n"
            "[generator]\ntype = poisson\nintensity = 1.5\n"
            "[generator_b]\ntype = poisson\nintensity = 0.5\n"
            "[sinr]\nnoise = 0.1\nthreshold = 1.0\ngamma = 0.05\n"
            "gammas = 0.0,0.02,0.1,0.5\n",
        )
        assert run_cli("sinr", "--config", cfg, "--out", tmp_path / "a") == 0
        w, stream = cube(6.0, 2, metric="euclidean"), RandomStream(6)
        pattern_b = procgen.sample(procgen.homogeneous_poisson(1.5), w, stream.derive(0))
        pattern_i = procgen.sample(procgen.homogeneous_poisson(0.5), w, stream.derive(1))

        def graph(gamma):
            params = percolation.SinrParams(
                1.0, 0.1, 1.0, gamma, shotnoise.exponential_response(1.0)
            )
            return percolation.sinr_graph(pattern_b, pattern_i, params)

        edges = (tmp_path / "a" / "edges.csv").read_text()
        assert edges == percolation.graph_to_csv(graph(0.05))
        lines = (tmp_path / "a" / "gamma_sweep.csv").read_text().splitlines()
        counts = [int(line.split(",")[1]) for line in lines[1:]]
        assert counts == [len(graph(g).edges) for g in (0.0, 0.02, 0.1, 0.5)]
        assert len(set(counts)) == len(counts)

    @pytest.mark.parametrize("gammas", ["-1", "0.1,-2"])
    def test_sinr_negative_gammas_rejected(self, tmp_path, capsys, gammas):
        # One value or several, a negative interference factor fails parsing.
        cfg = write_config(
            tmp_path / "s.ini",
            "[run]\nseed = 6\n[window]\nsides = 6\nmetric = euclidean\n"
            "[generator]\ntype = poisson\nintensity = 1.5\n"
            f"[sinr]\nnoise = 0.1\nthreshold = 1.0\ngammas = {gammas}\n",
        )
        assert run_cli("sinr", "--config", cfg, "--out", tmp_path / "a") == 2
        err = capsys.readouterr().err
        assert "[sinr] gammas" in err and "non-negative" in err
        assert not (tmp_path / "a").exists()

    def test_graph_scaling(self, tmp_path):
        cfg = write_config(
            tmp_path / "g.ini",
            "[run]\nseed = 7\nreplications = 3\n"
            "[generator]\ntype = poisson\nintensity = 1\n"
            "[graph]\nn_list = 9,16\n",
        )
        assert run_cli("graph", "--config", cfg, "--out", tmp_path / "a") == 0
        lines = (tmp_path / "a" / "scaling.csv").read_text().splitlines()
        assert lines[0].startswith("n,r,mean_clique")
        assert len(lines) == 3

    def test_complex_scaling(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.ini",
            "[run]\nseed = 8\nreplications = 3\n"
            "[generator]\ntype = poisson\nintensity = 1\n"
            "[complex]\nn_list = 9\nr_coeff = 0.6\n",
        )
        assert run_cli("complex", "--config", cfg, "--out", tmp_path / "a") == 0
        lines = (tmp_path / "a" / "betti.csv").read_text().splitlines()
        assert lines[0] == "n,mean_betti,p_zero,std_error"
        assert len(lines) == 2


class TestPlots:
    def test_plot_flag_writes_svg(self, tmp_path, sample_config):
        assert run_cli(
            "sample", "--config", sample_config, "--plot", "--out", tmp_path / "a"
        ) == 0
        svg = (tmp_path / "a" / "points.svg").read_text()
        assert svg.startswith("<svg")
        assert 'viewBox="0 0 800 600"' in svg

    def test_no_plot_by_default(self, tmp_path, sample_config):
        assert run_cli("sample", "--config", sample_config, "--out", tmp_path / "a") == 0
        assert not (tmp_path / "a" / "points.svg").exists()

    def test_svg_plot_polyline_and_legend(self):
        svg = cli.svg_plot(
            [("alpha", [0, 1, 2], [1.0, 2.0, 4.0])], "t", "x", "y"
        )
        assert "<polyline" in svg
        assert "alpha" in svg
        assert "</svg>" in svg

    def test_svg_empty_series(self):
        svg = cli.svg_plot([("empty", [], [])], "t", "x", "y")
        assert "</svg>" in svg


class TestGeneratorParsing:
    @pytest.mark.parametrize(
        "body",
        [
            "type = square_lattice\ndelta = 1.0",
            "type = hex_lattice\ndelta = 1.0\nstationary = false",
            "type = bernoulli_lattice\ndelta = 1.0\np = 0.5",
            "type = binomial\nn = 20",
            "type = perturbed_lattice\ndelta = 1.0\nreplication = geometric 0.5",
            "type = neyman_scott\nparent_intensity = 0.5\n"
            "replication = poisson 2.0\ndisplacement = gaussian 0.3",
            "type = matern_cluster\nparent_intensity = 0.5\n"
            "mean_children = 2.0\nradius = 0.5",
            "type = thomas_cluster\nparent_intensity = 0.5\n"
            "mean_children = 2.0\nsigma = 0.3",
            "type = mixed_poisson\npairs = 0.5:0.5 0.5:1.5",
            "type = perturbed_lattice\ndelta = 1.0\n"
            "replication = geometric_mixture 0.5:0.4 0.5:0.8\n"
            "displacement = ball 0.4",
        ],
    )
    def test_every_generator_family_samples(self, tmp_path, body):
        cfg = write_config(
            tmp_path / "g.ini",
            "[run]\nseed = 2\n[window]\nsides = 6\ndimension = 2\n"
            f"[generator]\n{body}\n",
        )
        assert run_cli("sample", "--config", cfg, "--out", tmp_path / "a") == 0
        assert (tmp_path / "a" / "points.csv").exists()

    def test_ginibre_needs_euclidean_window(self, tmp_path):
        # determinantal samples are not wrapped, so the window is euclidean
        cfg = write_config(
            tmp_path / "g.ini",
            "[run]\nseed = 2\n[window]\nsides = 6\ndimension = 2\n"
            "metric = euclidean\n[generator]\ntype = ginibre\n"
            "n_rank = 10\nradius = 1.5\n",
        )
        assert run_cli("sample", "--config", cfg, "--out", tmp_path / "a") == 0
        assert (tmp_path / "a" / "points.csv").exists()

    def test_unknown_generator_type(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "g.ini",
            "[run]\nseed = 2\n[window]\nsides = 6\n[generator]\ntype = magic\n",
        )
        assert run_cli("sample", "--config", cfg, "--out", tmp_path / "a") == 2
        assert "magic" in capsys.readouterr().err

    def test_bad_count_distribution(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "g.ini",
            "[run]\nseed = 2\n[window]\nsides = 6\n[generator]\n"
            "type = perturbed_lattice\ndelta = 1.0\nreplication = parabolic 3\n",
        )
        assert run_cli("sample", "--config", cfg, "--out", tmp_path / "a") == 2
        assert "parabolic" in capsys.readouterr().err

    def test_mixture_weights_must_sum_to_one(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "g.ini",
            "[run]\nseed = 2\n[window]\nsides = 6\n[generator]\n"
            "type = mixed_poisson\npairs = 0.5:1.0 0.9:2.0\n",
        )
        assert run_cli("sample", "--config", cfg, "--out", tmp_path / "a") == 2
        assert "sum to 1" in capsys.readouterr().err


def resolve_text(experiment: str, raw: dict) -> str:
    return cli.render_manifest(cli.resolve_config(experiment, raw))


def assert_manifest_round_trips(tmp_path, experiment: str, text: str) -> None:
    manifest = write_config(tmp_path / "manifest.ini", text)
    raw = cli.read_config_file(manifest)
    raw.pop("meta")
    assert resolve_text(experiment, raw) == text


SAMPLE_WINDOW = {"sides": "6", "dimension": "2", "metric": "euclidean"}


class TestGoldenManifests:
    """Exact canonical manifest lines for every word-form and generator value."""

    @pytest.mark.parametrize(
        "body, expected",
        [
            ({"type": "Poisson", "intensity": "2"}, ["type = poisson", "intensity = 2.0"]),
            ({"type": "binomial", "n": "020"}, ["type = binomial", "n = 20"]),
            (
                {"type": "square_lattice", "delta": "1"},
                ["type = square_lattice", "delta = 1.0", "stationary = true"],
            ),
            (
                {"type": "hex_lattice", "delta": "1", "stationary": "no"},
                ["type = hex_lattice", "delta = 1.0", "stationary = false"],
            ),
            (
                {"type": "bernoulli_lattice", "delta": "1", "p": ".5"},
                ["type = bernoulli_lattice", "delta = 1.0", "p = 0.5"],
            ),
            (
                {"type": "perturbed_lattice", "delta": "1", "replication": "Binomial 3 .5"},
                [
                    "type = perturbed_lattice",
                    "delta = 1.0",
                    "replication = binomial 3 0.5",
                    "displacement = uniform_in_cell",
                ],
            ),
            (
                {
                    "type": "neyman_scott",
                    "parent_intensity": "0.5",
                    "replication": "poisson 2",
                    "displacement": "gaussian 3e-1",
                },
                [
                    "type = neyman_scott",
                    "parent_intensity = 0.5",
                    "replication = poisson 2.0",
                    "displacement = gaussian 0.3",
                ],
            ),
            (
                {
                    "type": "matern_cluster",
                    "parent_intensity": ".5",
                    "mean_children": "2",
                    "radius": "0.5",
                },
                [
                    "type = matern_cluster",
                    "parent_intensity = 0.5",
                    "mean_children = 2.0",
                    "radius = 0.5",
                ],
            ),
            (
                {
                    "type": "thomas_cluster",
                    "parent_intensity": ".5",
                    "mean_children": "2",
                    "sigma": "0.3",
                },
                [
                    "type = thomas_cluster",
                    "parent_intensity = 0.5",
                    "mean_children = 2.0",
                    "sigma = 0.3",
                ],
            ),
            (
                {"type": "mixed_poisson", "pairs": "0.5:0.5   .5:1.5"},
                ["type = mixed_poisson", "pairs = 0.5:0.5 0.5:1.5"],
            ),
            (
                {"type": "log_gaussian_cox", "mu_g": "-1", "sigma": "0.5", "corr_length": "1"},
                [
                    "type = log_gaussian_cox",
                    "mu_g = -1.0",
                    "sigma = 0.5",
                    "corr_length = 1.0",
                    "grid_n = 32",
                ],
            ),
            (
                {"type": "ginibre", "n_rank": "10", "radius": "1.5"},
                ["type = ginibre", "n_rank = 10", "radius = 1.5"],
            ),
        ],
    )
    def test_generator_family(self, tmp_path, body, expected):
        raw = {"run": {"seed": "1"}, "window": dict(SAMPLE_WINDOW), "generator": body}
        text = resolve_text("sample", raw)
        assert text.split("[generator]\n")[1].splitlines() == expected
        assert_manifest_round_trips(tmp_path, "sample", text)

    @pytest.mark.parametrize(
        "words, canonical",
        [
            ("deterministic 03", "deterministic 3"),
            ("binomial 4 .25", "binomial 4 0.25"),
            ("Poisson 2", "poisson 2.0"),
            ("neg_binomial 1.5 0.5", "neg_binomial 1.5 0.5"),
            ("geometric 1e-1", "geometric 0.1"),
            ("hypergeometric 6 3 2", "hypergeometric 6 3 2"),
            ("geometric_mixture .5:0.4   0.5:.8", "geometric_mixture 0.5:0.4 0.5:0.8"),
        ],
    )
    def test_count_distribution(self, tmp_path, words, canonical):
        body = {"type": "perturbed_lattice", "delta": "1", "replication": words}
        raw = {"run": {"seed": "1"}, "window": dict(SAMPLE_WINDOW), "generator": body}
        text = resolve_text("sample", raw)
        assert f"\nreplication = {canonical}\n" in text
        assert_manifest_round_trips(tmp_path, "sample", text)

    @pytest.mark.parametrize(
        "words, canonical",
        [
            ("uniform_in_cell", "uniform_in_cell"),
            ("Gaussian 2e-1", "gaussian 0.2"),
            ("ball .4", "ball 0.4"),
        ],
    )
    def test_displacement(self, tmp_path, words, canonical):
        body = {
            "type": "perturbed_lattice",
            "delta": "1",
            "replication": "poisson 1",
            "displacement": words,
        }
        raw = {"run": {"seed": "1"}, "window": dict(SAMPLE_WINDOW), "generator": body}
        text = resolve_text("sample", raw)
        assert f"\ndisplacement = {canonical}\n" in text
        assert_manifest_round_trips(tmp_path, "sample", text)

    @pytest.mark.parametrize(
        "words, canonical",
        [
            ("exponential 2", "exponential 2.0"),
            ("Power_Law 3 1e-1", "power_law 3.0 0.1"),
            ("indicator_ball .5", "indicator_ball 0.5"),
        ],
    )
    def test_attenuation(self, tmp_path, words, canonical):
        raw = {
            "run": {"seed": "1"},
            "window": dict(SAMPLE_WINDOW),
            "generator": {"type": "poisson", "intensity": "1"},
            "sinr": {"threshold": "1", "attenuation": words},
        }
        text = resolve_text("sinr", raw)
        assert f"\nattenuation = {canonical}\n" in text
        assert_manifest_round_trips(tmp_path, "sinr", text)


PLOT_RUNS = [
    ("sample", POISSON_SAMPLE, ["points.svg"]),
    (
        "summary",
        "[run]\nseed = 3\nreplications = 4\n[window]\nsides = 6\ndimension = 2\n"
        "[generator]\ntype = poisson\nintensity = 1\n"
        "[summary]\nr_min = 0.2\nr_max = 1.0\nr_count = 3\n",
        ["curve.svg"],
    ),
    (
        "compare",
        "[run]\nseed = 4\nreplications = 6\n[window]\nsides = 6\ndimension = 2\n"
        "[generator]\ntype = poisson\nintensity = 1\n"
        "[compare]\nscales = 0.5,1.0\nplacements = 8\n",
        ["compare.svg"],
    ),
    ("percolation", PERC_SWEEP.replace("replications = 8", "replications = 3"), ["sweep.svg"]),
    (
        "percolation",
        PERC_ONE.replace("replications = 8", "replications = 3").replace(
            "mode = sweep", "mode = crossing"
        ),
        ["crossing.svg"],
    ),
    (
        "coverage",
        "[run]\nseed = 5\nreplications = 3\n[window]\nsides = 5\ndimension = 2\n"
        "[generator]\ntype = poisson\nintensity = 1\n"
        "[coverage]\nr_min = 0.2\nr_max = 0.4\nr_count = 2\ngrid_n = 16\n",
        ["coverage.svg"],
    ),
    (
        "sinr",
        "[run]\nseed = 6\n[window]\nsides = 5\ndimension = 2\nmetric = euclidean\n"
        "[generator]\ntype = poisson\nintensity = 1\n"
        "[sinr]\nnoise = 0.1\nthreshold = 1.0\ngammas = 0.0,0.5\n",
        ["gamma_sweep.svg"],
    ),
    (
        "graph",
        "[run]\nseed = 7\nreplications = 2\n"
        "[generator]\ntype = poisson\nintensity = 1\n[graph]\nn_list = 9,16\n",
        ["scaling.svg"],
    ),
    (
        "complex",
        "[run]\nseed = 8\nreplications = 2\n"
        "[generator]\ntype = poisson\nintensity = 1\n"
        "[complex]\nn_list = 9\nr_coeff = 0.6\n",
        ["betti.svg"],
    ),
    ("kernel_chain", "[kernel_chain]\n", ["chain.svg"]),
]


class TestPlotsForEveryExperiment:
    @pytest.mark.parametrize(
        "experiment, config, svgs",
        PLOT_RUNS,
        ids=[f"{exp}-{svgs[0]}" for exp, _, svgs in PLOT_RUNS],
    )
    def test_plot_adds_only_its_svgs(self, tmp_path, experiment, config, svgs):
        cfg = write_config(tmp_path / "c.ini", config)
        plain, plotted = tmp_path / "plain", tmp_path / "plotted"
        assert run_cli(experiment, "--config", cfg, "--out", plain) == 0
        assert run_cli(experiment, "--config", cfg, "--plot", "--out", plotted) == 0
        plain_files = sorted(p.name for p in plain.iterdir())
        assert not any(name.endswith(".svg") for name in plain_files)
        assert sorted(p.name for p in plotted.iterdir()) == sorted(plain_files + svgs)
        for name in plain_files:
            assert (plain / name).read_bytes() == (plotted / name).read_bytes()
        for name in svgs:
            svg = (plotted / name).read_text()
            assert svg.startswith("<svg") and svg.endswith("</svg>\n")

    def test_critical_mode_has_no_plot(self, tmp_path):
        cfg = write_config(tmp_path / "p.ini", PERC_ONE)
        out = tmp_path / "a"
        assert run_cli(
            "percolation", "--config", cfg, "--percolation.mode", "critical",
            "--run.replications", "3", "--plot", "--out", out,
        ) == 0
        assert sorted(p.name for p in out.iterdir()) == ["critical.csv", "manifest.ini"]


CSV_RUNS = [(exp, config, []) for exp, config, _ in PLOT_RUNS] + [
    (
        "percolation",
        PERC_ONE,
        ["--percolation.mode", "critical", "--run.replications", "3"],
    ),
]


class TestCsvArtifacts:
    @pytest.mark.parametrize(
        "experiment, config, extra",
        CSV_RUNS,
        ids=[f"{exp}-{i}" for i, (exp, _, _) in enumerate(CSV_RUNS)],
    )
    def test_rectangular_with_round_trip_numbers(self, tmp_path, experiment, config, extra):
        # Every table goes through core.csv_text: a fixed column count, LF
        # endings, and numbers in the form format(float(c), ".17g") gives.
        cfg = write_config(tmp_path / "c.ini", config)
        out = tmp_path / "out"
        assert run_cli(experiment, "--config", cfg, *extra, "--out", out) == 0
        tables = sorted(out.glob("*.csv"))
        assert tables
        for path in tables:
            text = path.read_bytes().decode()
            assert "\r" not in text and text.endswith("\n")
            lines = text[:-1].split("\n")
            width = len(lines[0].split(","))
            for line in lines:
                cells = line.split(",")
                assert len(cells) == width, (path.name, line)
                for cell in cells:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert format(value, ".17g") == cell, (path.name, cell)


# Run in a fresh interpreter: record the modules that numpy and the scipy
# the kernels call (KD-tree, Delaunay, csgraph, special) load, import one
# ppclust module, report the scipy modules it added, then evaluate the one
# Chernoff bound, whose solvers are imported on first use.
STARTUP_CHILD = """
import json, sys
import numpy, scipy.spatial, scipy.sparse.csgraph, scipy.special
base = set(sys.modules)
import {module}
added = sorted(m for m in set(sys.modules) - base if m.split(".")[0] == "scipy")
from ppclust.shotnoise import exponential_response, level_exceedance_bound
bound = level_exceedance_bound(1.0, exponential_response(1.0), 10.0, "min_above", 2)
print(json.dumps({{"added": added, "bound": repr(bound)}}))
"""


class TestStartup:
    @pytest.mark.parametrize("module", ["ppclust.cli", "ppclust"])
    def test_import_loads_only_the_scipy_the_kernels_run(self, module):
        # Measured against the kernels' own scipy, so the test holds on any
        # scipy version.
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        child = subprocess.run(
            [sys.executable, "-c", STARTUP_CHILD.format(module=module)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        report = json.loads(child.stdout)
        assert report["added"] == []
        expected = level_exceedance_bound(1.0, exponential_response(1.0), 10.0, "min_above", 2)
        assert report["bound"] == repr(expected)
