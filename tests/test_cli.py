"""End-to-end tests of the ppclust command-line runner.

Everything goes through cli.main() with real config files in tmp_path, so
the tests cover argument handling, validation, artifact writing, manifest
round-trips, and determinism exactly as a shell user would see them.
"""

import configparser
import os
from pathlib import Path

import pytest

from ppclust import cli


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
        cfg = write_config(tmp_path / "p.ini", PERC_SWEEP)
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

    def test_runtime_error_exit_3(self, tmp_path, capsys):
        # crossing mode on a periodic window is a module-level error
        cfg = write_config(
            tmp_path / "p.ini",
            PERC_SWEEP.replace("metric = euclidean", "metric = periodic").replace(
                "mode = sweep", "mode = crossing"
            ),
        )
        assert run_cli("percolation", "--config", cfg, "--out", tmp_path / "a") == 3
        err = capsys.readouterr().err
        assert "runtime error" in err
        assert "Euclidean" in err

    def test_nothing_written_on_runtime_error(self, tmp_path):
        cfg = write_config(
            tmp_path / "p.ini",
            PERC_SWEEP.replace("metric = euclidean", "metric = periodic").replace(
                "mode = sweep", "mode = crossing"
            ),
        )
        out = tmp_path / "a"
        assert run_cli("percolation", "--config", cfg, "--out", out) == 3
        assert not out.exists()


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
        PERC_SWEEP.replace("replications = 8", "replications = 3").replace(
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
        cfg = write_config(tmp_path / "p.ini", PERC_SWEEP)
        out = tmp_path / "a"
        assert run_cli(
            "percolation", "--config", cfg, "--percolation.mode", "critical",
            "--run.replications", "3", "--plot", "--out", out,
        ) == 0
        assert sorted(p.name for p in out.iterdir()) == ["critical.csv", "manifest.ini"]


CSV_RUNS = [(exp, config, []) for exp, config, _ in PLOT_RUNS] + [
    (
        "percolation",
        PERC_SWEEP,
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
