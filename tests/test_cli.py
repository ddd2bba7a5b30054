"""Runner contract: config parsing, precedence, exit codes, report files."""

import csv
import dataclasses
import json
import weakref

import numpy as np
import pytest

from tracelab import cli, fem2d, kernels, oplab, tracescale
from tracelab.errors import BadParameter, ConfigParseError
from tracelab.report import SuiteReport


def run_main(argv):
    return cli.main(argv)


class TestRunConfig:
    def test_defaults(self):
        cfg = cli.RunConfig(suites=("pde",))
        assert cfg.meshes == ("square",)
        assert cfg.ns == (8,)
        assert cfg.trials == 100

    def test_empty_suites_rejected(self):
        with pytest.raises(ConfigParseError):
            cli.RunConfig(suites=())

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigParseError):
            cli.RunConfig(suites=("magic",))

    def test_unknown_mesh_rejected(self):
        with pytest.raises(ConfigParseError):
            cli.RunConfig(suites=("pde",), meshes=("disc",))

    def test_nonpositive_refinement_rejected(self):
        with pytest.raises(ConfigParseError):
            cli.RunConfig(suites=("pde",), ns=(0,))

    def test_lshape_needs_even_levels(self):
        with pytest.raises(ConfigParseError):
            cli.RunConfig(suites=("pde",), meshes=("lshape",), ns=(4, 5))
        cli.RunConfig(suites=("pde",), meshes=("lshape",), ns=(4, 8))

    def test_duplicate_refinement_rejected(self):
        with pytest.raises(ConfigParseError):
            cli.RunConfig(suites=("hhalf",), meshes=("interval",), ns=(2, 2))
        with pytest.raises(ConfigParseError):
            cli.RunConfig(suites=("hhalf",), meshes=("interval",), ns=(1, 2, 1))

    @pytest.mark.parametrize("field,values", [("suites", ("h1", "h1")), ("meshes", ("interval", "square", "interval"))])
    def test_repeated_suite_or_mesh_rejected(self, field, values):
        # each cell would run, and be reported, once per repeat
        with pytest.raises(ConfigParseError, match="repeat an entry"):
            cli.RunConfig(**dict({"suites": ("h1",), "meshes": ("interval",), "ns": (2, 4)}, **{field: values}))

    def test_default_out_dir(self, monkeypatch):
        cfg = cli.RunConfig(suites=("pde",))
        assert cfg.out_dir == cfg.as_dict()["out_dir"] == "tracelab_out"
        with pytest.raises(ConfigParseError, match="empty output directory"):
            cli.RunConfig(suites=("pde",), out_dir=None)

    def test_trials_floor(self):
        with pytest.raises(ConfigParseError):
            cli.RunConfig(suites=("pde",), trials=0)

    @pytest.mark.parametrize("kind", fem2d.KINDS + ("disc",))
    @pytest.mark.parametrize("n", [1, 2, 3, np.int64(4), np.uint8(5), 2.5, 2.0, 0, -2])
    def test_accepts_exactly_the_levels_gen_mesh_builds(self, kind, n):
        # a level gen_mesh cannot build is refused when the config is made, before any cell runs
        try:
            fem2d.gen_mesh(kind, n)
        except BadParameter:
            with pytest.raises(ConfigParseError):
                cli.RunConfig(suites=("oplab", "pde"), meshes=(kind,), ns=(n,))
        else:
            assert cli.RunConfig(suites=("oplab", "pde"), meshes=(kind,), ns=(n,)).ns == (n,)

    def test_numpy_levels_reach_the_report(self, tmp_path):
        cfg = cli.RunConfig(suites=("h1",), meshes=("interval",), ns=(np.int64(2), np.uint8(4)), out_dir=str(tmp_path))
        assert cfg.ns == (2, 4) and all(type(n) is int for n in cfg.ns)
        assert cli.run(cfg) == 0
        assert json.loads((tmp_path / "report.json").read_text())["config"]["ns"] == [2, 4]

    def test_seed_width(self):
        with pytest.raises(ConfigParseError):
            cli.RunConfig(suites=("pde",), seed=2**64)
        cli.RunConfig(suites=("pde",), seed=2**64 - 1)


class TestCellSeed:
    def test_deterministic(self):
        assert cli.cell_seed(42, "pde:square:8") == cli.cell_seed(42, "pde:square:8")

    def test_distinct_cells_distinct_seeds(self):
        names = ["oplab:identity", "oplab:douglas", "pde:square:8", "pde:square:16"]
        seeds = {cli.cell_seed(7, name) for name in names}
        assert len(seeds) == len(names)

    def test_fits_64_bits(self):
        s = cli.cell_seed(2**63, "hhalf:lshape:16")
        assert 0 <= s < 2**64


class TestConfigFile:
    def test_full_file(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text(
            "# comment line\n"
            "\n"
            "suites = pde, hhalf\n"
            "meshes = interval\n"
            "ns = 1, 8\n"
            "seed = 99\n"
            "trials = 7\n"
            "out = somewhere\n"
            "tol.energy_split = 1e-8\n"
        )
        raw = cli.parse_config_file(str(f))
        assert raw["suites"] == ["pde", "hhalf"]
        assert raw["meshes"] == ["interval"]
        assert raw["ns"] == ["1", "8"]
        assert raw["seed"] == 99
        assert raw["trials"] == 7
        assert raw["out"] == "somewhere"
        assert raw["tol_overrides"] == {"energy_split": 1e-8}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigParseError):
            cli.parse_config_file(str(tmp_path / "absent.cfg"))

    def test_bad_line_reports_position(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("suites = pde\nnot a pair\n")
        with pytest.raises(ConfigParseError, match=":2"):
            cli.parse_config_file(str(f))

    @pytest.mark.parametrize(
        "text,key",
        [
            ("seed = 1\nsuites = pde\nseed = 2\n", "seed"),
            ("tol.green_formula = 1e-9\n\ntol.green_formula = 1e-8\n", "tol.green_formula"),
        ],
    )
    def test_repeated_key_names_both_lines(self, tmp_path, text, key):
        f = tmp_path / "run.cfg"
        f.write_text(text)
        with pytest.raises(ConfigParseError, match=rf":3: key '{key}' already set on line 1"):
            cli.parse_config_file(str(f))

    def test_unknown_key(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("colour = blue\n")
        with pytest.raises(ConfigParseError, match="colour"):
            cli.parse_config_file(str(f))

    def test_bad_integer(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("seed = twelve\n")
        with pytest.raises(ConfigParseError):
            cli.parse_config_file(str(f))

    def test_bad_tolerance(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("tol.x = much\n")
        with pytest.raises(ConfigParseError):
            cli.parse_config_file(str(f))

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_non_finite_or_negative_tolerance(self, tmp_path, value):
        f = tmp_path / "run.cfg"
        f.write_text(f"tol.penrose = {value}\n")
        with pytest.raises(ConfigParseError, match=":1: bad tolerance value"):
            cli.parse_config_file(str(f))

    def test_zero_tolerance_allowed(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("tol.sample_failures = 0\n")
        assert cli.parse_config_file(str(f))["tol_overrides"] == {"sample_failures": 0.0}


class TestPrecedence:
    def test_flags_override_file(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("suites = pde\nseed = 1\nns = 4\nout = filedir\n")
        args = cli.make_parser().parse_args(
            [str(f), "--seed", "2", "--out", "flagdir", "--n", "8"]
        )
        cfg = cli.build_config(args)
        assert cfg.seed == 2
        assert cfg.out_dir == "flagdir"
        assert cfg.ns == (8,)
        assert cfg.suites == ("pde",)

    def test_env_fallback_for_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRACELAB_OUT", str(tmp_path / "envdir"))
        args = cli.make_parser().parse_args(["--suite", "pde"])
        cfg = cli.build_config(args)
        assert cfg.out_dir == str(tmp_path / "envdir")

    def test_default_out(self, monkeypatch):
        monkeypatch.delenv("TRACELAB_OUT", raising=False)
        args = cli.make_parser().parse_args(["--suite", "pde"])
        assert cli.build_config(args).out_dir == "tracelab_out"

    def test_comma_lists_and_dedupe(self):
        args = cli.make_parser().parse_args(
            ["--suite", "pde,hhalf", "--suite", "pde", "--mesh", "interval", "--n", "1,2"]
        )
        cfg = cli.build_config(args)
        assert cfg.suites == ("pde", "hhalf")
        assert cfg.ns == (1, 2)

    def test_tol_flag_merges_over_file(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("suites = pde\ntol.a = 1.0\ntol.b = 2.0\n")
        args = cli.make_parser().parse_args([str(f), "--tol", "a=9.0", "--tol", "c=3.0"])
        cfg = cli.build_config(args)
        assert cfg.tol_overrides == {"a": 9.0, "b": 2.0, "c": 3.0}

    def test_repeated_tol_flag(self):
        args = cli.make_parser().parse_args(["--suite", "pde", "--tol", "a=1.0", "--tol", "a = 2.0"])
        with pytest.raises(ConfigParseError, match="'a' twice"):
            cli.build_config(args)

    def test_bad_tol_flag(self):
        args = cli.make_parser().parse_args(["--suite", "pde", "--tol", "oops"])
        with pytest.raises(ConfigParseError):
            cli.build_config(args)

    @pytest.mark.parametrize(
        "flag,values", [("--seed", ("1", "2")), ("--trials", ("3", "4")), ("--out", ("a", "b")), ("--out", ("a", "a"))]
    )
    def test_single_valued_flag_given_twice(self, flag, values):
        argv = ["--suite", "pde", flag, values[0], flag, values[1]]
        with pytest.raises(ConfigParseError, match=f"{flag} given 2 times"):
            cli.build_config(cli.make_parser().parse_args(argv))

    def test_first_repeated_flag_is_named(self):
        argv = ["--suite", "pde", "--seed", "1", "--seed", "2", "--trials", "3", "--trials", "4", "--out", "a", "--out", "b"]
        with pytest.raises(ConfigParseError, match="--seed given 2 times"):
            cli.build_config(cli.make_parser().parse_args(argv))

    def test_flag_overrides_file_key_once(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("suites = pde\nseed = 1\ntrials = 5\nout = filedir\n")
        cfg = cli.build_config(cli.make_parser().parse_args([str(f), "--seed", "2", "--trials", "6", "--out", "x"]))
        assert (cfg.seed, cfg.trials, cfg.out_dir) == (2, 6, "x")

    def test_empty_out_flag(self, monkeypatch):
        monkeypatch.setenv("TRACELAB_OUT", "envdir")
        with pytest.raises(ConfigParseError, match="--out is empty"):
            cli.build_config(cli.make_parser().parse_args(["--suite", "pde", "--out", ""]))

    def test_empty_out_key(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRACELAB_OUT", "envdir")
        f = tmp_path / "run.cfg"
        f.write_text("suites = pde\nout =\n")
        with pytest.raises(ConfigParseError, match=":2: empty output directory"):
            cli.build_config(cli.make_parser().parse_args([str(f), "--out", "x"]))

    def test_empty_env_out_exits_2_no_files(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("TRACELAB_OUT", "")
        with pytest.raises(ConfigParseError, match=r"\$TRACELAB_OUT is empty"):
            cli.build_config(cli.make_parser().parse_args(["--suite", "pde"]))
        assert run_main(["--suite", "oplab", "--trials", "1"]) == 2
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        # a flag or file key that sets the directory does not read the variable
        assert cli.build_config(cli.make_parser().parse_args(["--suite", "pde", "--out", "x"])).out_dir == "x"

    def test_empty_out_dir_in_api(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigParseError, match="empty output directory"):
            cli.RunConfig(suites=("oplab",), trials=1, out_dir="")
        cfg = cli.RunConfig(suites=("oplab",), trials=1, out_dir=str(tmp_path / "rep"))
        with pytest.raises(ConfigParseError, match="empty output directory"):
            dataclasses.replace(cfg, out_dir="")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "extra",
        [["--seed", "1", "--seed", "2"], ["--trials", "3", "--trials", "4"], ["--out", "a", "--out", "b"],
         ["--out", ""], ["run.cfg"]],
        ids=["seed-twice", "trials-twice", "out-twice", "empty-out-flag", "empty-out-key"],
    )
    def test_typos_exit_2_no_files(self, extra, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("TRACELAB_OUT", raising=False)
        (tmp_path / "run.cfg").write_text("out=\n")
        code = run_main(["--suite", "oplab", "--trials", "1"][: 2 if "--trials" in extra else 4] + extra)
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


class TestRun:
    def test_oplab_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = run_main(["--suite", "oplab", "--trials", "20", "--seed", "42", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["verdict"] == "pass"
        families = set()
        for rep in payload["results"]:
            families.update(rep["residuals"])
        assert len(families) >= 8
        assert "passed" in payload["results"][0]

    def test_oplab_single_trial_reports_without_item5(self, tmp_path):
        # one trial can draw no operator with an injective adjoint
        out = tmp_path / "rep"
        assert run_main(["--suite", "oplab", "--trials", "1", "--seed", "0", "--out", str(out)]) == 0
        identity = json.loads((out / "report.json").read_text())["results"][0]
        assert identity["constants"]["trials"] == 1.0
        assert "item5" not in identity["residuals"]
        assert "item5" not in identity["tolerances"]

    def test_default_identity_cell_covers_item5(self):
        config = cli.RunConfig(suites=("oplab",))
        assert (config.trials, config.seed) == (100, 0)
        run_cell = dict(cli.SUITES["oplab"].free_cells)["identity"]
        rep = run_cell(config, cli.cell_seed(config.seed, "oplab:identity"), None)
        assert rep.verdicts["item5"]

    def test_hhalf_interval_hand_values(self, tmp_path):
        out = tmp_path / "rep"
        code = run_main(
            ["--suite", "hhalf", "--mesh", "interval", "--n", "1", "--trials", "5", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        rep = payload["results"][0]
        c = rep["constants"]
        assert [c["s_00"], c["s_01"], c["s_10"], c["s_11"]] == [2.0, -1.0, -1.0, 2.0]
        assert c["split_total"] == 3.0
        assert c["split_l2"] == 1.0
        assert abs(c["split_extension"] - 2.0) <= 1e-12

    def test_empty_suites_exit_2_no_files(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = run_main(["--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_config_error_message_for_unknown_suite(self, tmp_path, capsys):
        code = run_main(["--suite", "bogus", "--out", str(tmp_path / "x")])
        assert code == 2
        assert not (tmp_path / "x").exists()

    def test_failed_verdict_exit_1(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = run_main(
            [
                "--suite", "pde", "--mesh", "interval", "--n", "1",
                "--trials", "3", "--tol", "harmonic_two_path=1e-30",
                "--out", str(out),
            ]
        )
        assert code == 1
        payload = json.loads((out / "report.json").read_text())
        assert payload["verdict"] == "fail"
        assert "FAIL" in capsys.readouterr().out

    def test_misspelled_tol_name_exit_2(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = run_main(
            [
                "--suite", "hhalf", "--mesh", "interval", "--n", "1",
                "--trials", "2", "--tol", "energy_splt=1e-8", "--out", str(out),
            ]
        )
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error" in err and "energy_splt" in err

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_repeated_key_exit_2_no_files(self, tmp_path, capsys, source):
        out = tmp_path / "rep"
        argv = ["--suite", "pde", "--mesh", "interval", "--n", "1", "--trials", "2", "--out", str(out)]
        if source == "file":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("seed = 1\nseed = 2\n")
            argv.insert(0, str(cfg))
        else:
            argv += ["--tol", "green_formula=1e-9", "--tol", "green_formula=1e-8"]
        assert run_main(argv) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error" in err and ("seed" if source == "file" else "green_formula") in err

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_non_finite_or_negative_tol_exit_2_no_files(self, tmp_path, capsys, value, source):
        # an infinite tolerance would switch its gate off and write "Infinity" into report.json
        out = tmp_path / "rep"
        argv = ["--suite", "oplab", "--trials", "4", "--out", str(out)]
        if source == "flag":
            argv += ["--tol", f"penrose={value}"]
        else:
            f = tmp_path / "run.cfg"
            f.write_text(f"tol.penrose = {value}\n")
            argv.insert(0, str(f))
        assert run_main(argv) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "config error" in err and "bad tolerance value" in err

    def test_non_finite_constant_exit_2_no_files(self, tmp_path, monkeypatch, capsys):
        rep = SuiteReport(suite="oplab", constants={"trials": float("inf")})
        monkeypatch.setattr(cli, "execute", lambda config: ([rep], "pass"))
        out = tmp_path / "rep"
        assert run_main(["--suite", "oplab", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: report not written")

    def test_tol_name_of_unselected_suite_exit_2(self, tmp_path, capsys):
        # energy_split gates hhalf, not pde
        out = tmp_path / "rep"
        code = run_main(
            [
                "--suite", "pde", "--mesh", "interval", "--n", "1",
                "--trials", "2", "--tol", "energy_split=1e-8", "--out", str(out),
            ]
        )
        assert code == 2
        assert not out.exists()
        code = run_main(
            [
                "--suite", "pde,hhalf", "--mesh", "interval", "--n", "1",
                "--trials", "2", "--tol", "energy_split=1e-8", "--out", str(out),
            ]
        )
        assert code == 0

    def test_nan_residual_exit_2_no_files(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(oplab, "rel_diff", lambda x, y: float("nan"))
        out = tmp_path / "rep"
        code = run_main(["--suite", "oplab", "--trials", "2", "--seed", "1", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: oplab:-:0 residual ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
    def test_unusable_out_exit_2_before_any_suite(self, tmp_path, monkeypatch, capsys, below):
        # a file at the output path, or on its way, fails before the suites run
        blocker = tmp_path / "FILE"
        blocker.write_text("kept\n")
        out = blocker / "sub" if below else blocker

        def refuse(config):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(cli, "execute", refuse)
        code = run_main(["--suite", "pde", "--mesh", "square", "--n", "2", "--trials", "1", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: unusable output directory")
        assert str(out) in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "kept\n"

    def test_dangling_link_out_exit_2_before_any_suite(self, tmp_path, monkeypatch, capsys):
        # a link to nowhere cannot become the output directory
        out = tmp_path / "out"
        out.symlink_to(tmp_path / "missing" / "x")

        def refuse(config):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(cli, "execute", refuse)
        code = run_main(["--suite", "h1", "--mesh", "interval", "--n", "2", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: unusable output directory {out}: {out} is not a writable")
        assert "Traceback" not in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == [out] and out.is_symlink() and not out.exists()

    def test_runner_looked_up_at_call_time(self, monkeypatch):
        # tools that patch module attributes (the benchmark tracer) must see every cell
        calls = []
        original = tracescale.suite_h1

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(tracescale, "suite_h1", counting)
        config = cli.RunConfig(suites=("h1",), meshes=("interval",), ns=(1,))
        reports, verdict = cli.execute(config)
        assert len(calls) == 1
        assert [rep.suite for rep in reports] == ["h1"] and verdict == "pass"

    def test_no_suite_takes_an_eigensolve(self, monkeypatch):
        # the scale orders are multiples of 1/4 and oplab's smoothings are half powers: square roots only
        def refuse(*args, **kwargs):
            raise AssertionError("a suite took a Jacobi eigensolve")

        monkeypatch.setattr(kernels, "jacobi_eigh", refuse)
        config = cli.RunConfig(suites=tuple(cli.SUITES), meshes=("interval", "square"), ns=(2, 4), trials=3)
        reports, verdict = cli.execute(config)
        assert len(cli.SUITES) == 7 and set(cli.SUITES) <= {rep.suite for rep in reports}
        assert verdict == "pass"

    def test_duplicate_refinement_exit_2(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = run_main(
            ["--suite", "hhalf", "--mesh", "interval", "--n", "2,2", "--trials", "2", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert "config error" in capsys.readouterr().err

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "rep"
        run_main(
            ["--suite", "dual", "--mesh", "interval", "--n", "1", "--trials", "2", "--out", str(out)]
        )
        with (out / "report.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["suite", "mesh", "n", "metric", "value"]
        assert all(len(r) == 5 for r in rows[1:])
        metrics = {r[3] for r in rows[1:]}
        assert "dual_gram" in metrics
        # values survive a repr round-trip
        for r in rows[1:]:
            float(r[4])

    def test_stability_rows_appear_with_two_levels(self, tmp_path):
        out = tmp_path / "rep"
        code = run_main(
            [
                "--suite", "hhalf,h1,necas", "--mesh", "square", "--n", "4,8",
                "--trials", "5", "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        rows = {rep["suite"]: rep for rep in payload["results"] if rep["suite"].endswith("-stability")}
        expected = {
            "hhalf": ({"quotient_cmin", "quotient_cmax"}, "drift", 0.25),
            "h1": ({"h1_cmin", "h1_cmax", "seminorm_cmin", "seminorm_cmax"}, "growth", 3.0),
            "necas": (
                {"trace_rough_max", "trace_smooth_max", "flux_rough_max", "flux_smooth_max", "rellich_max"},
                "growth",
                3.0,
            ),
        }
        assert set(rows) == {f"{suite}-stability" for suite in expected}
        for suite, (metrics, mode, limit) in expected.items():
            table_metrics, table_mode, table_limit = cli.SUITES[suite].stability
            assert (set(table_metrics), table_mode, table_limit) == (metrics, mode, limit)
            stab = rows[f"{suite}-stability"]
            assert set(stab["residuals"]) == metrics
            assert stab["tolerances"] == dict.fromkeys(sorted(metrics), limit)

    def test_no_stability_row_for_single_level(self, tmp_path):
        out = tmp_path / "rep"
        run_main(["--suite", "hhalf", "--mesh", "square", "--n", "4", "--trials", "5", "--out", str(out)])
        payload = json.loads((out / "report.json").read_text())
        assert all(rep["suite"] != "hhalf-stability" for rep in payload["results"])

    def test_determinism_byte_identical(self, tmp_path):
        out = tmp_path / "rep"
        argv = [
            "--suite", "pde,interp", "--mesh", "interval", "--n", "1,8",
            "--seed", "1234", "--trials", "5", "--out", str(out),
        ]
        assert run_main(argv) == 0
        first_json = (out / "report.json").read_bytes()
        first_csv = (out / "report.csv").read_bytes()
        assert run_main(argv) == 0
        assert (out / "report.json").read_bytes() == first_json
        assert (out / "report.csv").read_bytes() == first_csv

    def test_seed_changes_residuals(self, tmp_path):
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"rep{seed}"
            run_main(
                ["--suite", "necas", "--mesh", "square", "--n", "4",
                 "--seed", seed, "--trials", "10", "--out", str(out)]
            )
            outs.append(json.loads((out / "report.json").read_text()))
        c1 = outs[0]["results"][0]["constants"]
        c2 = outs[1]["results"][0]["constants"]
        assert c1 != c2

    def test_config_file_end_to_end(self, tmp_path):
        f = tmp_path / "run.cfg"
        out = tmp_path / "rep"
        f.write_text(
            f"suites = h1\nmeshes = interval\nns = 1\nseed = 5\ntrials = 3\nout = {out}\n"
        )
        assert run_main([str(f)]) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["config"]["suites"] == ["h1"]
        assert payload["results"][0]["constants"]["h1_cmin"] == pytest.approx(2.0)
        assert payload["results"][0]["constants"]["h1_cmax"] == pytest.approx(4.0)


class TestAssemblyLifetime:
    def test_each_assembly_freed_after_its_cells(self, monkeypatch):
        # cells run assembly by assembly, and an assembly, with its memoized
        # factors, is gone before the next one's cells run
        built, seen = [], []
        assemble, suite_hhalf = fem2d.assemble, tracescale.suite_hhalf

        def recording(mesh):
            a = assemble(mesh)
            built.append(weakref.ref(a))
            return a

        def checking(a, **kwargs):
            alive = [r() is not None for r in built]
            seen.append((a.mesh.kind, a.mesh.refinement, alive))
            return suite_hhalf(a, **kwargs)

        monkeypatch.setattr(fem2d, "assemble", recording)
        monkeypatch.setattr(tracescale, "suite_hhalf", checking)
        config = cli.RunConfig(suites=("pde", "hhalf"), meshes=("interval", "square"), ns=(2, 4), trials=2)
        reports, verdict = cli.execute(config)
        assert verdict == "pass"
        assert seen == [
            ("interval", 2, [True]),
            ("interval", 4, [False, True]),
            ("square", 2, [False, False, True]),
            ("square", 4, [False, False, False, True]),
        ]
        assert len(built) == 4 and all(r() is None for r in built)
        # the report order is still suite, then mesh, then n, each mesh's stability row after its levels
        assert [(r.suite, r.mesh, r.n) for r in reports] == [
            ("pde", "interval", 2), ("pde", "interval", 4), ("pde", "square", 2), ("pde", "square", 4),
            ("hhalf", "interval", 2), ("hhalf", "interval", 4), ("hhalf-stability", "interval", 0),
            ("hhalf", "square", 2), ("hhalf", "square", 4), ("hhalf-stability", "square", 0),
        ]


class TestAssemblyMemo:
    def test_one_build_per_assembly_and_order(self):
        # 40 assemblies, more than a cache bounded at 32 entries would hold
        memos = (fem2d.space_h1partial, tracescale._trace_pinv, tracescale._hs_gram_cached)
        before = [m.cache_info() for m in memos]
        config = cli.RunConfig(
            suites=("hhalf", "h1", "interp", "dual"), meshes=("interval",), ns=tuple(range(1, 41)), trials=5
        )
        _, verdict = cli.execute(config)
        after = [m.cache_info() for m in memos]
        assert verdict == "pass"
        assert [x.misses - b.misses for x, b in zip(after, before)] == [40, 40, 360]
        assert all(x.hits >= b.hits for x, b in zip(after, before))

    def test_memo_per_assembly(self):
        info = tracescale._interior_chol.cache_info()
        a = fem2d.assemble(fem2d.gen_mesh("square", 4))
        factor = tracescale._interior_chol(a)
        assert tracescale._interior_chol(a) is factor
        twin = fem2d.assemble(fem2d.gen_mesh("square", 4))  # the same kind and n, another assembly
        assert tracescale._interior_chol(twin) is not factor
        # cumulative over both assemblies, and kept when they are gone
        counts = tracescale._interior_chol.cache_info()
        assert (counts.hits, counts.misses) == (info.hits + 1, info.misses + 2)
        ref = weakref.ref(factor)
        del a, twin, factor
        assert ref() is None
        assert tracescale._interior_chol.cache_info() == counts
