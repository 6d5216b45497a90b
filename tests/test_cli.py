"""Tests for the ``python -m repro`` command-line interface.

Error paths follow one convention across every subcommand: validation
errors (unknown names, bad values, unusable paths) print to stderr and
return exit code 2; contract failures return 1; argparse's own
rejections (missing/unknown arguments) raise SystemExit(2).
"""

import pytest

from repro.__main__ import ARTIFACTS, main, run_artifact


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ARTIFACTS:
            assert name in out

    def test_static_artifacts(self, capsys):
        for name in ("fig1", "fig11", "table3"):
            assert main([name]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_subset_sweep(self, capsys):
        assert main(["fig14", "--subset", "1"]) == 0
        assert "Figure 14" in capsys.readouterr().out

    def test_unknown_artifact(self):
        with pytest.raises(SystemExit):
            run_artifact("fig99")

    def test_run_artifact_returns_text(self):
        assert "GPUShield" in run_artifact("table3")


class TestBaseCliErrors:
    def test_unknown_artifact_exits_2_with_stderr(self, capsys):
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err and "list" in err

    def test_no_arguments_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "artifact" in capsys.readouterr().err

    def test_unknown_flag_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["fig1", "--bogus"])
        assert exc.value.code == 2


class TestFuzzCliErrors:
    def test_unknown_configs(self, capsys):
        from repro.fuzz.cli import main as fuzz_main
        assert fuzz_main(["--cases", "1", "--configs", "bogus"]) == 2
        assert "unknown configs" in capsys.readouterr().err

    def test_unknown_kinds(self, capsys):
        from repro.fuzz.cli import main as fuzz_main
        assert fuzz_main(["--cases", "1", "--kinds", "bogus"]) == 2
        assert "unknown kinds" in capsys.readouterr().err

    def test_resume_without_journal(self, capsys):
        from repro.fuzz.cli import main as fuzz_main
        assert fuzz_main(["--cases", "1", "--resume"]) == 2
        assert "--journal" in capsys.readouterr().err


class TestBenchCliErrors:
    def test_unknown_artifacts(self, capsys):
        from repro.analysis.bench import main as bench_main
        assert bench_main(["--artifacts", "bogus"]) == 2
        assert "unknown artefacts" in capsys.readouterr().err

    def test_unknown_gate_workloads(self, capsys):
        from repro.analysis.bench import main as bench_main
        assert bench_main(["--gate", "--gate-workloads", "bogus"]) == 2
        assert "unknown gate workloads" in capsys.readouterr().err

    def test_nonpositive_gate_tolerance_scale(self, capsys):
        from repro.analysis.bench import main as bench_main
        assert bench_main(["--gate",
                           "--gate-tolerance-scale", "-1"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_unwritable_out_path(self, tmp_path, capsys):
        from repro.analysis.bench import main as bench_main
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "record.json")   # parent is a file
        assert bench_main(["--artifacts", "table3",
                           "--results-dir", str(tmp_path / "results"),
                           "--out", out]) == 2
        assert "cannot write" in capsys.readouterr().err


#: Bad input every subject CLI (race, profile) must reject with exit 2:
#: case -> (argv, stderr fragment).  ``{out}`` stands for a path whose
#: parent is a file, so ``--out`` cannot be created.
_SUBJECT_BAD_INPUT = {
    "unknown_workloads": (["--workloads", "bogus"], "unknown workloads"),
    "unknown_kinds": (["--workloads", "none", "--fuzz-cases", "1",
                       "--kinds", "bogus"], "unknown kinds"),
    "empty_kinds": (["--workloads", "none", "--fuzz-cases", "1",
                     "--kinds", " ,"], "unknown kinds"),
    "unknown_engines": (["--workloads", "none", "--fuzz-cases", "1",
                         "--engines", "warp9"], "unknown engines"),
    "nothing_to_do": (["--workloads", "none", "--fuzz-cases", "0"],
                      "nothing to"),
    "negative_jobs": (["--workloads", "none", "--fuzz-cases", "1",
                       "--jobs", "-1"], "must not be negative"),
    "negative_shards": (["--workloads", "none", "--fuzz-cases", "1",
                         "--shards", "-2"], "must not be negative"),
    "uncreatable_out": (["--workloads", "none", "--fuzz-cases", "1",
                         "--out", "{out}"], "cannot create"),
}


class TestSubjectCliErrors:
    @pytest.mark.parametrize("case", sorted(_SUBJECT_BAD_INPUT))
    @pytest.mark.parametrize("cli", ["race", "profile"])
    def test_bad_input_exits_2(self, cli, case, tmp_path, capsys):
        from repro.profiler.cli import main as profile_main
        from repro.racedetect.cli import main as race_main
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv, fragment = _SUBJECT_BAD_INPUT[case]
        argv = [a.format(out=blocker / "nested") for a in argv]
        cli_main = race_main if cli == "race" else profile_main
        assert cli_main(argv) == 2
        assert fragment in capsys.readouterr().err


class TestServeOracleCliErrors:
    def test_serve_rejects_bad_tenant_counts(self, capsys):
        from repro.service.cli import main as serve_main
        assert serve_main(["--tenants", "0"]) == 2
        assert serve_main(["--tenants", "2", "--attackers", "3"]) == 2
        assert "tenants" in capsys.readouterr().err

    def test_serve_rejects_bad_attack_ratio(self, capsys):
        from repro.service.cli import main as serve_main
        assert serve_main(["--attack-ratio", "1.5"]) == 2
        assert "[0, 1]" in capsys.readouterr().err

    def test_oracle_rejects_unknown_command(self):
        from repro.oracle.cli import main as oracle_main
        with pytest.raises(SystemExit) as exc:
            oracle_main(["frobnicate"])
        assert exc.value.code == 2
