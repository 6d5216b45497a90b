"""The differential campaign: expectation matrix, invariants, stats, CLI."""

import json

import pytest

from repro.fuzz import (
    ATTACK_KINDS,
    CONFIG_NAMES,
    CaseGenerator,
    expectation,
    run_campaign,
    run_case,
)
from repro.fuzz.cli import main as fuzz_cli


def case_of(kind, index=0, seed=9):
    return CaseGenerator(seed).draw_kind(kind, index)


class TestExpectationMatrix:
    def test_safe_is_never_everywhere(self):
        for config in CONFIG_NAMES:
            assert expectation("safe", config, True) == "never"

    def test_shield_always_detects_every_attack(self):
        for kind in ATTACK_KINDS:
            for is_store in (True, False):
                assert expectation(kind, "shield", is_store) == "always"

    def test_documented_gaps_are_encoded(self):
        # §4.1: canary jumps are invisible to canary tools ...
        assert expectation("canary_jump", "clarmor", True) == "never"
        assert expectation("canary_jump", "gmod", True) == "never"
        # ... and to allocation-table tools (the landing is in-bounds).
        assert expectation("inter_buffer", "memcheck", True) == "never"
        # Canary tools never see loads.
        assert expectation("overflow", "clarmor", False) == "never"
        # Launch-boundary attacks exist only below the software tools.
        for kind in ("forged_id", "stale_replay"):
            for config in ("base", "swbounds", "memcheck", "clarmor",
                           "gmod"):
                assert expectation(kind, config, True) == "never"


class TestRunCase:
    @pytest.mark.parametrize("kind", ATTACK_KINDS)
    def test_each_attack_kind_matches_matrix(self, kind):
        outcome = run_case(case_of(kind))
        assert outcome.ok, outcome.cell_failures
        assert outcome.detected["shield"]
        assert outcome.attribution_ok

    @pytest.mark.parametrize("kind", ["safe", "overflow", "forged_id"])
    def test_configs_share_one_unchanged_workload(self, kind, monkeypatch):
        # run_case builds a case once for all six configs: no config may
        # mutate the Workload or its kernels.  Dataclass reprs cover
        # every kernel instruction, buffer spec and run argument (and
        # leave out the fast executor's private program cache).
        from repro.fuzz import campaign

        built = []
        original = campaign.build_workload

        def recording(spec):
            workload = original(spec)
            built.append((workload, repr(workload)))
            return workload

        monkeypatch.setattr(campaign, "build_workload", recording)
        outcome = run_case(case_of(kind), check_determinism=True)
        assert outcome.ok, outcome.cell_failures
        assert outcome.deterministic
        assert len(built) == 2            # the shared build + the re-run's
        for workload, dump in built:
            assert repr(workload) == dump

    def test_safe_case_has_no_detections_and_equal_digests(self):
        outcome = run_case(case_of("safe"))
        assert outcome.ok, outcome.cell_failures
        assert not any(outcome.detected.values())
        assert len(set(outcome.digests.values())) == 1

    def test_shield_run_is_deterministic(self):
        outcome = run_case(case_of("overflow"), check_determinism=True)
        assert outcome.deterministic is True

    def test_case_seed_is_not_shadowed_by_the_session_default(self):
        # The session layer carries a 0xC0FFEE default seed; a campaign
        # case must reach the device under its own seed, end to end.
        from repro.analysis.harness import WorkloadRunner
        from repro.core.shield import ShieldConfig
        from repro.fuzz.campaign import build_workload
        from repro.gpu.config import nvidia_config

        spec = case_of("overflow")
        want = spec.seed & 0xFFFF
        assert want != 0xC0FFEE
        runner = WorkloadRunner(build_workload(spec),
                                config=nvidia_config(num_cores=1),
                                shield=ShieldConfig(enabled=True),
                                seed=want, allow_violations=True)
        try:
            assert runner.seed == want
            assert runner.session.seed == want
            assert runner.session.driver.seed == want
        finally:
            runner.close()

    def test_canary_gap_reproduces_not_closes(self):
        outcome = run_case(case_of("canary_jump"),
                           configs=["shield", "clarmor", "gmod"])
        assert outcome.detected["shield"]
        assert not outcome.detected["clarmor"]
        assert not outcome.detected["gmod"]

    def test_overflow_store_hits_every_tool_but_base(self):
        spec = case_of("overflow")
        if not spec.attack_is_store:
            spec = spec.with_(attack_is_store=True)
        outcome = run_case(spec)
        assert outcome.detected == {"base": False, "shield": True,
                                    "swbounds": True, "memcheck": True,
                                    "clarmor": True, "gmod": True}


class TestRunCampaign:
    def test_small_campaign_is_clean_and_counted(self):
        specs = [CaseGenerator(4).draw_kind(k, i)
                 for i, k in enumerate(("safe",) + ATTACK_KINDS)]
        result = run_campaign(specs, seed=4, determinism_every=5)
        assert result.ok, [o.cell_failures for o in result.failures]
        assert len(result.outcomes) == len(specs)
        assert result.truncated == 0

        snap = result.stats.snapshot()
        assert snap.get("fuzz.campaign.cases") == len(specs)
        assert snap.get("fuzz.campaign.safe") == 1
        assert snap.get("fuzz.campaign.attacks") == len(ATTACK_KINDS)
        assert snap.get("fuzz.campaign.expectation_failures") == 0
        assert snap.get("fuzz.configs.shield.detected") == len(ATTACK_KINDS)
        assert snap.get("fuzz.configs.shield.missed") == 0
        assert snap.get("fuzz.configs.shield.false_positives") == 0
        assert snap.get("fuzz.configs.clarmor.missed") > 0

        matrix = result.matrix()
        assert matrix["canary_jump"]["shield"] == "1/1"
        assert matrix["canary_jump"]["clarmor"] == "0/1"
        assert "detection matrix" in result.render_matrix()

    def test_budget_truncation_is_reported(self):
        specs = [CaseGenerator(4).draw_kind("safe", i) for i in range(5)]
        calls = {"n": 0}

        def stop_after_two():
            calls["n"] += 1
            return calls["n"] > 2

        result = run_campaign(specs, should_stop=stop_after_two)
        assert len(result.outcomes) == 2
        assert result.truncated == 3
        assert result.stats.snapshot().get("fuzz.campaign.truncated") == 3


class TestCli:
    def test_smoke_campaign_writes_artifacts(self, tmp_path, capsys):
        rc = fuzz_cli(["--cases", "6", "--seed", "2",
                       "--out", str(tmp_path), "--determinism-every", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "detection matrix" in out
        assert "fuzz statistics" in out
        blob = json.loads((tmp_path / "detection_matrix.json").read_text())
        assert blob["ok"] is True
        assert blob["cases"] == 6
        assert blob["seed"] == 2

    def test_cli_replay_of_shipped_reproducer(self, capsys):
        rc = fuzz_cli(["--replay", "tests/data/reproducer_canary_jump.json",
                       "--configs", "shield,clarmor"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["detected"]["shield"] is True
        assert payload["detected"]["clarmor"] is False

    def test_cli_rejects_unknown_config(self):
        assert fuzz_cli(["--configs", "nosuch"]) == 2

    def test_cli_kind_filter(self, capsys):
        rc = fuzz_cli(["--cases", "2", "--kinds", "overflow",
                       "--configs", "shield,base",
                       "--determinism-every", "0"])
        assert rc == 0
        assert "overflow" in capsys.readouterr().out

    def test_module_forwarding(self):
        from repro.__main__ import main as repro_main
        rc = repro_main(["fuzz", "--cases", "1", "--kinds", "safe",
                         "--configs", "shield", "--determinism-every", "0"])
        assert rc == 0
