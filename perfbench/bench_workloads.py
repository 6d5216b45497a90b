"""The benchmark's three workloads, driven through public entry points.

Each workload turns the seed into inputs once (its set-up), runs one
*round* over those inputs, and checks a round's outputs.  A round always
starts from the cache state of a fresh process: the caller drops the
warm device pool and both warm memos first.

* ``rodinia-shield`` — Figure 19's nine Rodinia benchmarks under
  ``base`` and ``gpushield`` via ``harness.run_matrix_cell`` on the
  default ``nvidia_config()``, for two input data sets: long kernels and
  clean accesses, so host time sits in the per-access simulator core.
  Items are cells.
* ``fuzz-campaign`` — cases drawn in order from ``CaseGenerator(seed)``,
  a fixed quota per size class, through ``campaign.run_campaign`` over
  all six protection configs on a one-core GPU: tiny, always-fresh
  kernels, so per-launch layers dominate, and attack cases drive the
  violation path.  Items are cases.
* ``serve-tenants`` — ``simulator.run_service`` with four tenants (one
  attacker) on eight devices and one runner worker: the only user of
  co-resident dispatch, the service scheduler and the runner.  Items are
  served requests.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, List


class RoundOutput:
    """What one round produced: item count, per-item outputs, checks.

    ``failures`` maps an item id to why a check that holds for any seed
    failed on it; the id ``"*"`` fails every item of the round.
    """

    def __init__(self, items: int, outputs: Dict[str, object],
                 failures: Dict[str, str], shield_pairs: List[tuple] = (),
                 pair_frac: float = 0.0):
        self.items = items
        self.outputs = outputs          # item id -> digestible output
        self.failures = failures
        self.shield_pairs = list(shield_pairs)   # (base, shield) cycles
        self.pair_frac = pair_frac      # co-resident share of placements


def _short(blob: object) -> str:
    text = json.dumps(blob, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class RodiniaShield:
    name = "rodinia-shield"
    #: Input data sets per round (harness seeds ``seed``, ``seed + 1``):
    #: one gives 82 launches, and p90 needs ten launches beyond it.
    data_sets = 2

    def __init__(self, seed: int):
        from repro.analysis.harness import default_shield
        from repro.workloads.suite import RODINIA_FIG19, get_benchmark
        self.cells = [(bench, tool, seed + k)
                      for k in range(self.data_sets)
                      for bench in RODINIA_FIG19
                      for tool in ("base", "gpushield")]
        # Building every workload once validates the inputs; the harness
        # builds its own copy per cell.
        for bench in RODINIA_FIG19:
            get_benchmark(bench).build()
        self.device_args = (None, default_shield())

    def run_round(self, rec) -> RoundOutput:
        from repro.analysis import harness
        outputs: Dict[str, object] = {}
        failures: Dict[str, str] = {}
        cycles: Dict[tuple, int] = {}
        for bench, tool, data_seed in self.cells:
            item = f"{bench}/{tool}/s{data_seed}"
            rec.item = item
            try:
                record = harness.run_matrix_cell(bench, tool,
                                                 seed=data_seed)
            except AssertionError as err:   # the harness's violation check
                failures[item] = str(err)
                continue
            if record.violations or record.aborted:
                failures[item] = (f"{record.violations} violation(s), "
                                  f"aborted={record.aborted}")
            outputs[item] = [record.cycles, record.instructions,
                             record.transactions]
            cycles[(bench, tool, data_seed)] = record.cycles
        pairs = [(cycles[(b, "base", d)], cycles[(b, "gpushield", d)])
                 for b, t, d in self.cells
                 if t == "base" and (b, "gpushield", d) in cycles
                 and (b, "base", d) in cycles]
        return RoundOutput(len(self.cells), outputs, failures, pairs)


class FuzzCampaign:
    name = "fuzz-campaign"
    #: Cases per size class.  A case's size class is its (benign rounds,
    #: workgroups, workgroup size): 4 x 3 x 2 = 24 classes, 288 cases.
    #: The generator draws the classes uniformly, so a fixed quota keeps
    #: its distribution but not the chance mix of 288 free draws, which
    #: moved the work per case by a tenth from seed to seed.
    per_class = 12
    classes = 24

    def __init__(self, seed: int):
        from repro.fuzz.generator import CaseGenerator
        from repro.gpu.config import nvidia_config
        self.seed = seed
        self.specs = self.draw(CaseGenerator(seed))
        self.config = nvidia_config(num_cores=1)
        self.device_args = (self.config, None)

    def draw(self, generator) -> list:
        """The generator's cases in order, each kept while its size
        class is short of its quota."""
        taken: Dict[tuple, int] = {}
        specs = []
        index = 0
        wanted = self.classes * self.per_class
        while len(specs) < wanted:
            if index >= 10 * wanted:
                raise RuntimeError(f"{index} draws left size classes "
                                   f"short: {taken}")
            spec = generator.draw(index)
            index += 1
            size = (spec.benign_rounds, spec.workgroups, spec.wg_size)
            if taken.get(size, 0) < self.per_class:
                taken[size] = taken.get(size, 0) + 1
                specs.append(spec)
        if len(taken) != self.classes:
            raise RuntimeError(f"expected {self.classes} size classes, "
                               f"drew {len(taken)}")
        return specs

    def run_round(self, rec) -> RoundOutput:
        from repro.fuzz import campaign
        result = campaign.run_campaign(self.specs, seed=self.seed,
                                       config=self.config)
        outputs = {o.spec.case_id: _short(o.to_dict(full=True))
                   for o in result.outcomes}
        failures = {o.spec.case_id: "; ".join(o.cell_failures)
                    for o in result.failures}
        if len(result.outcomes) != len(self.specs):
            failures["*"] = (f"campaign ran {len(result.outcomes)} of "
                             f"{len(self.specs)} cases")
        pairs = [(o.cycles["base"], o.cycles["shield"])
                 for o in result.outcomes if o.spec.safe]
        return RoundOutput(len(self.specs), outputs, failures, pairs)


class ServeTenants:
    name = "serve-tenants"
    tenants = 4
    attackers = 1
    requests_per_tenant = 300
    devices = 8

    def __init__(self, seed: int):
        from repro.service.executor import service_gpu, service_shield
        from repro.service.simulator import default_service_config
        from repro.service.traffic import TrafficGenerator
        self.seed = seed
        self.cfg = default_service_config(
            self.tenants, attackers=self.attackers,
            requests_per_tenant=self.requests_per_tenant, seed=seed,
            num_devices=self.devices)
        self.attacker_ids = {t.tenant_id for t in self.cfg.tenants
                             if t.attack_kinds}
        # The request trace is the generated input; run_service draws the
        # same trace again from the config.
        TrafficGenerator(self.cfg.tenants, seed).generate(
            self.requests_per_tenant)
        self.device_args = (service_gpu(), service_shield())

    def run_round(self, rec) -> RoundOutput:
        from repro.service import simulator
        report = simulator.run_service(self.cfg, jobs=1)
        served = report.counts()["ok"]
        failures: Dict[str, str] = {}
        wrong = sorted({e.tenant for e in report.events
                        if e.kind == "violation"} - self.attacker_ids)
        if wrong:
            failures["*"] = (f"violations attributed to honest "
                             f"tenant(s) {wrong}")
        elif not report.violations:
            failures["*"] = "the attacker tenant raised no violation"
        placements = report.plan.placements
        pairs = sum(1 for p in placements if len(p.requests) > 1)
        return RoundOutput(served, {"*": report.digest}, failures,
                           pair_frac=pairs / max(1, len(placements)))


WORKLOADS = {cls.name: cls for cls in (RodiniaShield, FuzzCampaign,
                                       ServeTenants)}


def geomean_overhead_pct(pairs: List[tuple]) -> float:
    """Geomean of shielded/base simulated cycles, minus one, in percent."""
    logs = [math.log(shield / base) for base, shield in pairs if base > 0]
    return (math.exp(sum(logs) / len(logs)) - 1) * 100 if logs else 0.0
