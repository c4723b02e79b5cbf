"""A 369-chip characterization campaign, at the paper's population scale.

The paper's headline experimental contribution is characterizing 368
LPDDR4 chips from three vendors.  368 does not split evenly three ways, so
this bench simulates 123 chips per vendor -- 369 in total, one more than
the paper's population -- keeping the vendor populations symmetric
(small-capacity chips for speed; BER statistics are capacity-independent).
It checks the population-level regularities the paper reports: monotone
BER curves per vendor, tight cross-chip spreads, and per-vendor Eq-1
temperature coefficients recovered empirically.

The campaign executes through the ``repro.runner`` process-pool backend
(``REPRO_BENCH_WORKERS`` overrides the pool size, default ``os.cpu_count()``;
0 or 1 runs it in-process), so the timed number measures the parallel
execution engine at the paper's population scale.  The
runner's determinism contract -- parallel, serial and resumed runs all
giving the per-chip reference rows' summary -- is covered by
``tests/test_differential.py``, whose golden summaries include this very
population (run serially).
"""

import os

import pytest

from repro.analysis.campaign import CharacterizationCampaign
from repro.analysis.report import ascii_table, paper_vs_measured
from repro.dram.geometry import ChipGeometry

from conftest import run_once, save_report

GEOMETRY = ChipGeometry.from_capacity_gigabits(1.0 / 16.0)
CHIPS_PER_VENDOR = 123  # 3 x 123 = 369: the smallest symmetric population >= the paper's 368
PAPER_COEFFICIENTS = {"A": 0.22, "B": 0.20, "C": 0.26}
WORKERS = max(1, int(os.environ.get("REPRO_BENCH_WORKERS", os.cpu_count() or 1)))


def test_campaign_368(benchmark):
    campaign = CharacterizationCampaign(
        chips_per_vendor=CHIPS_PER_VENDOR, geometry=GEOMETRY, iterations=1, seed=368
    )
    summary = run_once(
        benchmark,
        lambda: campaign.run(
            intervals_s=(0.512, 1.024, 2.048),
            temperatures_c=(45.0, 55.0),
            workers=WORKERS,
        ),
    )

    rows = []
    for stats in summary.vendors.values():
        for trefi in summary.intervals_s:
            mean, std = stats.ber_by_interval[trefi]
            rows.append([stats.vendor, trefi * 1e3, mean, std])
    table = ascii_table(
        ["vendor", "tREFI (ms)", "BER mean", "BER std (across chips)"],
        rows,
        title=f"Campaign over {summary.n_chips} chips (3 vendors x {CHIPS_PER_VENDOR})",
    )
    comparisons = [
        paper_vs_measured(
            f"Eq 1 coefficient vendor {name}",
            f"{expected:.2f}",
            f"{summary.vendors[name].measured_temp_coefficient:.3f}",
        )
        for name, expected in PAPER_COEFFICIENTS.items()
    ]
    backend_line = (
        f"  execution: {'process pool, ' + str(WORKERS) + ' workers' if WORKERS > 1 else 'in-process'}"
    )
    save_report("campaign_368", table + "\n" + "\n".join(comparisons) + "\n" + backend_line)

    assert summary.n_chips == 3 * CHIPS_PER_VENDOR
    for name, expected in PAPER_COEFFICIENTS.items():
        stats = summary.vendors[name]
        # Population-level temperature coefficient recovered within ~20%.
        assert stats.measured_temp_coefficient == pytest.approx(expected, abs=0.06)
        # BER grows with the interval.
        means = [stats.ber_by_interval[t][0] for t in summary.intervals_s]
        assert means == sorted(means)
        # Cross-chip spread is modest relative to the mean at the top interval.
        mean, std = stats.ber_by_interval[max(summary.intervals_s)]
        assert std < 0.5 * mean

