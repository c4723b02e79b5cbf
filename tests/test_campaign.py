"""Tests for the population-scale characterization campaign driver."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis.campaign import CharacterizationCampaign
from repro.errors import ConfigurationError

from conftest import TINY_GEOMETRY


@pytest.fixture(scope="module")
def summary():
    campaign = CharacterizationCampaign(
        chips_per_vendor=2, geometry=TINY_GEOMETRY, iterations=2, seed=99
    )
    return campaign.run(intervals_s=(0.512, 1.024, 2.048), temperatures_c=(45.0, 55.0))


class TestCampaign:
    def test_population_size(self, summary):
        assert summary.n_chips == 6
        assert set(summary.vendors) == {"A", "B", "C"}
        assert all(v.n_chips == 2 for v in summary.vendors.values())

    def test_ber_monotone_per_vendor(self, summary):
        for stats in summary.vendors.values():
            means = [stats.ber_by_interval[t][0] for t in summary.intervals_s]
            assert means == sorted(means)

    def test_temperature_coefficient_measured(self, summary):
        """The empirical Eq-1 coefficient lands near the vendor's model k."""
        for stats in summary.vendors.values():
            assert stats.measured_temp_coefficient is not None
            assert stats.measured_temp_coefficient == pytest.approx(
                stats.model_temp_coefficient, abs=0.12
            )

    def test_report_renders(self, summary):
        text = summary.to_text()
        assert "Campaign over 6 chips" in text
        assert "vendor A" in text and "vendor C" in text

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CharacterizationCampaign(chips_per_vendor=0)
        with pytest.raises(ConfigurationError, match="iterations must be positive, got 0"):
            CharacterizationCampaign(chips_per_vendor=1, iterations=0)
        campaign = CharacterizationCampaign(chips_per_vendor=1, geometry=TINY_GEOMETRY)
        with pytest.raises(ConfigurationError):
            campaign.run(intervals_s=())
        with pytest.raises(ConfigurationError):
            campaign.run(intervals_s=(1.024, 0.512))
        with pytest.raises(ConfigurationError):
            campaign.run(temperatures_c=())


def test_campaign_loads_neither_scipy_stats_nor_optimize():
    """Cold start: only the ECC model calls ``scipy.stats`` and
    ``scipy.optimize``, so neither ``import repro`` nor a campaign loads
    them (together they cost about half a second per process)."""
    script = """
import sys
import repro
from repro.analysis.campaign import CharacterizationCampaign
from repro.dram.geometry import ChipGeometry

geometry = ChipGeometry.from_capacity_gigabits(1.0 / 16.0)
CharacterizationCampaign(chips_per_vendor=1, geometry=geometry, iterations=1).run(
    intervals_s=(0.512, 1.024), temperatures_c=(45.0, 55.0)
)
print(sorted({"scipy.stats", "scipy.optimize"} & set(sys.modules)))
"""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
