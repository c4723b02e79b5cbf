"""Simulated DRAM testing infrastructure (Section 4 of the paper)."""

from .chamber import CHAMBER_ACCURACY_C, ThermalChamber
from .pid import PIDController
from .testbed import TestBed
from .thermal_profiling import ThermalReachReport, profile_with_thermal_reach

__all__ = [
    "PIDController",
    "ThermalChamber",
    "CHAMBER_ACCURACY_C",
    "TestBed",
    "ThermalReachReport",
    "profile_with_thermal_reach",
]
