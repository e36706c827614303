"""Scenario layer: full experiments from sea state to sink decision.

- :mod:`repro.scenario.deployment` — the manual grid deployment of
  Sec. III-A (buoys + motes at 25 m spacing);
- :mod:`repro.scenario.ship` — intruding-ship tracks;
- :mod:`repro.scenario.synthesis` — per-buoy accelerometer traces
  (ambient field + Kelvin wakes + disturbances through buoy and sensor
  models);
- :mod:`repro.scenario.runner` — offline (radio-less) and networked
  scenario execution;
- :mod:`repro.scenario.metrics` — alarm precision against ground truth;
- :mod:`repro.scenario.presets` — the canonical paper configurations.
"""

from repro.scenario.coverage import (
    BarrierAnalysis,
    BarrierResult,
    detection_radius_m,
)
from repro.scenario.deployment import DeployedNode, GridDeployment
from repro.scenario.metrics import ClassifiedAlarms, classify_alarms
from repro.scenario.presets import (
    paper_deployment,
    paper_scenario,
    paper_ship,
)
from repro.scenario.runner import (
    DutyCycledScenarioResult,
    NetworkScenarioResult,
    OfflineScenarioResult,
    run_dutycycled_scenario,
    run_network_scenario,
    run_offline_scenario,
)
from repro.scenario.ship import ShipTrack
from repro.scenario.streaming import (
    StreamingFleetSynthesizer,
    run_streaming_scenario,
)
from repro.scenario.synthesis import SynthesisConfig, synthesize_fleet_traces
from repro.scenario.trace_io import (
    detect_on_trace,
    export_csv,
    import_csv,
    load_traces,
    save_traces,
)

__all__ = [
    "BarrierAnalysis",
    "BarrierResult",
    "ClassifiedAlarms",
    "DeployedNode",
    "DutyCycledScenarioResult",
    "GridDeployment",
    "NetworkScenarioResult",
    "OfflineScenarioResult",
    "ShipTrack",
    "StreamingFleetSynthesizer",
    "SynthesisConfig",
    "classify_alarms",
    "detect_on_trace",
    "detection_radius_m",
    "paper_deployment",
    "paper_scenario",
    "paper_ship",
    "run_dutycycled_scenario",
    "run_network_scenario",
    "run_offline_scenario",
    "run_streaming_scenario",
    "export_csv",
    "import_csv",
    "load_traces",
    "save_traces",
    "synthesize_fleet_traces",
]
