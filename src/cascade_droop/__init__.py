"""Quasi-static phasor simulation and small-signal analysis of series-cascaded
inverters under power-factor-angle droop control."""

from .droop import DroopParams, droop_frequency, power_factor_angle
from .engine import (
    GridEquilibrium,
    InverterState,
    IslandedEquilibrium,
    Mode,
    Scenario,
    SetInitialDelta,
    SetLine,
    SetLoad,
    SetMode,
    SetPfRef,
    SimulationResult,
    SystemConfig,
    TimedEvent,
    Trace,
    grid_equilibrium,
    islanded_equilibrium,
    simulate,
    synchronized_grid_power,
)
from .errors import (
    AsymmetricMatrixError,
    DegeneratePointError,
    EmptyTraceError,
    NoRootError,
    ScenarioParseError,
    SimulationError,
    SingularImpedanceError,
    ValidationError,
    ZeroPowerError,
)
from .linearization import (
    GridLinearization,
    LinearModel,
    Stability,
    grid_ab,
    grid_jacobian,
    islanded_jacobian,
    numeric_eigenvalues,
    stability_condition,
)
from .phasors import (
    Impedance,
    Phasor,
    PowerPair,
    generalized_load,
    grid_power_flow,
    islanded_power_flow,
    wrap_angle,
)
from .reports import SweepAxis, emit_trace_csv, report_stability
from .scenario_io import parse_scenario, serialize_scenario

__version__ = "0.1.0"
