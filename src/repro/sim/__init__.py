"""``repro.sim`` — social-force trajectory simulator.

Synthetic stand-in for the paper's four datasets (ETH&UCY, L-CAS, SYI, SDD):
a Helbing–Molnár social-force model with four domain presets whose crowd
density, speed, and dominant motion axis reproduce the distribution shifts
of paper Table I.  ``docs/architecture.md`` §2 states the simulator's
invariants.
"""

# Break the sim <-> data import cycle: repro.sim.generator needs
# repro.data.trajectory, whose package __init__ pulls in repro.data.registry,
# which imports repro.sim.generator back.  Fully initializing repro.data
# first makes either package safe to import first.
import repro.data.trajectory  # noqa: F401  (import-order guard, see above)

from repro.sim.domains import DOMAIN_NAMES, DomainSpec, get_domain
from repro.sim.generator import generate_scenes, simulate_scene
from repro.sim.scenarios import (
    ConcourseScenario,
    CorridorScenario,
    IndoorScenario,
    PlazaScenario,
    Scenario,
    SpawnEvent,
)
from repro.sim.social_force import AgentBatch, SocialForceParams, Wall

__all__ = [
    "AgentBatch",
    "ConcourseScenario",
    "CorridorScenario",
    "DOMAIN_NAMES",
    "DomainSpec",
    "IndoorScenario",
    "PlazaScenario",
    "Scenario",
    "SocialForceParams",
    "SpawnEvent",
    "Wall",
    "generate_scenes",
    "get_domain",
    "simulate_scene",
]
