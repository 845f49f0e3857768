"""Domain presets: the four synthetic stand-ins for the paper's datasets.

Each :class:`DomainSpec` bundles a scenario geometry, social-force physics,
and crowding parameters, calibrated so the generated data reproduces the
*relative* statistics of paper Table I (``docs/reproducing.md`` gives the
command that regenerates them):

============  =========  ==============  ======================  =============
preset        mimics     crowd density   dominant motion         speed regime
============  =========  ==============  ======================  =============
``eth_ucy``   ETH&UCY    medium (~9)     horizontal corridor     ~0.75 m/s
``lcas``      L-CAS      low (~8)        wandering, indoor       ~0.28 m/s
``syi``       SYI        high (~35)      vertical concourse      ~2.9 m/s
``sdd``       SDD        med-high (~18)  all directions + bikes  mixed
============  =========  ==============  ======================  =============
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.scenarios import (
    ConcourseScenario,
    CorridorScenario,
    IndoorScenario,
    PlazaScenario,
    Scenario,
)
from repro.sim.social_force import SocialForceParams

__all__ = ["DOMAIN_NAMES", "DomainSpec", "get_domain"]


@dataclass
class DomainSpec:
    """Full description of one synthetic domain."""

    name: str
    scenario: Scenario
    params: SocialForceParams
    target_population: float  # mean number of concurrently active agents
    frame_dt: float = 0.4  # output frame interval (paper: 0.4 s)
    substeps: int = 4  # physics steps per output frame
    spawn_rate_scale: float = 1.0  # empirical correction to hit target_population

    @property
    def physics_dt(self) -> float:
        return self.frame_dt / self.substeps

    def spawn_rate(self) -> float:
        """Expected spawns per physics step to hold the target population.

        With mean trip duration ``T`` seconds, population ``P`` needs a spawn
        rate of ``P / T`` per second.  Trip duration is estimated from the
        scenario diagonal and mean speed; ``spawn_rate_scale`` corrects for
        scenario-specific trip-length bias (calibrated in
        ``tests/sim/test_domains.py`` against the Table I density targets).
        """
        travel_distance = 0.7 * (self.scenario.width + self.scenario.height) / 2.0
        trip_seconds = max(travel_distance / max(self.scenario.speed_mean, 0.05), 1.0)
        per_second = self.target_population / trip_seconds
        return per_second * self.physics_dt * self.spawn_rate_scale


def _eth_ucy() -> DomainSpec:
    return DomainSpec(
        name="eth_ucy",
        scenario=CorridorScenario(),
        params=SocialForceParams(
            tau=0.5,
            repulsion_strength=1.5,
            repulsion_range=0.5,
            anisotropy=0.25,
            noise_std=0.12,
            max_speed=2.5,
        ),
        target_population=9.0,
        spawn_rate_scale=0.45,
    )


def _lcas() -> DomainSpec:
    return DomainSpec(
        name="lcas",
        scenario=IndoorScenario(),
        params=SocialForceParams(
            tau=0.8,
            repulsion_strength=1.0,
            repulsion_range=0.4,
            anisotropy=0.4,
            noise_std=0.05,
            max_speed=1.2,
        ),
        target_population=8.0,
        spawn_rate_scale=1.0,
    )


def _syi() -> DomainSpec:
    return DomainSpec(
        name="syi",
        scenario=ConcourseScenario(),
        params=SocialForceParams(
            tau=0.4,
            repulsion_strength=2.5,
            repulsion_range=0.45,
            anisotropy=0.2,
            noise_std=0.25,
            max_speed=4.5,
        ),
        target_population=35.0,
        spawn_rate_scale=0.62,
    )


def _sdd() -> DomainSpec:
    return DomainSpec(
        name="sdd",
        scenario=PlazaScenario(),
        params=SocialForceParams(
            tau=0.6,
            repulsion_strength=1.8,
            repulsion_range=0.5,
            anisotropy=0.3,
            noise_std=0.15,
            max_speed=5.5,
        ),
        target_population=18.0,
        spawn_rate_scale=1.6,
    )


_FACTORIES = {
    "eth_ucy": _eth_ucy,
    "lcas": _lcas,
    "syi": _syi,
    "sdd": _sdd,
}

#: Canonical domain ordering used throughout the experiments.
DOMAIN_NAMES: tuple[str, ...] = ("eth_ucy", "lcas", "syi", "sdd")


def get_domain(name: str) -> DomainSpec:
    """Return a fresh :class:`DomainSpec` for ``name``.

    >>> get_domain("syi").target_population
    35.0
    """
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown domain {name!r}; available: {sorted(_FACTORIES)}"
        ) from None
