"""Workload simulation: the student population and course dynamics.

Table I and Figure 1 of the paper are *workload* artifacts — they
describe what ~36k registered MOOC students did over a 9.5-week
offering. This package models that population:

* :mod:`repro.simulate.des` — a discrete-event simulation core;
* :mod:`repro.simulate.students` — per-student behaviour: engagement,
  weekly drop-out, deadline-driven weekly activity spikes (Thursday
  deadline ⇒ Wednesday rush), diurnal rhythm;
* :mod:`repro.simulate.funnel` — the enrollment → completion →
  certificate funnel (Table I);
* :mod:`repro.simulate.scenarios` — calibrated offerings: HPP
  2013/2014/2015 (from the paper's published numbers), ECE 408, PUMPS;
* :mod:`repro.simulate.workload` — active students → job arrivals →
  queueing at a worker fleet (drives the scaling benchmarks);
* :mod:`repro.simulate.metrics` — time series and summary helpers.
"""

from repro.simulate.des import Event, SimClock, Simulator
from repro.simulate.metrics import HourlySeries, weekly_profile
from repro.simulate.students import PopulationParams, StudentPopulation
from repro.simulate.funnel import FunnelResult, simulate_funnel
from repro.simulate.scenarios import (
    ECE408_2015,
    HPP_2013,
    HPP_2014,
    HPP_2015,
    PUMPS_2015,
    OfferingScenario,
)
from repro.simulate.workload import (
    FleetSimResult,
    simulate_fleet,
    jobs_from_activity,
)
from repro.simulate.replay import ReplayStats, replay_cohort

__all__ = [
    "ECE408_2015",
    "Event",
    "FleetSimResult",
    "FunnelResult",
    "HPP_2013",
    "HPP_2014",
    "HPP_2015",
    "HourlySeries",
    "OfferingScenario",
    "PUMPS_2015",
    "PopulationParams",
    "ReplayStats",
    "SimClock",
    "Simulator",
    "StudentPopulation",
    "jobs_from_activity",
    "replay_cohort",
    "simulate_fleet",
    "simulate_funnel",
    "weekly_profile",
]
