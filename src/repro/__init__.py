"""Reproduction of AdapTraj (ICDE 2024).

AdapTraj is a multi-source domain-generalization framework for multi-agent
trajectory prediction.  This package implements the full system from scratch
on numpy: the autodiff/NN substrate (:mod:`repro.nn`), a social-force
trajectory simulator standing in for the ETH&UCY / L-CAS / SYI / SDD datasets
(:mod:`repro.sim`), the data pipeline (:mod:`repro.data`), the PECNet and
LBEBM backbones (:mod:`repro.models`), the AdapTraj framework itself
(:mod:`repro.core`), the Counter / CausalMotion baselines
(:mod:`repro.baselines`), ADE/FDE metrics (:mod:`repro.metrics`), the
experiment harness regenerating every table and figure of the paper
(:mod:`repro.experiments`), and the online serving engine — model registry,
micro-batching, streaming windows (:mod:`repro.serve`).

See ``docs/architecture.md`` for the system inventory and its invariants,
and ``docs/reproducing.md`` for regenerating the paper's tables and figures.
"""

__version__ = "1.0.0"
