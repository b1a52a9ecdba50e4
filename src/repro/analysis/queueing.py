"""Closed-form queueing results used to validate the simulator.

The DES kernel's credibility rests on matching theory where theory
exists. This module provides the standard results — M/M/1, M/M/c
(Erlang C), and egalitarian processor sharing — which
``tests/validation`` checks the simulation against.
"""

from __future__ import annotations


def mm1_mean_wait(arrival_rate: float, service_rate: float) -> float:
    """Mean time in queue (excluding service) for an M/M/1 system."""
    if arrival_rate <= 0 or service_rate <= 0:
        raise ValueError("rates must be positive")
    rho = arrival_rate / service_rate
    if rho >= 1.0:
        raise ValueError(f"unstable system (rho={rho:.3f})")
    return rho / (service_rate - arrival_rate)


def mm1_mean_number_in_system(arrival_rate: float, service_rate: float) -> float:
    """Mean number of jobs in an M/M/1 system (queue + service)."""
    rho = arrival_rate / service_rate
    if rho >= 1.0:
        raise ValueError(f"unstable system (rho={rho:.3f})")
    return rho / (1.0 - rho)


def erlang_c(servers: int, offered_load: float) -> float:
    """Probability an arrival waits in an M/M/c queue (Erlang C formula).

    ``offered_load`` is a = λ/μ in Erlangs; requires a < c for stability.
    """
    if servers < 1:
        raise ValueError("servers must be >= 1")
    if offered_load <= 0:
        raise ValueError("offered load must be positive")
    if offered_load >= servers:
        raise ValueError(
            f"unstable system (load {offered_load:.2f} >= servers {servers})"
        )
    # Sum a^k/k! for k < c, computed iteratively for stability.
    term = 1.0
    total = 1.0
    for k in range(1, servers):
        term *= offered_load / k
        total += term
    top = term * offered_load / servers  # a^c / c!
    rho = offered_load / servers
    return (top / (1.0 - rho)) / (total + top / (1.0 - rho))


def mmc_mean_wait(arrival_rate: float, service_rate: float, servers: int) -> float:
    """Mean queueing delay (excluding service) for M/M/c."""
    offered = arrival_rate / service_rate
    wait_probability = erlang_c(servers, offered)
    return wait_probability / (servers * service_rate - arrival_rate)


def processor_sharing_mean_response(
    arrival_rate: float, mean_size: float, capacity: float
) -> float:
    """Mean response time of an M/G/1 egalitarian processor-sharing queue.

    PS response depends only on the mean job size: T = x̄ / (C (1 - ρ)).
    This is the theory behind :class:`~repro.storage.bandwidth.FairShareLink`.
    """
    if capacity <= 0 or mean_size <= 0 or arrival_rate <= 0:
        raise ValueError("all parameters must be positive")
    rho = arrival_rate * mean_size / capacity
    if rho >= 1.0:
        raise ValueError(f"unstable system (rho={rho:.3f})")
    return (mean_size / capacity) / (1.0 - rho)


def utilization(arrival_rate: float, service_rate: float, servers: int = 1) -> float:
    """Offered utilization ρ = λ/(cμ)."""
    if servers < 1 or service_rate <= 0:
        raise ValueError("bad parameters")
    return arrival_rate / (servers * service_rate)
