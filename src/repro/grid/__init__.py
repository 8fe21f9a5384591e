"""Platform models: the measured Grid'5000 testbed and synthetic grids."""

from .builders import two_tier_grid
from .grid5000 import (
    GRID5000_RTT_MS,
    GRID5000_SITES,
    PAPER_N_PROCESSES,
    PAPER_NODES_PER_CLUSTER,
    grid5000_latency,
    grid5000_topology,
)

__all__ = [
    "GRID5000_SITES",
    "GRID5000_RTT_MS",
    "PAPER_NODES_PER_CLUSTER",
    "PAPER_N_PROCESSES",
    "grid5000_topology",
    "grid5000_latency",
    "two_tier_grid",
]
