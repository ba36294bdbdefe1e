"""Frame efficiency of aggregated batched-network-coding packets.

Analytical model of throughput per byte for BNC packets aggregated over a
partial-checksum transport, an optimizer for the aggregation count, hop-wise
rank evolution on a line network, and seeded oracles that validate it all.
"""

from .frame import (
    AggregationContext,
    EfficiencyProfile,
    expected_rank_increment,
    frame_efficiency,
    frame_size,
    max_feasible_n,
    optimize_n,
)
from .network import HopRecord, HopTrace, NodeStrategy, simulate_line_network
from .oracle import (
    PeriodEstimate,
    TrialConfig,
    enumerate_period_exact,
    simulate_end_to_end,
    simulate_period,
)
from .params import (
    ChannelParams,
    CodeParams,
    EnumerationSizeError,
    InfeasibleError,
    ParameterError,
    PhaseError,
    RankDistribution,
)

__all__ = [
    "AggregationContext",
    "ChannelParams",
    "CodeParams",
    "EfficiencyProfile",
    "EnumerationSizeError",
    "HopRecord",
    "HopTrace",
    "InfeasibleError",
    "NodeStrategy",
    "ParameterError",
    "PeriodEstimate",
    "PhaseError",
    "RankDistribution",
    "TrialConfig",
    "enumerate_period_exact",
    "expected_rank_increment",
    "frame_efficiency",
    "frame_size",
    "max_feasible_n",
    "optimize_n",
    "simulate_end_to_end",
    "simulate_line_network",
    "simulate_period",
]

__version__ = "0.1.0"
