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
from .network import (
    HopRecord,
    HopTrace,
    NodeStrategy,
    aggregate_reception_pmf,
    batch_reception_distribution,
    evolve_rank_distribution,
    simulate_line_network,
)
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
from .probability import (
    baseline_plr_from_ber,
    ber_from_plr,
    bin_d_pmf,
    binom_pmf,
    bnc_packet_survival,
    header_survival,
)
from .reference import beta, beta_prime, gamma, gamma_prime, omega

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
    "aggregate_reception_pmf",
    "baseline_plr_from_ber",
    "batch_reception_distribution",
    "ber_from_plr",
    "beta",
    "beta_prime",
    "bin_d_pmf",
    "binom_pmf",
    "bnc_packet_survival",
    "enumerate_period_exact",
    "evolve_rank_distribution",
    "expected_rank_increment",
    "frame_efficiency",
    "frame_size",
    "gamma",
    "gamma_prime",
    "header_survival",
    "max_feasible_n",
    "omega",
    "optimize_n",
    "simulate_end_to_end",
    "simulate_line_network",
    "simulate_period",
]

__version__ = "0.1.0"
