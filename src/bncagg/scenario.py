"""Scenario configuration for the command line tools.

A scenario bundles the byte layout, the code parameters, the loss rates and
the run controls.  Values come from built-in defaults, then an optional INI
style config file, then command line flags, in that order; the merged values
are checked once, when the ``ScenarioConfig`` is built.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields

from .frame import AggregationContext
from .network import NodeStrategy
from .params import CHECKSUM, FEC, ChannelParams, CodeParams, ParameterError, RankDistribution
from .params import nonnegative_int, positive_int

BOTH = "both"

DEFAULT_PLRS = (0.10, 0.20)
DEFAULT_STRATEGIES = ("optimal", "largest", "fixed:1")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a command needs to build contexts and run."""

    mtu: int = 9000
    proto_header: int = 28
    dl_header: int = 22
    dl_trailer: int = 4
    batch_size: int = 4
    payload: int = 256
    bnc_header: int | None = None  # None -> batch_size + 2
    integrity: str = CHECKSUM  # checksum | fec | both
    checksum_bytes: int = 2
    fec_bytes: int = 3
    plrs: tuple[float, ...] = DEFAULT_PLRS
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES
    hops: int = 10
    rank_dist: str = "binomial:0.8"
    seed: int = 20240901
    trials: int = 100_000
    mc: bool = False

    def __post_init__(self) -> None:
        positive_int(self.trials, "trials")
        nonnegative_int(self.seed, "seed")
        positive_int(self.hops, "hops")
        if not self.plrs:
            raise ParameterError("plrs must name at least one PLR")
        if not self.strategies:
            raise ParameterError("strategies must name at least one strategy")
        # The parameter types check the byte sizes, the PLR range, the
        # integrity mode and the rank distribution against the batch size.
        for plr in self.plrs:
            self.channel(plr)
        for mode in self.modes():
            self.code(mode)
        self.rank_distribution()

    def channel(self, plr: float) -> ChannelParams:
        return ChannelParams(
            max_payload=self.mtu,
            proto_header=self.proto_header,
            dl_header=self.dl_header,
            dl_trailer=self.dl_trailer,
            baseline_plr=plr,
        )

    def code(self, mode: str) -> CodeParams:
        header = self.bnc_header
        if header is None:
            header = self.batch_size + 2
        return CodeParams(
            batch_size=self.batch_size,
            payload=self.payload,
            bnc_header=header,
            integrity=self.checksum_bytes if mode == CHECKSUM else self.fec_bytes,
            integrity_mode=mode,
        )

    def modes(self) -> tuple[str, ...]:
        if self.integrity == BOTH:
            return (CHECKSUM, FEC)
        return (self.integrity,)

    def rank_distribution(self) -> RankDistribution:
        return parse_rank_dist(self.rank_dist, self.batch_size)

    def context(self, plr: float, mode: str) -> AggregationContext:
        return AggregationContext.build(
            self.channel(plr), self.code(mode), self.rank_distribution()
        )

    def node_strategies(self) -> tuple[NodeStrategy, ...]:
        return tuple(parse_strategy(s) for s in self.strategies)


def parse_strategy(text: str) -> NodeStrategy:
    if text == "optimal":
        return NodeStrategy.optimal()
    if text == "largest":
        return NodeStrategy.largest()
    if text.startswith("fixed:"):
        try:
            return NodeStrategy.fixed(int(text.split(":", 1)[1]))
        except ValueError as exc:
            raise ParameterError(f"bad fixed strategy {text!r}") from exc
    raise ParameterError(
        f"unknown strategy {text!r}; expected optimal, largest or fixed:<n>"
    )


def parse_rank_dist(text: str, batch_size: int) -> RankDistribution:
    if text == "degenerate":
        return RankDistribution.degenerate(batch_size)
    if text.startswith("binomial:"):
        try:
            rho = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise ParameterError(f"bad rank distribution {text!r}") from exc
        return RankDistribution.truncated_binomial(batch_size, rho)
    if text.startswith("explicit:"):
        try:
            masses = [float(v) for v in text.split(":", 1)[1].split(",")]
        except ValueError as exc:
            raise ParameterError(f"bad rank distribution {text!r}") from exc
        if len(masses) != batch_size:
            raise ParameterError(
                f"explicit rank distribution needs {batch_size} masses,"
                f" got {len(masses)}"
            )
        return RankDistribution.from_masses(masses)
    raise ParameterError(
        f"unknown rank distribution {text!r};"
        " expected degenerate, binomial:<rho> or explicit:<m1,...>"
    )


# An INI key that names a field takes its type (the annotations are strings).
_FIELD_TYPES = {field.name: field.type for field in fields(ScenarioConfig)}
_INT_KEYS = {key for key, kind in _FIELD_TYPES.items() if kind in ("int", "int | None")}
_STR_KEYS = {key for key, kind in _FIELD_TYPES.items() if kind == "str"}


def read_config_file(path: str) -> dict:
    """The ``ScenarioConfig`` fields an INI file sets ([channel], [code], [run])."""
    parser = configparser.ConfigParser()
    bad = f"bad config file {path!r}:"
    try:
        if not parser.read(path):
            raise ParameterError(f"cannot read config file {path!r}")
        entries = {section: parser.items(section) for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        detail = " ".join(str(exc).split())  # configparser's messages span lines
        raise ParameterError(f"{bad} {detail}") from exc
    if parser.defaults():  # configparser would copy them into every section
        raise ParameterError(f"{bad} [DEFAULT] sets {', '.join(parser.defaults())}")
    updates: dict = {}
    seen: dict = {}  # the section that set each key
    for section, items in entries.items():
        if section not in ("channel", "code", "run"):
            raise ParameterError(f"unknown config section [{section}]")
        for key, raw in items:
            if key not in _INT_KEYS | _STR_KEYS | {"plr", "strategy", "mc"}:
                raise ParameterError(f"unknown config key {key!r} in [{section}]")
            if key in seen:  # configparser would keep the last
                raise ParameterError(f"{bad} {key!r} set in [{seen[key]}] and [{section}]")
            seen[key] = section
            try:
                if key in _INT_KEYS:
                    updates[key] = int(raw)
                elif key in _STR_KEYS:
                    updates[key] = raw.strip()
                elif key == "plr":
                    updates["plrs"] = tuple(float(v) for v in raw.split(","))
                elif key == "strategy":
                    updates["strategies"] = tuple(
                        v.strip() for v in raw.split(",") if v.strip()
                    )
                else:
                    updates["mc"] = parser.getboolean(section, key)
            except ValueError as exc:
                raise ParameterError(
                    f"bad value {raw!r} for {key!r} in [{section}]"
                ) from exc
    return updates
