"""Experiment configuration: one INI-style file, strictly validated.

Sections mirror the CLI subcommands plus shared [problem], [solver], and
[output] blocks.  Unknown sections or keys are rejected, values are
re-validated through the owning dataclasses at parse time, and parser
errors surface with their line numbers.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Callable, Optional, get_args, get_origin, get_type_hints

from .capacity import check_resolution
from .errors import ConfigError
from .geometry import ProblemSpec
from .solver import SolverConfig
from .sources import SOURCE_NAMES


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text.strip()!r}")
    return value


def _parser_for(hint) -> Callable[[str], object]:
    """Text parser for a field type: scalars, Optional[...] and tuple[T, ...].

    Floats must be finite; Optional fields read an empty value as None;
    tuples take comma- or space-separated items.
    """
    if hint is bool:
        return _parse_bool
    if hint is float:
        return _parse_finite
    if hint in (int, str):
        return hint
    args = get_args(hint)
    if get_origin(hint) is tuple:
        item = _parser_for(args[0])
        return lambda text: tuple(item(x) for x in text.replace(",", " ").split())
    if type(None) in args:
        (inner,) = [a for a in args if a is not type(None)]
        parse = _parser_for(inner)
        return lambda text: None if text.strip() == "" else parse(text)
    raise TypeError(f"no config parser for field type {hint!r}")


def _check_nodes(value: int, key: str = "nodes_per_side") -> None:
    if value < 3:
        raise ValueError(f"{key} must be >= 3, got {value}")


@dataclass(frozen=True)
class SolveJob:
    nodes_per_side: int = 129
    source: str = "one"
    cracks_file: Optional[str] = None
    heatmap: bool = False

    def __post_init__(self):
        _check_nodes(self.nodes_per_side)
        if self.source not in SOURCE_NAMES:
            raise ValueError(f"source must be one of {', '.join(SOURCE_NAMES)}, "
                             f"got {self.source!r}")


@dataclass(frozen=True)
class CapacitySweepJob:
    lengths: tuple[float, ...] = (0.02, 0.04, 0.08, 0.16, 0.32)
    resolution: int = 4
    box_half_width: Optional[float] = None
    slope_tolerance: float = 0.15

    def __post_init__(self):
        if len(self.lengths) < 3:
            raise ValueError("need at least 3 sweep lengths")
        if any(not (0 < t <= 1) for t in self.lengths):
            raise ValueError("sweep lengths must lie in (0, 1]")
        if self.slope_tolerance <= 0:
            raise ValueError("slope_tolerance must be positive")
        check_resolution(self.resolution)


@dataclass(frozen=True)
class VanishingJob:
    n_list: tuple[int, ...] = (1, 2, 4, 8)
    epsilon: float = 0.25
    length_penalty: float = 1.0
    local_nodes: Optional[int] = None
    capacity_resolution: int = 4
    divergence_samples: int = 0
    bound_safety: float = 1.5
    compare_baseline: bool = True
    baseline_nodes: int = 257

    def __post_init__(self):
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must lie in (0, 1)")
        if not self.n_list or any(n < 1 for n in self.n_list):
            raise ValueError("n_list must be a nonempty list of integers >= 1")
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ValueError(f"n_list must be strictly increasing, got "
                             f"{' '.join(map(str, self.n_list))}")
        if self.divergence_samples < 0:
            raise ValueError("divergence_samples must be >= 0")
        if self.bound_safety < 1:
            raise ValueError("bound_safety must be >= 1")
        check_resolution(self.capacity_resolution, "capacity_resolution")
        _check_nodes(self.baseline_nodes, "baseline_nodes")
        if self.local_nodes is not None:
            _check_nodes(self.local_nodes, "local_nodes")


@dataclass(frozen=True)
class PoincareJob:
    deltas: tuple[float, ...] = (0.5, 1.0, 2.0)
    relative_lengths: tuple[float, ...] = (0.25,)
    nodes_per_side: int = 65
    with_capacity: bool = True
    capacity_resolution: int = 8
    doubling_tolerance: float = 0.05

    def __post_init__(self):
        if any(d <= 0 for d in self.deltas):
            raise ValueError("deltas must be positive")
        if any(not (0 < a < 1) for a in self.relative_lengths):
            raise ValueError("relative_lengths must lie in (0, 1)")
        if self.doubling_tolerance <= 0:
            raise ValueError("doubling_tolerance must be positive")
        check_resolution(self.capacity_resolution, "capacity_resolution")
        _check_nodes(self.nodes_per_side)


@dataclass(frozen=True)
class StabilityJob:
    pairs: int = 10
    calibration: int = 5
    nodes_per_side: int = 65
    calibration_safety: float = 1.3
    truncation_levels: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

    def __post_init__(self):
        # pairs = 0 makes the whole command a no-op
        if self.pairs and not (0 < self.calibration < self.pairs):
            raise ValueError("need 0 < calibration < pairs")
        if self.calibration_safety < 1:
            raise ValueError("calibration_safety must be >= 1")
        _check_nodes(self.nodes_per_side)
        # the truncation check reads each bound against the level below it
        levels = self.truncation_levels
        if any(high <= low for low, high in zip(levels, levels[1:])):
            raise ValueError(f"truncation_levels must be strictly ascending, "
                             f"got {' '.join(f'{t:g}' for t in levels)}")


@dataclass(frozen=True)
class OutputSection:
    """The [output] section; ExperimentConfig keeps it as seed and out_dir."""
    seed: int = 0
    directory: str = "out"


@dataclass(frozen=True)
class ExperimentConfig:
    problem: ProblemSpec = field(default_factory=lambda: ProblemSpec(p=2.0))
    solver: SolverConfig = field(default_factory=SolverConfig)
    seed: int = 0
    out_dir: str = "out"
    solve: SolveJob = field(default_factory=SolveJob)
    capacity_sweep: CapacitySweepJob = field(default_factory=CapacitySweepJob)
    sweep_vanishing: VanishingJob = field(default_factory=VanishingJob)
    poincare: PoincareJob = field(default_factory=PoincareJob)
    stability: StabilityJob = field(default_factory=StabilityJob)


_SECTION_TYPES = {
    "problem": ProblemSpec,
    "solver": SolverConfig,
    "solve": SolveJob,
    "capacity-sweep": CapacitySweepJob,
    "sweep-vanishing": VanishingJob,
    "poincare": PoincareJob,
    "stability": StabilityJob,
    "output": OutputSection,
}


def _build_section(section: str, raw: dict[str, str]):
    cls = _SECTION_TYPES[section]
    hints = get_type_hints(cls)
    known = {f.name for f in fields(cls)}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
    for f in fields(cls):
        if (f.name not in raw and f.default is MISSING
                and f.default_factory is MISSING):
            raise ConfigError(f"missing key {f.name!r} in section [{section}]")
    kwargs = {}
    for key, text in raw.items():
        try:
            kwargs[key] = _parser_for(hints[key])(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r} in [{section}]: {exc}") from exc
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid [{section}] settings: {exc}") from exc


def config_from_text(text: str, origin: str = "<config>") -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                       comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        # configparser messages already cite line numbers
        raise ConfigError(f"could not parse {origin}: {exc}") from exc

    values = {}
    for section in parser.sections():
        if section not in _SECTION_TYPES:
            known = ", ".join(sorted(_SECTION_TYPES))
            raise ConfigError(f"unknown section [{section}]; expected one of: {known}")
        values[section.replace("-", "_")] = _build_section(
            section, dict(parser.items(section)))
    output = values.pop("output", OutputSection())
    config = ExperimentConfig(seed=output.seed, out_dir=output.directory, **values)
    p = config.problem.p
    try:
        config.solver.resolve_eps(p, 0.0)
    except ValueError as exc:
        raise ConfigError(f"invalid [solver] regularization_eps for [problem] p = {p:g}: "
                          f"{exc}") from exc
    return config


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_text(text, origin=str(path))
