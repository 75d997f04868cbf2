"""Typed run configuration: one validated artifact for all three planes.

The functional SCF, the DES replay, the analytic models, the planner
and the CLI all answer "which configuration?"; this module is the
single point of truth they share:

* :class:`ProblemSpec` — *what* is computed: grid shape/spacing/pbc/dtype
  and the number of grids (wave functions).
* :class:`LayoutSpec` — *how* it is laid out: approach, core count, batch
  size, band groups, ramp-up.
* :class:`RuntimeSpec` — SCF loop knobs: tolerance, iteration caps,
  mixing, XC, seed, checkpoint cadence.
* :class:`JobSpec` — the composition; every field validated exactly once
  (through :mod:`repro.util.validation`), losslessly serializable via
  :meth:`JobSpec.to_dict` / :meth:`JobSpec.from_dict`, identified by a
  stable :meth:`JobSpec.config_hash`.

Checkpoints embed the serialized spec; a restart whose spec cannot
reconstruct the exact run raises :class:`SpecMismatchError` (a
``ValueError``, so legacy ``pytest.raises(ValueError)`` call sites keep
working).  The CLI builds its shared option block from :data:`CLI_KNOBS`
— one place to add a knob.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields, replace

from repro.core.approaches import Approach, approach_by_name
from repro.grid.grid import GridDescriptor
from repro.util.validation import (
    check_divisible,
    check_in,
    check_nonnegative,
    check_positive_int,
    check_shape3,
)

__all__ = [
    "SPEC_VERSION",
    "CLI_KNOBS",
    "ProblemSpec",
    "LayoutSpec",
    "RuntimeSpec",
    "JobSpec",
    "SpecMismatchError",
    "check_restart_compatible",
]

#: bump when the serialized layout changes incompatibly
SPEC_VERSION = 1


class SpecMismatchError(ValueError):
    """A checkpoint's embedded :class:`JobSpec` cannot restart this run.

    Subclasses :class:`ValueError` so existing ``pytest.raises(ValueError,
    match="does not match")`` call sites keep passing; :attr:`mismatches`
    lists every differing field as ``"section.field: saved X, current Y"``.
    """

    def __init__(self, mismatches: list[str] | tuple[str, ...]):
        self.mismatches = tuple(mismatches)
        super().__init__(
            "checkpoint JobSpec does not match this run: "
            + "; ".join(self.mismatches)
        )


@dataclass(frozen=True)
class ProblemSpec:
    """What is computed: the grid geometry and the number of grids.

    ``n_grids`` is the wave-function (band) count — the paper's ``G``.
    """

    shape: tuple[int, int, int]
    n_grids: int
    pbc: tuple[bool, bool, bool] = (True, True, True)
    spacing: float = 0.2
    dtype: str = "float64"

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", check_shape3(self.shape, "shape"))
        check_positive_int(self.n_grids, "n_grids")
        pbc = tuple(bool(p) for p in self.pbc)
        if len(pbc) != 3:
            raise ValueError(f"pbc must have 3 entries, got {self.pbc!r}")
        object.__setattr__(self, "pbc", pbc)
        if not self.spacing > 0:
            raise ValueError(f"spacing must be > 0, got {self.spacing}")
        check_in(self.dtype, ("float64", "complex128"), "dtype")

    def grid(self) -> GridDescriptor:
        """The :class:`GridDescriptor` this problem runs on."""
        return GridDescriptor(
            self.shape, pbc=self.pbc, spacing=self.spacing, dtype=self.dtype
        )

    def fd_job(self):
        """The timing-plane :class:`~repro.core.perfmodel.FDJob`."""
        from repro.core.perfmodel import FDJob

        return FDJob(self.grid(), self.n_grids)

    @classmethod
    def from_grid(cls, grid: GridDescriptor, n_grids: int) -> "ProblemSpec":
        """Describe an existing descriptor (the ``from_spec`` inverse)."""
        return cls(
            shape=grid.shape,
            n_grids=n_grids,
            pbc=grid.pbc,
            spacing=grid.spacing,
            dtype=grid.dtype.name,
        )


@dataclass(frozen=True)
class LayoutSpec:
    """How the problem is laid out on the machine."""

    approach: str = "flat-optimized"
    n_cores: int = 1
    batch_size: int = 1
    n_band_groups: int = 1
    ramp_up: bool = False

    def __post_init__(self) -> None:
        a = approach_by_name(self.approach)  # raises on unknown names
        check_positive_int(self.n_cores, "n_cores")
        a.domains_for(self.n_cores)  # hybrid modes need whole nodes
        a.validate_batch_size(self.batch_size)
        check_positive_int(self.n_band_groups, "n_band_groups")
        object.__setattr__(self, "ramp_up", bool(self.ramp_up))


@dataclass(frozen=True)
class RuntimeSpec:
    """SCF-loop knobs shared by the sequential and distributed loops.

    ``eig_tol``/``eigensolver`` drive the sequential loop's inner
    eigensolver and ``checkpoint_keep`` the stores' retention window —
    former loose constructor arguments, now serialized with every other
    knob so a restarted run reconstructs them from the snapshot's
    embedded spec.  ``placement`` is the DES domain-to-rank strategy
    (``simulate_spec`` reads it when no explicit override is given) —
    the last formerly hard-coded constructor default.
    """

    tolerance: float = 1e-4
    max_iterations: int = 30
    band_iterations: int = 10
    mixing: float = 0.5
    xc: str = "none"
    seed: int = 0
    checkpoint_every: int = 1
    eig_tol: float = 1e-7
    eigensolver: str = "arpack"
    checkpoint_keep: int = 2
    placement: str = "auto"

    def __post_init__(self) -> None:
        check_nonnegative(self.tolerance, "tolerance")
        check_positive_int(self.max_iterations, "max_iterations")
        check_positive_int(self.band_iterations, "band_iterations")
        if not 0 < self.mixing <= 1:
            raise ValueError(f"mixing must be in (0, 1], got {self.mixing}")
        check_in(self.xc, ("none", "lda"), "xc")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise TypeError(f"seed must be an integer, got {self.seed!r}")
        check_positive_int(self.checkpoint_every, "checkpoint_every")
        check_nonnegative(self.eig_tol, "eig_tol")
        check_in(self.eigensolver, ("arpack", "rmm-diis"), "eigensolver")
        check_positive_int(self.checkpoint_keep, "checkpoint_keep")
        check_in(self.placement, ("auto", "cyclic", "spread"), "placement")


@dataclass(frozen=True)
class JobSpec:
    """One fully-specified run, validated once, serializable losslessly."""

    problem: ProblemSpec
    layout: LayoutSpec = field(default_factory=LayoutSpec)
    runtime: RuntimeSpec = field(default_factory=RuntimeSpec)

    def __post_init__(self) -> None:
        # Cross-section constraints: the band-group count must divide both
        # the grids and the cores — the same typed errors BandGroups
        # raises, but caught before any plane builds a layout.
        nb = self.layout.n_band_groups
        if nb > 1:
            check_divisible(self.problem.n_grids, nb, "n_grids", "band groups")
            check_divisible(self.layout.n_cores, nb, "n_cores", "band groups")

    # -- derived objects (the planes' native inputs) -----------------------
    def grid(self) -> GridDescriptor:
        return self.problem.grid()

    def approach_obj(self) -> Approach:
        return approach_by_name(self.layout.approach)

    def group_job(self):
        """The per-band-group FD job (``G/nb`` grids, same grid)."""
        from repro.core.perfmodel import FDJob

        return FDJob(self.grid(), self.problem.n_grids // self.layout.n_band_groups)

    @property
    def group_cores(self) -> int:
        """Cores of one band group's domain decomposition."""
        return self.layout.n_cores // self.layout.n_band_groups

    # -- copy helpers ------------------------------------------------------
    def with_runtime(self, **kwargs) -> "JobSpec":
        return replace(self, runtime=replace(self.runtime, **kwargs))

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON-types dict; :meth:`from_dict` round-trips exactly."""
        return {
            "version": SPEC_VERSION,
            "problem": {
                "shape": list(self.problem.shape),
                "n_grids": self.problem.n_grids,
                "pbc": list(self.problem.pbc),
                "spacing": self.problem.spacing,
                "dtype": self.problem.dtype,
            },
            "layout": {
                "approach": self.layout.approach,
                "n_cores": self.layout.n_cores,
                "batch_size": self.layout.batch_size,
                "n_band_groups": self.layout.n_band_groups,
                "ramp_up": self.layout.ramp_up,
            },
            "runtime": {
                "tolerance": self.runtime.tolerance,
                "max_iterations": self.runtime.max_iterations,
                "band_iterations": self.runtime.band_iterations,
                "mixing": self.runtime.mixing,
                "xc": self.runtime.xc,
                "seed": self.runtime.seed,
                "checkpoint_every": self.runtime.checkpoint_every,
                "eig_tol": self.runtime.eig_tol,
                "eigensolver": self.runtime.eigensolver,
                "checkpoint_keep": self.runtime.checkpoint_keep,
                "placement": self.runtime.placement,
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        """Rebuild a spec; unknown keys raise (version-skew detector).

        Missing keys fall back to the dataclass defaults so specs written
        by an older release still load — the one-way compatibility rule
        the checkpoint markers already follow.  The dict is input from
        outside the program (a checkpoint marker): a spec or section that
        is not a mapping, or a section that lacks a required field, is a
        ``ValueError`` naming it.
        """
        if not isinstance(data, dict):
            raise ValueError(f"JobSpec must be a mapping, got {type(data).__name__}")
        known_sections = {"version", "problem", "layout", "runtime"}
        unknown = set(data) - known_sections
        if unknown:
            raise ValueError(f"unknown JobSpec sections {sorted(unknown)}")
        if "problem" not in data:
            raise ValueError("JobSpec dict needs a 'problem' section")
        parts = {}
        for section, klass in (
            ("problem", ProblemSpec),
            ("layout", LayoutSpec),
            ("runtime", RuntimeSpec),
        ):
            payload = data.get(section, {})
            if not isinstance(payload, dict):
                raise ValueError(
                    f"JobSpec {section} section must be a mapping, "
                    f"got {type(payload).__name__}"
                )
            bad = set(payload) - {f.name for f in fields(klass)}
            if bad:
                raise ValueError(
                    f"unknown JobSpec {section} fields {sorted(bad)}"
                )
            missing = [
                f.name for f in fields(klass)
                if f.default is MISSING and f.default_factory is MISSING
                and f.name not in payload
            ]
            if missing:
                raise ValueError(f"JobSpec {section} section needs {missing}")
            payload = {
                key: tuple(value) if isinstance(value, list) else value
                for key, value in payload.items()
            }
            parts[section] = klass(**payload)
        return cls(**parts)

    def config_hash(self) -> str:
        """Stable short hash of the canonical serialization.

        Telemetry spans and exported traces carry this so any artifact
        can be traced back to the exact configuration that produced it.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def check_restart_compatible(current: JobSpec, saved: JobSpec) -> None:
    """Raise :class:`SpecMismatchError` unless ``saved`` can restart here.

    The problem section must match exactly (the checkpointed blocks *are*
    that problem's state).  The whole layout section may legitimately
    differ — ``n_cores`` is the shrink-recovery path and
    ``n_band_groups`` the regroup path, both handled by
    :func:`repro.dft.checkpoint.regroup_checkpoint` on resume.  Runtime
    knobs may change between attempts (e.g. a tighter tolerance on
    resume).
    """
    mismatches = []
    for f in fields(ProblemSpec):
        was, now = getattr(saved.problem, f.name), getattr(current.problem, f.name)
        if was != now:
            mismatches.append(f"problem.{f.name}: saved {was!r}, current {now!r}")
    if mismatches:
        raise SpecMismatchError(mismatches)


# -- the CLI's shared spec-building option block -------------------------------
def cli_type(check):
    """An argparse ``type=`` that parses with ``check(text)``.

    A ``ValueError`` from ``check`` becomes a usage error (exit status 2,
    one ``error:`` line) instead of a traceback from the command.
    """

    def parse(text: str):
        try:
            return check(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


#: argparse ``type=`` of a count option: an integer >= 1
cli_count = cli_type(lambda text: check_positive_int(int(text), "count"))


#: One row per JobSpec-backed CLI knob: name -> (option flags, argparse
#: kwargs builder taking the subcommand's default).  The CLI adds a knob
#: to a subcommand by naming it (with its default) in ``add_spec_cli`` —
#: one place to add a knob for every subcommand.
CLI_KNOBS = {
    "approach": (
        ("--approach",),
        lambda default: {
            "type": cli_type(lambda name: approach_by_name(name).name),
            "default": default,
            "help": (
                "approach name"
                + (f" (default {default})" if default else " (default: all)")
            ),
        },
    ),
    "cores": (
        ("--cores",),
        lambda default: {"type": cli_count, "default": default,
                         "help": f"CPU cores (default {default})"},
    ),
    "grids": (
        ("--grids",),
        lambda default: {"type": cli_count, "default": default,
                         "help": f"grids/bands (default {default})"},
    ),
    "batch_size": (
        ("--batch-size",),
        lambda default: {"type": cli_count, "default": default,
                         "help": f"grids per message batch (default {default})"},
    ),
    "shape": (
        ("--shape",),
        lambda default: {"type": cli_count, "nargs": 3, "default": list(default),
                         "metavar": ("NX", "NY", "NZ")},
    ),
    "ramp_up": (
        ("--ramp-up",),
        lambda default: {"action": "store_true"},
    ),
    "band_groups": (
        ("--band-groups",),
        lambda default: {"type": cli_count, "default": default,
                         "help": f"band groups nb (default {default})"},
    ),
}


def add_spec_cli(parser, defaults: dict) -> None:
    """Add the shared JobSpec-derived options to an argparse parser.

    ``defaults`` maps knob names (keys of :data:`CLI_KNOBS`) to the
    subcommand's default value; only the named knobs are added, in
    :data:`CLI_KNOBS` order so ``--help`` output is uniform.
    """
    unknown = set(defaults) - set(CLI_KNOBS)
    if unknown:
        raise ValueError(f"unknown spec CLI knobs {sorted(unknown)}")
    for name, (flags, kwargs) in CLI_KNOBS.items():
        if name in defaults:
            parser.add_argument(*flags, **kwargs(defaults[name]))


def spec_from_args(args, **overrides) -> JobSpec:
    """Build a :class:`JobSpec` from parsed shared options.

    Missing knobs take the dataclass defaults; ``overrides`` force
    layout fields (e.g. a positional ``approach``).
    """
    layout = {
        "approach": getattr(args, "approach", None) or "flat-optimized",
        "n_cores": getattr(args, "cores", 1),
        "batch_size": getattr(args, "batch_size", 1),
        "n_band_groups": getattr(args, "band_groups", 1),
        "ramp_up": getattr(args, "ramp_up", False),
    }
    layout.update(overrides)
    return JobSpec(
        problem=ProblemSpec(
            shape=tuple(args.shape), n_grids=getattr(args, "grids", 1)
        ),
        layout=LayoutSpec(**layout),
    )
