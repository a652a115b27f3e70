"""Program registry: names for the first-class vertex programs.

``make_program`` is the seam the drivers, the CLI (``run --program``) and
:class:`~repro.runtime.context.DriverContext` share.  Concrete program
imports are lazy so importing this module (e.g. for name validation at
context construction) costs nothing and cannot participate in an import
cycle with :mod:`repro.kernels`.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.errors import ValidationError
from repro.programs.base import VertexProgram

__all__ = ["PROGRAMS", "make_program", "resolve_program", "validate_program_name"]

#: the first-class vertex programs, reference instance first
PROGRAMS: Tuple[str, ...] = ("pagerank", "katz", "kcore")


def validate_program_name(name: str) -> str:
    """Return ``name`` when registered; raise a uniform error otherwise."""
    if name not in PROGRAMS:
        raise ValidationError(
            f"unknown program {name!r}; expected one of {PROGRAMS}"
        )
    return name


def make_program(
    name: str,
    config=None,
    *,
    weighted: bool = False,
    katz_config=None,
) -> VertexProgram:
    """Construct the named program.

    ``config`` is the run's :class:`~repro.pagerank.config.PagerankConfig`
    — PageRank's solver parameters, and every gather-reduce program's
    propagation policy (edge path).
    ``katz_config`` optionally overrides the Katz parameters; ``weighted``
    applies only to PageRank.
    """
    validate_program_name(name)
    if weighted and name != "pagerank":
        raise ValidationError(
            f"weighted window solves apply only to pagerank, got {name!r}"
        )

    from repro.pagerank.config import PagerankConfig

    if config is None:
        config = PagerankConfig()

    if name == "pagerank":
        from repro.programs.pagerank import PagerankProgram

        return PagerankProgram(config=config, weighted=weighted)
    if name == "katz":
        from repro.kernels.katz import KatzConfig
        from repro.programs.katz import KatzProgram

        return KatzProgram(
            config=katz_config if katz_config is not None else KatzConfig(),
            routing=config,
        )

    from repro.programs.kcore import KCoreProgram

    return KCoreProgram()


def resolve_program(
    program: Union[None, str, VertexProgram],
    config=None,
    *,
    weighted: bool = False,
    katz_config=None,
) -> VertexProgram:
    """Normalize a driver's ``program`` argument to an instance.

    ``None`` means the reference program (PageRank); a string goes through
    :func:`make_program`; an instance passes through untouched.
    """
    if program is None:
        program = "pagerank"
    if isinstance(program, str):
        return make_program(
            program, config, weighted=weighted, katz_config=katz_config
        )
    if not isinstance(program, VertexProgram):
        raise ValidationError(
            "program must be a registered name or a VertexProgram, "
            f"got {type(program).__name__}"
        )
    if weighted and program.name != "pagerank":
        raise ValidationError(
            f"weighted window solves apply only to pagerank, "
            f"got {program.name!r}"
        )
    return program
