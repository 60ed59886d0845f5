"""Stratification of the singular locus and the bundled local-model report.

One stratum per decomposition of n into positive roots, of dimension
2 sum_j p(beta^(j)); the trivial decomposition is the open stratum of
dimension 2p(n). Each record cross-checks the lattice/quiver identity
v(beta)^2 = d(beta) part by part and carries the associated wall when the
decomposition is a two-part or single-root one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .errors import MathAssertionError
from .lattice import CurveConfig, MukaiVector, mukai_square
from .quiver import (
    Decomposition,
    DimVector,
    Quiver,
    SimpleExistence,
    d_form,
    mu_zero_expected_dim,
    p_of,
)
from .walls import LocalModel


@dataclass(frozen=True)
class StratumPart:
    beta: DimVector
    mukai: MukaiVector
    p: int
    is_root: bool
    simple_exists: bool


@dataclass(frozen=True)
class StratumRecord:
    decomposition: Decomposition
    dim: int
    ambient_dim: int
    parts: tuple[StratumPart, ...]
    is_open_stratum: bool
    wall_normal: DimVector | None


def _wall_for(decomp: Decomposition, sourcemap: dict[DimVector, DimVector]) -> DimVector | None:
    parts = decomp.parts
    if len(parts) == 2 or (len(parts) == 1 and parts[0][0] > 1):
        return sourcemap.get(parts[0][1])
    return None


def strata_report(cfg: CurveConfig) -> list[StratumRecord]:
    """One record per decomposition, open stratum first, each part carrying
    its Mukai vector, p-value, root verdict and local simple-existence."""
    return _strata(LocalModel(cfg))


def _strata(model: LocalModel) -> list[StratumRecord]:
    """``strata_report`` of the model's configuration."""
    cfg, q, n = model.cfg, model.quiver, model.n
    ambient = 2 * p_of(q, n)
    sourcemap = {src: w.normal for w in model.quiver_walls for src in w.sources}
    simple_at_n = model.simple_exists(n).exists

    @lru_cache(maxsize=None)
    def part(beta: DimVector) -> StratumPart:
        """One record per distinct root, shared by every decomposition."""
        # v(beta) built directly: ``vector_of_beta`` would warn on every
        # part whose gcd with its Euler characteristic is > 1
        v = MukaiVector(0, beta, sum(map(mul, beta, cfg.chi)))
        if mukai_square(v, cfg) != d_form(q, beta):
            raise MathAssertionError(
                f"v(beta)^2 != d(beta) for beta={beta}: lattice/quiver data out of sync"
            )
        return StratumPart(
            beta,
            v,
            p_of(q, beta),
            True,  # every part is one of model.roots_upto, all positive roots
            model.simple_exists(beta).exists,
        )

    records = []
    for dec in model.decompositions:
        parts = tuple(part(beta) for _, beta in dec.parts)
        dim = sum(2 * pt.p for pt in parts)
        trivial = dec.is_trivial(n)
        # the ambient bound 2 sum p(beta) <= 2p(n) is a theorem only when
        # the simple-existence criterion holds at n (the open stratum is
        # then dense); without it the moduli can be larger than 2p(n)
        if simple_at_n and (dim > ambient or (dim == ambient and not trivial)):
            raise MathAssertionError(
                f"stratum dimension {dim} exceeds ambient {ambient} for {dec.parts}"
            )
        records.append(
            StratumRecord(dec, dim, ambient, parts, trivial, _wall_for(dec, sourcemap))
        )
    return records


@dataclass(frozen=True)
class ModelSummary:
    """The computable shadow of the local model at the singular point."""

    config: CurveConfig
    quiver: Quiver
    n: DimVector
    d_of_n: int
    p_of_n: int
    sheaf_side_dim: int  # dim M_{H_0}(v) = 2p(n)
    mu_zero_dim: int  # dim mu^-1(0) = 2p(n) + n.n - 1
    primitivity_gcd: int
    simple: SimpleExistence
    roots_count: int
    quiver_wall_count: int
    ample_wall_count: int
    chamber_count: int | None
    chamber_representatives: tuple
    strata: tuple[StratumRecord, ...]
    notes: tuple[str, ...]


def singular_model_summary(cfg: CurveConfig) -> ModelSummary:
    """Aggregate the lattice, quiver, wall and strata outputs in one record.

    Also asserts the agreement of the wall systems on the two sides.
    """
    model = LocalModel(cfg)
    q, n = model.quiver, model.n
    notes = []
    awalls = model.ample_walls
    chamber_count: int | None
    reps: tuple = ()
    chambers = model.chambers
    if chambers is None:
        chamber_count = None
        notes.append(
            "non-primitive one-vertex case; no adjacent-chamber resolution structure"
        )
    else:
        chamber_count = chambers.count
        reps = chambers.representatives
    gcd = cfg.primitivity_gcd()
    if gcd > 1:
        notes.append(f"gcd proxy {gcd} > 1: Mukai vector may be non-primitive")
    notes.append(
        "strata are open subsets of finite quotients of products of the part moduli;"
        " the quotient groups are not computed"
    )
    return ModelSummary(
        config=cfg,
        quiver=q,
        n=n,
        d_of_n=d_form(q, n),
        p_of_n=p_of(q, n),
        sheaf_side_dim=2 * p_of(q, n),
        mu_zero_dim=mu_zero_expected_dim(q, n),
        primitivity_gcd=gcd,
        simple=model.simple_exists(n),
        roots_count=len(model.roots),
        quiver_wall_count=len(model.quiver_walls),
        ample_wall_count=len(awalls),
        chamber_count=chamber_count,
        chamber_representatives=reps,
        strata=tuple(_strata(model)),
        notes=tuple(notes),
    )
