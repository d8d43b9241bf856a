"""Correctness checks the round benchmark applies to every run."""

from __future__ import annotations

from repro.core.blocks import decompose_into_blocks
from repro.core.homomorphism import has_instance_homomorphism
from repro.core.instance import Instance
from repro.core.setting import PDESetting
from repro.solver.exists_solution import solve


def maps_into(left: Instance, right: Instance) -> bool:
    """Is there a constant-preserving homomorphism from ``left`` to ``right``?

    Tested block by block (Proposition 1): each block of ``left`` must map
    into ``right`` on its own.
    """
    return all(
        has_instance_homomorphism(block.facts, right)
        for block in decompose_into_blocks(left)
    )


def hom_equivalent(left: Instance, right: Instance) -> bool:
    """Homomorphic equivalence: each instance maps into the other."""
    return maps_into(left, right) and maps_into(right, left)


def matches_scratch_solve(
    setting: PDESetting, source: Instance, pinned: Instance, state: Instance
) -> str | None:
    """Compare a synced state with a from-scratch ``solve()`` of ``source``.

    Returns None when they agree, else the reason they do not.
    """
    result = solve(setting, source, pinned)
    if not result.exists or not result.decided:
        return f"scratch solve of the last snapshot found no solution ({result.reason})"
    if not hom_equivalent(state, result.solution):
        return (
            f"state ({len(state)} facts) is not hom-equivalent to the "
            f"scratch solution ({len(result.solution)} facts)"
        )
    return None
