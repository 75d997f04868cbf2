"""Local padded arrays and scatter/gather between global and distributed form.

The functional engine works on :class:`LocalGrid` objects — one block of a
global grid, stored padded by the halo width.  ``scatter``/``gather`` move
whole grids between the two representations; they are the test oracle for
every distributed operation (scatter -> distributed op -> gather must equal
the sequential op).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.grid.decompose import Decomposition
from repro.grid.halo import HaloSpec


@dataclass
class LocalGrid:
    """One domain's padded block of one distributed grid."""

    decomp: Decomposition
    domain: int
    halo: HaloSpec
    data: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        block = self.decomp.block_shape(self.domain)
        expected = self.halo.padded_shape(block)
        if self.data is None:
            self.data = np.zeros(expected, dtype=self.decomp.grid.dtype)
        elif tuple(self.data.shape) != expected:
            raise ValueError(
                f"padded array shape {self.data.shape} does not match "
                f"block {block} + halo {self.halo.width} = {expected}"
            )

    @property
    def interior(self) -> np.ndarray:
        """View of the block without ghost shells (writable)."""
        return self.data[self.halo.interior(self.data.shape)]

    def fill_from_global(self, global_array: np.ndarray) -> None:
        """Copy this domain's block out of a global array."""
        self.decomp.grid.check_array(global_array, "global_array")
        self.interior[...] = global_array[self.decomp.block_slices(self.domain)]

    def add_to_global(self, global_array: np.ndarray) -> None:
        """Write this domain's block into a global array."""
        self.decomp.grid.check_array(global_array, "global_array")
        global_array[self.decomp.block_slices(self.domain)] = self.interior


def scatter(
    global_array: np.ndarray, decomp: Decomposition, halo: HaloSpec
) -> list[LocalGrid]:
    """Split a global array into per-domain padded blocks."""
    decomp.grid.check_array(global_array, "global_array")
    out = []
    for domain in range(decomp.n_domains):
        lg = LocalGrid(decomp, domain, halo)
        lg.fill_from_global(global_array)
        out.append(lg)
    return out


def gather(locals_: Sequence[LocalGrid]) -> np.ndarray:
    """Reassemble a global array from all domains' blocks."""
    if not locals_:
        raise ValueError("gather() needs at least one LocalGrid")
    decomp = locals_[0].decomp
    if len(locals_) != decomp.n_domains:
        raise ValueError(
            f"gather() needs all {decomp.n_domains} domains, got {len(locals_)}"
        )
    seen = {lg.domain for lg in locals_}
    if seen != set(range(decomp.n_domains)):
        raise ValueError("gather() requires exactly one LocalGrid per domain")
    out = decomp.grid.empty()
    for lg in locals_:
        lg.add_to_global(out)
    return out
