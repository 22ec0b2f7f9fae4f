"""Placement: assign netlist cells to FPGA sites.

A simple but real placer: a connectivity-driven greedy constructive pass
(place each cell at the free site minimizing the half-perimeter estimate
of its already-placed nets) followed by pairwise-swap improvement.  It is
deterministic given the seed, and good enough to produce channel routing
instances with realistic density profiles — the placer's quality is not
under test, the router is.

Both passes are incremental, and give the answers a from-scratch
re-measurement would, site for site:

* :func:`place_greedy` prices a candidate site against one precomputed
  bounding box per net of the cell — the box of that net's pins already
  placed on *other* cells — instead of re-measuring every net per site;
* :func:`improve_placement` keeps each net's half-perimeter and, per
  tried swap, re-measures only the two cells' nets from plain row and
  column maps.  Costs are integers, so a swap is taken exactly when the
  re-measured sum is lower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.errors import ReproError
from repro.fpga.architecture import FPGAArchitecture
from repro.fpga.netlist import Net, Netlist
from repro.substrate.prng import SeedLike, rng_from

__all__ = ["Placement", "place_greedy", "improve_placement"]


@dataclass(frozen=True)
class Placement:
    """Cell name -> (row, slot)."""

    architecture: FPGAArchitecture
    sites: dict[str, tuple[int, int]]

    def row_of(self, cell: str) -> int:
        return self.sites[cell][0]

    def slot_of(self, cell: str) -> int:
        return self.sites[cell][1]

    def pin_column(self, cell: str, kind: str, index: int = 0) -> int:
        """Column of a pin of a placed cell (inputs at offsets
        ``0..n_inputs-1``, output at offset ``n_inputs``)."""
        arch = self.architecture
        row, slot = self.sites[cell]
        offset = arch.n_inputs if kind == "out" else index
        return arch.site_column(slot, offset)

    def half_perimeter(self, net: Net) -> int:
        """Half-perimeter wirelength estimate of a net (columns + rows)."""
        cols = []
        rows = []
        for pin in net.pins():
            row, _ = self.sites[pin.cell]
            cols.append(self.pin_column(pin.cell, pin.kind, pin.index))
            rows.append(row)
        return (max(cols) - min(cols)) + (max(rows) - min(rows))

    def total_half_perimeter(self, netlist: Netlist) -> int:
        return sum(self.half_perimeter(net) for net in netlist.nets)


def _net_pins(architecture: FPGAArchitecture, netlist: Netlist) -> list[list[tuple[str, int]]]:
    """Per net, its pins as ``(cell, column)`` with the cell in slot 0
    (range-checked); in slot ``s`` a pin is ``s * cell_width`` further right."""
    out = architecture.n_inputs
    return [
        [(p.cell, architecture.site_column(0, out if p.kind == "out" else p.index))
         for p in net.pins()]
        for net in netlist.nets
    ]


def _nets_by_cell(netlist: Netlist) -> dict[str, set[int]]:
    """Cell name -> indices of the nets it is on."""
    nets: dict[str, set[int]] = {name: set() for name in netlist.cells}
    for j, net in enumerate(netlist.nets):
        for pin in net.pins():
            nets[pin.cell].add(j)
    return nets


def place_greedy(
    architecture: FPGAArchitecture,
    netlist: Netlist,
    seed: SeedLike = None,
) -> Placement:
    """Constructive placement: highest-connectivity cells first, each to
    the free site minimizing the incremental half-perimeter."""
    if netlist.n_cells > architecture.n_sites:
        raise ReproError(
            f"{netlist.n_cells} cells exceed {architecture.n_sites} sites"
        )
    rng = rng_from(seed)
    # Order: by number of incident nets, heaviest first; random tie-break.
    incident: dict[str, int] = {name: 0 for name in netlist.cells}
    for net in netlist.nets:
        for pin in net.pins():
            incident[pin.cell] += 1
    order = sorted(
        netlist.cells, key=lambda n: (-incident[n], rng.random())
    )
    free = [
        (r, s)
        for r in range(architecture.n_rows)
        for s in range(architecture.cells_per_row)
    ]
    width = architecture.cell_width
    pins = _net_pins(architecture, netlist)
    cell_nets = _nets_by_cell(netlist)
    sites: dict[str, tuple[int, int]] = {}

    for name in order:
        # Per net of the cell: the box of its pins already placed on other
        # cells, and this cell's own pin columns.  A net with no pins
        # placed elsewhere costs the same at every site, so it is left out.
        boxes = []
        for j in cell_nets[name]:
            own, cols, rows = [], [], []
            for cell, column in pins[j]:
                if cell == name:
                    own.append(column)
                elif cell in sites:
                    row, slot = sites[cell]
                    cols.append(slot * width + column)
                    rows.append(row)
            if cols:
                boxes.append(
                    (min(cols), max(cols), min(rows), max(rows), min(own), max(own))
                )
        best_site = None
        best_cost = None
        for site in free:
            row, slot = site
            x = slot * width
            cost = 0
            for lo_col, hi_col, lo_row, hi_row, lo_own, hi_own in boxes:
                cost += (max(hi_col, x + hi_own) - min(lo_col, x + lo_own)) + (
                    max(hi_row, row) - min(lo_row, row)
                )
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_site = site
        assert best_site is not None
        sites[name] = best_site
        free.remove(best_site)
    return Placement(architecture, sites)


def improve_placement(
    placement: Placement,
    netlist: Netlist,
    seed: SeedLike = None,
    n_passes: int = 2,
) -> Placement:
    """Pairwise-swap improvement: accept swaps that reduce the total
    half-perimeter; a few passes over random cell pairs."""
    rng = rng_from(seed)
    sites = dict(placement.sites)
    names = list(sites)
    if len(names) < 2 or n_passes < 1:
        return Placement(placement.architecture, sites)
    architecture = placement.architecture
    width = architecture.cell_width
    row = {name: r for name, (r, _) in sites.items()}
    col = {name: s * width for name, (_, s) in sites.items()}
    pins = _net_pins(architecture, netlist)
    net_cells = [{c for c, _ in net_pins} for net_pins in pins]
    nets_of = _nets_by_cell(netlist)
    cell_nets = {name: nets_of.get(name, set()) for name in names}

    def measure(j: int) -> int:
        cols = [col[c] + offset for c, offset in pins[j]]
        rows = [row[c] for c in net_cells[j]]
        return (max(cols) - min(cols)) + (max(rows) - min(rows))

    # Half-perimeter of each net, kept current across accepted swaps.
    hpwl = {j: measure(j) for j in set().union(*cell_nets.values())}
    for _ in range(n_passes):
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
        rng.shuffle(pairs)
        for a, b in pairs:
            nets = cell_nets[a] | cell_nets[b]
            before = sum(hpwl[j] for j in nets)
            row[a], row[b] = row[b], row[a]
            col[a], col[b] = col[b], col[a]
            after = {j: measure(j) for j in nets}
            if sum(after.values()) < before:
                hpwl.update(after)
                sites[a], sites[b] = sites[b], sites[a]
            else:
                row[a], row[b] = row[b], row[a]
                col[a], col[b] = col[b], col[a]
    return Placement(architecture, sites)
