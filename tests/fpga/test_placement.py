"""Placement tests."""

import pytest

from repro.core.errors import ReproError
from repro.design.segmentation import geometric_segmentation
from repro.fpga.architecture import FPGAArchitecture, PinRef
from repro.fpga.netlist import Cell, Net, Netlist, random_netlist
from repro.fpga.placement import Placement, improve_placement, place_greedy
from repro.substrate.prng import rng_from


def _arch(rows=3, per_row=5, inputs=3):
    return FPGAArchitecture(
        rows, per_row, inputs,
        channel_factory=lambda n: geometric_segmentation(6, n),
    )


class TestPlaceGreedy:
    def test_places_all_cells_to_distinct_sites(self):
        arch = _arch()
        nl = random_netlist(12, 3, seed=1)
        pl = place_greedy(arch, nl, seed=2)
        assert set(pl.sites) == set(nl.cells)
        assert len(set(pl.sites.values())) == 12

    def test_sites_in_range(self):
        arch = _arch()
        nl = random_netlist(15, 3, seed=3)
        pl = place_greedy(arch, nl, seed=4)
        for row, slot in pl.sites.values():
            assert 0 <= row < arch.n_rows
            assert 0 <= slot < arch.cells_per_row

    def test_too_many_cells(self):
        arch = _arch(rows=1, per_row=2)
        nl = random_netlist(5, 3, seed=5)
        with pytest.raises(ReproError):
            place_greedy(arch, nl, seed=6)

    def test_deterministic(self):
        arch = _arch()
        nl = random_netlist(12, 3, seed=7)
        assert place_greedy(arch, nl, seed=8).sites == place_greedy(
            arch, nl, seed=8
        ).sites

    def test_pin_column_layout(self):
        arch = _arch()
        nl = random_netlist(6, 3, seed=9)
        pl = place_greedy(arch, nl, seed=10)
        cell = next(iter(pl.sites))
        out_col = pl.pin_column(cell, "out")
        in_col = pl.pin_column(cell, "in", 0)
        assert out_col == in_col + arch.n_inputs


class TestImprovePlacement:
    def test_never_worse(self):
        arch = _arch(rows=3, per_row=6)
        for seed in range(4):
            nl = random_netlist(16, 3, seed=seed)
            pl = place_greedy(arch, nl, seed=seed)
            better = improve_placement(pl, nl, seed=seed)
            assert better.total_half_perimeter(nl) <= pl.total_half_perimeter(nl)

    def test_still_a_permutation(self):
        arch = _arch()
        nl = random_netlist(14, 3, seed=11)
        pl = improve_placement(place_greedy(arch, nl, seed=12), nl, seed=13)
        assert len(set(pl.sites.values())) == 14

    def test_single_cell_noop(self):
        arch = _arch()
        nl = random_netlist(2, 3, seed=14)
        pl = place_greedy(arch, nl, seed=15)
        improved = improve_placement(pl, nl, seed=16)
        assert set(improved.sites) == set(pl.sites)


# ----------------------------------------------------------------------
# Pinned answers: the incremental placer against the from-scratch one.
# ----------------------------------------------------------------------
def _reference_place_greedy(architecture, netlist, seed):
    """The from-scratch constructive placer: every candidate site is
    priced by re-measuring each net of the cell through ``pin_column``."""
    rng = rng_from(seed)
    incident = {name: 0 for name in netlist.cells}
    for net in netlist.nets:
        for pin in net.pins():
            incident[pin.cell] += 1
    order = sorted(netlist.cells, key=lambda n: (-incident[n], rng.random()))
    free = [
        (r, s)
        for r in range(architecture.n_rows)
        for s in range(architecture.cells_per_row)
    ]
    sites = {}
    placement = Placement(architecture, sites)
    for name in order:
        nets = netlist.nets_of_cell(name)
        best_site = best_cost = None
        for site in free:
            sites[name] = site
            cost = 0
            for net in nets:
                placed = [p for p in net.pins() if p.cell in sites]
                if len(placed) < 2:
                    continue
                cols = [placement.pin_column(p.cell, p.kind, p.index)
                        for p in placed]
                rows = [sites[p.cell][0] for p in placed]
                cost += (max(cols) - min(cols)) + (max(rows) - min(rows))
            if best_cost is None or cost < best_cost:
                best_cost, best_site = cost, site
        del sites[name]
        sites[name] = best_site
        free.remove(best_site)
    return dict(sites)


def _reference_improve(placement, netlist, seed, n_passes):
    """The from-scratch swap pass: both cells' nets re-measured through
    ``Placement.half_perimeter`` before and after every tried swap."""
    rng = rng_from(seed)
    sites = dict(placement.sites)
    current = Placement(placement.architecture, sites)
    names = list(sites)
    if len(names) < 2:
        return sites
    affected = {name: netlist.nets_of_cell(name) for name in names}

    def local_cost(cells):
        nets = {net.name: net for c in cells for net in affected[c]}
        return sum(current.half_perimeter(net) for net in nets.values())

    for _ in range(n_passes):
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        rng.shuffle(pairs)
        for a, b in pairs:
            before = local_cost({a, b})
            sites[a], sites[b] = sites[b], sites[a]
            if local_cost({a, b}) >= before:
                sites[a], sites[b] = sites[b], sites[a]
    return dict(sites)


def _shared_cell_netlist():
    """Hand-built: ``n1`` lands twice on ``b`` (inputs 0 and 1), and
    ``n3`` loops back into its own driver."""
    cells = [Cell(name, 3) for name in ("a", "b", "c", "d", "e")]
    nets = [
        Net("n1", PinRef("a", "out"),
            (PinRef("b", "in", 0), PinRef("b", "in", 1), PinRef("c", "in", 0))),
        Net("n2", PinRef("b", "out"), (PinRef("d", "in", 2),)),
        Net("n3", PinRef("c", "out"), (PinRef("c", "in", 2), PinRef("e", "in", 1))),
        Net("n4", PinRef("d", "out"), (PinRef("a", "in", 0), PinRef("e", "in", 0))),
    ]
    return Netlist(cells, nets)


_PINNED_CASES = [
    # The benchmark chip shape: 40 cells on 3 rows x 20 cells.
    *[(3, 20, lambda s=s: random_netlist(40, 3, seed=s), 200 + s)
      for s in range(6)],
    # The small shapes used above.
    (3, 5, lambda: random_netlist(12, 3, seed=1), 2),
    (3, 5, lambda: random_netlist(15, 3, seed=3), 4),
    (3, 6, lambda: random_netlist(16, 3, seed=0), 0),
    (3, 5, lambda: random_netlist(14, 3, seed=11), 12),
    (3, 5, lambda: random_netlist(2, 3, seed=14), 15),
    (2, 4, _shared_cell_netlist, 7),
]


class TestPinnedAnswers:
    @pytest.mark.parametrize("rows,per_row,make,seed", _PINNED_CASES)
    def test_place_greedy_matches_reference(self, rows, per_row, make, seed):
        arch = _arch(rows=rows, per_row=per_row)
        netlist = make()
        got = place_greedy(arch, netlist, seed=seed).sites
        want = _reference_place_greedy(arch, netlist, seed)
        assert list(got.items()) == list(want.items())

    @pytest.mark.parametrize("n_passes", [0, 1, 2, 3])
    @pytest.mark.parametrize("rows,per_row,make,seed", _PINNED_CASES)
    def test_improve_matches_reference(self, rows, per_row, make, seed,
                                       n_passes):
        arch = _arch(rows=rows, per_row=per_row)
        netlist = make()
        start = place_greedy(arch, netlist, seed=seed)
        got = improve_placement(start, netlist, seed=seed + 1,
                                n_passes=n_passes).sites
        want = _reference_improve(start, netlist, seed + 1, n_passes)
        assert list(got.items()) == list(want.items())
