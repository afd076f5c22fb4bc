"""Symmetry relations: a run commutes with the maps of the periodic square
lattice, so it can be checked against itself with no stored output.

Vorticity is a pseudoscalar: a reflection of the plane maps omega(x, y)
to -omega at the reflected point, while a shift by whole nodes moves it
unchanged. An anisotropic slip in a table (say a first-derivative symbol
that treats the Nyquist mode of y unlike that of x) or a stencil that
favours one direction breaks a relation far above roundoff.
"""

import numpy as np
import pytest

from vorspec import (Grid, RunConfig, ScalarField, ShearLayerSpec, run,
                     shear_layer_init)

N, DT, STEPS = 64, 8e-4, 200


def reflect(a, axis):
    """Node values at -x along axis: node i takes node (N - i) % N."""
    return np.roll(np.flip(a, axis), 1, axis)


# node-value maps; axis 0 runs over x and axis 1 over y (Grid.nodes)
MAPS = {
    "diagonal": lambda a: -a.T,
    "x reflection": lambda a: -reflect(a, 0),
    "y reflection": lambda a: -reflect(a, 1),
    "shift (5, 11)": lambda a: np.roll(a, (5, 11), axis=(0, 1)),
}


@pytest.mark.parametrize("dealias", [False, True])
def test_a_run_commutes_with_the_lattice_symmetries(dealias):
    """The thick shear layer at N = 64 over 200 BDF3 steps, startup
    included: running the mapped initial vorticity ends on the mapped
    final vorticity to within 1e-12 of max|omega| for each of the four
    maps (measured at most 2.4e-15)."""
    grid = Grid(N)
    spec = ShearLayerSpec(rho=30.0, delta=0.05, nu=1e-4)
    w0 = shear_layer_init(grid, spec).physical
    cfg = RunConfig(n=N, dt=DT, nu=spec.nu, t_final=STEPS * DT,
                    series_every=STEPS, dealias=dealias)

    def final(w):
        summary = run(ScalarField.from_physical(grid, w), cfg)
        return summary.final_state.omega.physical

    base = final(w0)
    scale = np.abs(base).max()
    gaps = {name: np.abs(final(m(w0)) - m(base)).max() / scale
            for name, m in MAPS.items()}
    assert all(gap < 1e-12 for gap in gaps.values()), gaps
