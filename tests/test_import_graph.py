"""The import graph: only the sequential oracle loads SciPy.

The distributed SCF, the DES, the model and the planner run on NumPy
alone, so a process that imports the package pays for SciPy (about 150
modules) only when it calls the sequential oracle —
``lowest_eigenstates``, ``Hamiltonian.as_linear_operator``, ``SCFLoop``
or ``RmmDiis``.  The check runs in a fresh interpreter whose import
system refuses every ``scipy`` module, so an eager import anywhere on
these paths fails it.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]

SCRIPT = textwrap.dedent(
    """
    import importlib.abc
    import sys

    import numpy as np


    class RefuseSciPy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path, target=None):
            if name.split(".")[0] == "scipy":
                raise ModuleNotFoundError(f"{name} refused", name=name)
            return None


    def scipy_modules():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


    refuse = RefuseSciPy()
    sys.meta_path.insert(0, refuse)

    import repro
    import repro.cli
    import repro.dft
    from repro.core import FLAT_OPTIMIZED, FDJob, Planner, simulate_fd
    from repro.core.jobspec import JobSpec, LayoutSpec, ProblemSpec, RuntimeSpec
    from repro.dft import DistributedSCF, Hamiltonian, lowest_eigenstates
    from repro.grid import GridDescriptor

    gd = GridDescriptor((8, 8, 8), pbc=(False,) * 3, spacing=0.6)
    x, y, z = gd.coordinates()
    v = 0.5 * ((x - 2.7) ** 2 + (y - 2.7) ** 2 + (z - 2.7) ** 2)
    spec = JobSpec(
        problem=ProblemSpec.from_grid(gd, 2),
        layout=LayoutSpec(n_cores=2),
        runtime=RuntimeSpec(tolerance=0.0, max_iterations=1, band_iterations=2),
    )
    result = DistributedSCF.from_spec(spec, v).run()
    assert np.isfinite(result.total_energy) and result.iterations == 1
    assert simulate_fd(FDJob(GridDescriptor((16, 16, 16)), 4),
                       FLAT_OPTIMIZED, 64).total > 0
    assert Planner().rank(ProblemSpec((16, 16, 16), 4), 16).best()
    assert scipy_modules() == [], scipy_modules()

    # the sequential oracle imports SciPy when first called
    sys.meta_path.remove(refuse)
    eig = lowest_eigenstates(Hamiltonian(gd, v), 1)
    assert abs(eig.energies[0] - 1.5) < 0.1, eig.energies
    assert "scipy.sparse.linalg" in sys.modules
    print("ok")
    """
)


def test_only_the_sequential_oracle_loads_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
