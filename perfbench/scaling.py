"""Layer scaling table: single layers timed at grid sizes N in {512, 2048, 8192}.

Every layer runs on a vacuum signal and a vacuum probe at phi = pi/4, the
same inputs at every size and in every run.  Each entry is the mean time
of one call, repeated until the repeats take at least 0.2 s
(``timeit.Timer.autorange``).  A call the program refuses by design
(``output_ensemble`` caps its grid at 4096 points) is recorded as refused.
"""

from __future__ import annotations

import math
import timeit

import qndsim
import qndsim.chain
import qndsim.fidelity
import qndsim.grids

SIZES = (512, 2048, 8192)
PHI = math.pi / 4
X0 = 0.3  # outcome for the single conditional_output call
VACUUM = qndsim.GaussianSpec(mean=0.0, variance=qndsim.VACUUM_VARIANCE)


def _cases(n: int) -> dict:
    grid = qndsim.auto_grid([VACUUM], n_points=n)
    signal = qndsim.build_gaussian(VACUUM, grid)
    probe = qndsim.build_gaussian(VACUUM, grid)
    chain, fidelity, grids = qndsim.chain, qndsim.fidelity, qndsim.grids
    return {
        # a fresh WaveFunction each call, so the spline is built, not fetched from cache
        "grids.amplitude_interpolator": lambda: grids.amplitude_interpolator(
            qndsim.WaveFunction(signal.grid, signal.amplitudes)
        ),
        "chain.homodyne_distribution": lambda: chain.homodyne_distribution(signal, probe, PHI),
        "chain.conditional_output": lambda: chain.conditional_output(signal, probe, PHI, X0),
        "fidelity.state_fidelity": lambda: fidelity.state_fidelity(signal, probe, PHI),
        "fidelity.distribution_fidelity": lambda: fidelity.distribution_fidelity(
            signal, probe, PHI
        ),
        "fidelity.output_ensemble": lambda: fidelity.output_ensemble(signal, probe, PHI),
    }


def layer_table() -> tuple[dict[str, float], dict[str, str]]:
    """Metrics named ``<module>.<function>.N<n>.s``, and the refused calls.

    Every call also has ``<module>.<function>.N<n>.refused``, 1 when the
    program refused it (no time then) and 0 otherwise; the second dict holds
    the refusals' messages.
    """
    metrics: dict[str, float] = {}
    refused: dict[str, str] = {}
    for n in SIZES:
        for name, call in _cases(n).items():
            key = f"{name}.N{n}"
            try:
                number, total = timeit.Timer(call).autorange()
            except qndsim.ResourceLimitError as err:
                metrics[f"{key}.refused"] = 1
                refused[key] = f"{type(err).__name__}: {err}"
                continue
            metrics[f"{key}.s"] = total / number
            metrics[f"{key}.refused"] = 0
    return metrics, refused
