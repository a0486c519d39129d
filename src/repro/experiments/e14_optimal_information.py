"""E14 (extension) — certified minimum information cost of AND_k.

The strongest form of the Theorem 1 evidence this reproduction offers:
for the *zero-error deterministic* protocol class, the rectangle dynamic
program of :mod:`repro.lowerbounds.optimal_information` computes the
exact minimum of :math:`CIC_\\mu = H(\\Pi \\mid Z)` over **all**
protocols in the class.  The table shows:

* the optimum grows as :math:`\\approx \\tfrac12 \\log_2 k` — Theorem
  1's :math:`\\Omega(\\log k)` realized as a certified equality for this
  class;
* the Section 6 sequential protocol *attains* the optimum at every ``k``
  (it is exactly information-optimal, not just an upper-bound witness);
* the analogous external-IC optima under uniform inputs, with the XOR
  task as the full-revelation contrast.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from ..core.analysis import conditional_information_cost
from ..lowerbounds.hard_distribution import and_hard_distribution
from ..lowerbounds.optimal_information import (
    minimum_zero_error_cic,
    minimum_zero_error_external_ic,
)
from ..protocols.and_protocols import SequentialAndProtocol
from ..store.keys import code_version
from ..store.store import ResultStore
from ..store.sweep import checkpointed_map_grid
from .tables import ExperimentTable

__all__ = ["run", "DEFAULT_KS"]

#: k = 12 pushes the rectangle DP to 3^12 · 12 ≈ 6.4M mass cells, just
#: under the vectorized dense-DP kernel's ``_E14_CELL_CAP``; past the
#: cap the memoized recursion certifies identical optima at a few times
#: the cost.
DEFAULT_KS: Sequence[int] = (2, 3, 4, 6, 8, 10, 12)


def _measure_grid_point(k: int) -> Tuple[float, float]:
    """One E14 grid task: the certified optimum and the sequential
    protocol's CIC at ``k``.  Pure, so the sweep parallelizes (and
    caches) without changing any value."""
    optimum = minimum_zero_error_cic(k)
    sequential = conditional_information_cost(
        SequentialAndProtocol(k), and_hard_distribution(k)
    )
    return optimum, sequential


def _measure_external(k: int) -> Tuple[float, float]:
    """The external-IC contrast cell: certified AND vs XOR optima under
    uniform inputs at ``k``."""
    and_external = minimum_zero_error_external_ic(
        k, lambda x: int(all(x)), [0.5] * k
    )
    xor_external = minimum_zero_error_external_ic(
        k, lambda x: sum(x) % 2, [0.5] * k
    )
    return and_external, xor_external


def run(
    ks: Sequence[int] = DEFAULT_KS,
    *,
    workers: Optional[int] = None,
    store: Optional[ResultStore] = None,
    fabric: Optional[int] = None,
    fabric_transport: str = "tcp",
) -> ExperimentTable:
    """Run the E14 sweep.

    ``fabric`` (``--fabric N`` on the CLI) shards the main grid across
    ``N`` fabric workers (requires ``store``; see docs/fabric.md); the
    single external-IC contrast cell stays serial either way.  The table
    is byte-identical to the serial path.
    """
    table = ExperimentTable(
        experiment_id="E14",
        title="Certified minimum information cost of AND_k "
              "(zero-error deterministic class)",
        paper_claim=(
            "Theorem 1: CIC_mu(AND_k) = Omega(log k); here the exact "
            "minimum over ALL zero-error deterministic protocols, "
            "computed by rectangle DP"
        ),
        columns=[
            "k", "min CIC (all protocols)", "seq AND CIC", "optimal?",
            "min CIC / log2 k",
        ],
    )
    ratios = []
    if fabric is not None:
        from ..fabric.sweep import fabric_checkpointed_map_grid

        measurements = fabric_checkpointed_map_grid(
            list(ks),
            store=store,
            experiment="E14",
            version=code_version("E14"),
            params_of=lambda k: {"k": k},
            workers=fabric,
            transport=fabric_transport,
        )
    else:
        measurements = checkpointed_map_grid(
            _measure_grid_point,
            list(ks),
            store=store,
            experiment="E14",
            version=code_version("E14"),
            params_of=lambda k: {"k": k},
            workers=workers,
        )
    for k, (optimum, sequential) in zip(ks, measurements):
        ratio = optimum / math.log2(k)
        ratios.append(ratio)
        table.add_row(
            k, optimum, sequential,
            "yes" if abs(optimum - sequential) < 1e-9 else "NO",
            ratio,
        )
    table.add_note(
        "the certified optimum tracks (1/2) log2 k (ratios "
        f"{min(ratios):.3f}-{max(ratios):.3f}) and is attained by the "
        "sequential protocol at every k: Theorem 1's Omega(log k) holds "
        "with certified constant ~1/2 in this class"
    )
    k = max(ks)
    ((and_external, xor_external),) = checkpointed_map_grid(
        _measure_external,
        [k],
        store=store,
        experiment="E14-external",
        version=code_version("E14-external"),
        params_of=lambda k: {"k": k},
        workers=None,  # a single cell; never worth a process pool
    )
    table.add_note(
        f"external-IC optima under uniform inputs at k={k}: "
        f"AND needs {and_external:.4f} bits, XOR needs "
        f"{xor_external:.4f} (= k, full revelation)"
    )
    return table
