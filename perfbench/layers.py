"""Per-layer host self time from a deterministic profile.

A layer is a package of ``src/repro``.  Each profiled function's self time
goes to the package that defines it.  Functions defined outside ``src/repro``
(C builtins such as ``heapq.heappush`` and ``len``, the standard library,
generated dataclass methods) are charged to their callers in proportion to
the self time spent under each caller, as recorded in the profiler's caller
table, until the time lands in a ``src/repro`` or benchmark function.
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict
from typing import Dict, Optional, Tuple

#: The layers the benchmark reports, in report order.
LAYERS = ("sim", "noc", "core", "qp", "sonuma", "coherence", "memory", "node",
          "numa", "load", "scenario", "workloads")

#: Owner of repro code outside the listed layers (``repro.config``, ``repro.obs``...).
OTHER = "repro"
#: Owner of the benchmark's own functions.
BENCH = "bench"

#: Rounds of charging foreign time to callers; foreign call chains are short,
#: and whatever is left after this many rounds counts as unattributed.
_MAX_PASSES = 64


def _owner(filename: str, repro_dir: str, bench_dir: str) -> Optional[str]:
    if filename.startswith(repro_dir):
        package = filename[len(repro_dir):].split(os.sep, 1)[0]
        return package if package in LAYERS else OTHER
    if filename.startswith(bench_dir):
        return BENCH
    return None


def self_time_by_owner(profiler, repro_dir: str, bench_dir: str) -> Tuple[Dict[str, float], float]:
    """Self seconds per owner, plus the total profiled seconds.

    ``repro_dir`` and ``bench_dir`` are directory paths; an owner is a layer
    name, :data:`OTHER` or :data:`BENCH`.  Foreign time that reaches no owner
    (a foreign function with no recorded caller) is left out of the owners
    and shows up as the difference to the total.
    """
    repro_dir = os.path.join(repro_dir, "")
    bench_dir = os.path.join(bench_dir, "")
    stats = pstats.Stats(profiler).stats
    owned: Dict[str, float] = defaultdict(float)
    pending: Dict[tuple, float] = {}
    total = 0.0
    for func, (_cc, _nc, self_s, _cum, _callers) in stats.items():
        total += self_s
        owner = _owner(func[0], repro_dir, bench_dir)
        if owner is None:
            pending[func] = pending.get(func, 0.0) + self_s
        else:
            owned[owner] += self_s
    for _ in range(_MAX_PASSES):
        if not pending:
            break
        carried: Dict[tuple, float] = defaultdict(float)
        for func, seconds in pending.items():
            callers = stats[func][4]
            # Caller entries are (calls, primitive calls, self s, cumulative s).
            weights = {caller: entry[2] for caller, entry in callers.items()}
            if sum(weights.values()) <= 0.0:
                weights = {caller: entry[0] for caller, entry in callers.items()}
            weight = sum(weights.values())
            if weight <= 0.0:
                continue
            for caller, caller_weight in weights.items():
                share = seconds * caller_weight / weight
                owner = _owner(caller[0], repro_dir, bench_dir)
                if owner is None:
                    carried[caller] += share
                else:
                    owned[owner] += share
        pending = carried
    return dict(owned), total
