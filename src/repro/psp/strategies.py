"""PSP-strategy baselines from [35], expressed as PMHL levels (§III-C).

- ``NCHPIndex`` — *N-CH-P*: no-boundary PSP with DCH underlying.
  Maintains only the partition + overlay shortcut arrays (U-Stages 1–2)
  and answers with the PCH search.
- ``PTDPIndex`` — *P-TD-P*: post-boundary PSP with DH2H underlying.
  Maintains through the post-boundary index (U-Stages 1–4); queries with
  the post-boundary strategy (fast same-partition, concatenated
  cross-partition — the slowness PMHL's cross-boundary L* removes).

Both reuse :class:`repro.psp.pmhl.PMHLIndex` with a restricted level so
their construction, maintenance and query paths are *identical code* to
the corresponding PMHL stages, as in the paper.
"""
from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.psp.pmhl import PMHLIndex


class NCHPIndex(PMHLIndex):
    """No-boundary partitioned CH (update-oriented PSP baseline)."""

    def __init__(self, graph: Graph, k: int, coords: np.ndarray | None = None):
        super().__init__(graph, k, coords, level="shortcut")

    query = PMHLIndex.query_pch
    stages = (("pch", PMHLIndex.query_pch),)


class PTDPIndex(PMHLIndex):
    """Post-boundary partitioned H2H (query-oriented PSP baseline)."""

    def __init__(self, graph: Graph, k: int, coords: np.ndarray | None = None):
        super().__init__(graph, k, coords, level="post")

    query = PMHLIndex.query_postboundary
    stages = (("post", PMHLIndex.query_postboundary),)
