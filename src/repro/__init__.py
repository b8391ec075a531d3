"""repro — reproduction of *Deterministic load balancing and dictionaries in
the parallel disk model* (Berger, Hansen, Pagh, Pătraşcu, Ružić, Tiedemann;
SPAA 2006).

The package is organised bottom-up:

* :mod:`repro.pdm` — the parallel disk model simulator (the cost model all
  theorems of the paper are stated in).
* :mod:`repro.bits` — the int field codecs (unary-pointer chains, record
  fragments) used by the one-probe static dictionary of Theorem 6(a).
* :mod:`repro.expanders` — unbalanced bipartite expander graphs: seeded
  random striped expanders, verification, existence bounds, and the
  semi-explicit telescope-product construction of Section 5.
* :mod:`repro.extsort` — external-memory mergesort on the PDM (the
  ``sort(nd)`` substrate of Theorem 6's construction).
* :mod:`repro.hashing` — the randomized baselines of Figure 1 (striped
  hashing, cuckoo hashing, the dictionary of Dietzfelbinger et al. [7], and
  the folklore "[7] + trick" combination) implemented on the same simulator.
* :mod:`repro.btree` — the B-tree baseline motivating Section 1.2.
* :mod:`repro.core` — the paper's contribution: deterministic load balancing
  (Lemma 3) and the three dictionary constructions (Sections 4.1–4.3) plus
  global rebuilding for full dynamization.
* :mod:`repro.workloads` — workload and key-set generators for benchmarks.
* :mod:`repro.analysis` — regeneration of Figure 1 and bound-vs-measured
  reports.
"""

from repro.pdm import ParallelDiskMachine, ParallelDiskHeadMachine, IOStats, OpCost
from repro.core import (
    DChoiceLoadBalancer,
    BasicDictionary,
    StaticDictionary,
    DynamicDictionary,
    RebuildingDictionary,
    ParallelDiskDictionary,
)
from repro.expanders import SeededRandomExpander, ExpanderParams

__version__ = "1.0.0"

__all__ = [
    "ParallelDiskMachine",
    "ParallelDiskHeadMachine",
    "IOStats",
    "OpCost",
    "DChoiceLoadBalancer",
    "BasicDictionary",
    "StaticDictionary",
    "DynamicDictionary",
    "RebuildingDictionary",
    "ParallelDiskDictionary",
    "SeededRandomExpander",
    "ExpanderParams",
    "__version__",
]
