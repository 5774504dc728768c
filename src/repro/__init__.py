"""repro — reproduction of *SSDKeeper: Self-Adapting Channel Allocation to
Improve the Performance of SSD Devices* (IPDPS 2020).

Subpackages:

* :mod:`repro.ssd` — multi-channel SSD simulator (SSDSim-style substrate);
* :mod:`repro.workloads` — synthetic workload generators and MSR stand-ins;
* :mod:`repro.nn` — from-scratch MLP with the paper's optimizers;
* :mod:`repro.core` — SSDKeeper itself (features, labeler, learner,
  allocator, hybrid page policy, Algorithm-2 keeper);
* :mod:`repro.harness` — experiment sweeps, caching, and the per-figure
  reproduction entry points.

:mod:`repro.schema` declares every schema-versioned JSON document the
subpackages write.
"""

from . import core, harness, nn, ssd, workloads

__version__ = "1.0.0"

__all__ = ["core", "harness", "nn", "ssd", "workloads", "__version__"]
