"""On-chip network substrate.

The NoC is modelled as a tree of store-and-forward routers.  Each router owns
the transactions waiting to leave it, an output link of finite bandwidth and
an arbiter that performs switch allocation with the same policy family used
in the memory controller (FCFS, round-robin or priority-based), which is how
the paper's "distributed system response" extends into the interconnect.
"""

from repro.noc.arbiter import NocArbiter
from repro.noc.link import Link
from repro.noc.network import Network
from repro.noc.router import Router
from repro.noc.topology import ClusterSpec, TreeTopology

__all__ = [
    "ClusterSpec",
    "Link",
    "Network",
    "NocArbiter",
    "Router",
    "TreeTopology",
]
