"""dualq: deterministic dual-queue AQM link emulator and equivalence statistics.

The package has two halves:

* an event-driven emulator of a bottleneck link guarded by a coupled
  dual-queue AQM (``core``, ``aqm``, ``link``, ``traffic``, ``engine``,
  ``metrics``), and
* a statistics toolkit that decides whether two corpora of emulation
  runs are behaviorally equivalent (``stats``).

Everything is driven by explicit integer-nanosecond time and explicit
seeds, so identical inputs reproduce byte-identical outputs.
"""

__version__ = "0.1.0"
