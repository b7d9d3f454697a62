"""Names for the dimensions the simulator computes with.

Plain ``int``/``float`` aliases, imported under ``TYPE_CHECKING`` by the
modules that annotate with them: they tell a reader (and mypy, as the
backing type) whether a parameter is integer nanoseconds, a byte count
or a bits-per-second rate.  Nothing enforces the dimension; the unit
contract is held by the ``REPRO_DEBUG`` invariants, the goldens and
tier-1 (DESIGN.md section 8).
"""

TimeNs = int        # simulation time / durations, integer ns
Seconds = float     # wall-style durations for reporting
Bytes = int         # payload / buffer sizes
Bits = int          # on-the-wire sizes (8 x bytes)
BitsPerSec = float  # link and flow rates
Ratio = float       # dimensionless fractions
