"""Time one fresh interpreter from ``import kdclassical`` to its first unit of work.

    python3 benchmarks/first_call.py <workload> <seed>

Prints {"setup_s": seconds}. ``bench.py`` runs it several times per run and
reports the median as ``setup_s``.
"""

import json
import sys

from workloads import first_unit

if __name__ == "__main__":
    print(json.dumps({"setup_s": first_unit(sys.argv[1], int(sys.argv[2]))}))
