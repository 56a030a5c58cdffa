"""Set-up as a fresh interpreter pays it: import revquad, build the profiles.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints ``ready`` once the workload's profiles are built; ``run.py`` times
this from process start.
"""

import sys

import workloads

workloads.setup_profiles(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
