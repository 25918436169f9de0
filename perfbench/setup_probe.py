"""Set-up as a fresh CLI process pays it: import ``cprojective.cli``, load a
config and build its ``GeometryContext``.

    python3 perfbench/setup_probe.py CONFIG

``run.py`` times this whole process, interpreter start included.
"""

import sys

from cprojective import cli

cli.GeometryContext(cli.load_config(sys.argv[1]))
