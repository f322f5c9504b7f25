"""Make the benchmark modules and the program source importable."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from workloads import use_source_tree  # noqa: E402

use_source_tree()
