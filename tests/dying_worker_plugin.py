"""A plugin module whose import ends the interpreter with exit code 3.

``tests/test_runner_pool.py`` hands it to a :class:`~repro.runner.WorkerPool`
to prove that a worker dying before it reports ready fails the pool's
start-up at once.  Only ever import it inside a worker process.
"""

import os

os._exit(3)
