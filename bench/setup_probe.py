"""Fresh-process set-up probe: python3 setup_probe.py ROOT COMMAND CONFIG

Imports the CLI from ROOT/src and runs ``cmadof COMMAND --config CONFIG``
until the CLI first calls ``run_ga`` or ``evaluate``. There it prints
``FIRST_PIPELINE_CALL <time.monotonic()>`` and exits at once, so the
caller's clock difference covers interpreter start, imports, argument and
config parsing and problem construction.
"""

import os
import sys
import time


def _stop(*args, **kwargs):
    print(f"FIRST_PIPELINE_CALL {time.monotonic()!r}", flush=True)
    os._exit(0)


def main() -> int:
    root, command, config = sys.argv[1:4]
    sys.path.insert(0, os.path.join(root, "src"))
    from cmadof import cli, ga

    for name in ("run_ga", "evaluate"):
        original = getattr(ga, name)
        for module in (cli, ga):
            if getattr(module, name, None) is original:
                setattr(module, name, _stop)
    cli.main([command, "--config", config])
    print("setup probe: the CLI returned without calling the pipeline",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
