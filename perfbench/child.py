"""One repetition of a workload in a fresh interpreter.

    python3 child.py <mode> <config.json> <out_dir> <t_spawn>

``mode`` is ``setup`` (``qebsdej validate``: import the package and load the
config), ``run`` (``qebsdej run``, with timestamps taken around
``load_config`` and ``run_experiment``) or ``trace`` (``qebsdej run`` with
every target of tracer.py wrapped).  ``t_spawn`` is the parent's
``time.monotonic()`` just before it started this process, so ``setup_s``
covers interpreter start, imports and config loading.  The last line of
stdout is a JSON record of the repetition.
"""

from __future__ import annotations

import json
import resource
import sys

from tracer import ROOT, SETUP, TIMESTAMPS, TARGETS, Tracer


def main(argv: list[str]) -> int:
    mode, config, out_dir, t_spawn = argv[1], argv[2], argv[3], float(argv[4])
    from qebsdej import cli

    tracer = Tracer(TARGETS if mode == "trace" else TIMESTAMPS)
    cli_args = (["validate", config] if mode == "setup"
                else ["run", config, "--out", out_dir])
    with tracer.installed():
        exit_code = cli.main(cli_args)
    record = dict(exit_code=exit_code,
                  setup_s=tracer.stats[SETUP].last_end - t_spawn,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if mode != "setup":
        record["run_s"] = tracer.stats[ROOT].total_s
    if mode == "trace":
        tracer.check_self_times()
        record["layers"] = tracer.layer_metrics()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
