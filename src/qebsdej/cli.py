"""Batch experiment runner.

Verbs
-----
run <config.json>
    Execute the configured experiment and write artifacts plus a pass/fail
    summary; exit status 0 iff every enabled check passes.
validate <config.json>
    Parse and validate the configuration without running anything.
oracle <config.json>
    Evaluate a named independent oracle and write its value and standard
    error to CSV.

Exit codes: 0 success, 1 check failure, 2 configuration error, 70 crash.
"""

from __future__ import annotations

import argparse
import logging
import sys
import traceback

from .config import ConfigError, load_config
from .runner import (EXIT_CONFIG_ERROR, EXIT_CRASH, EXIT_OK, run_experiment)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qebsdej",
        description="Quadratic-exponential jump BSDE laboratory")
    parser.add_argument("--log-level", default="INFO",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"])
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, help_text in (("run", "run an experiment"),
                            ("oracle", "evaluate an independent oracle"),
                            ("validate", "validate a configuration")):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("config", help="path to a JSON experiment configuration")
        if verb != "validate":
            p.add_argument("--out", default="out", help="artifact directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level),
                        format="%(levelname)s %(name)s: %(message)s")
    log = logging.getLogger("qebsdej")
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        log.error("%s", exc)
        return EXIT_CONFIG_ERROR
    if args.verb == "validate":
        log.info("configuration is valid (experiment=%s)", cfg.experiment)
        return EXIT_OK
    if args.verb == "oracle" and cfg.experiment != "oracle":
        log.error("config field 'experiment': the oracle verb needs an "
                  "oracle experiment")
        return EXIT_CONFIG_ERROR
    try:
        return run_experiment(cfg, args.out)
    except Exception:
        log.error("experiment crashed:\n%s", traceback.format_exc())
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
