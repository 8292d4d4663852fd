"""Set-up probe: one fresh process doing what every CLI job does before work.

Imports ``safehold.cli`` cold, then for each step's argv (a JSON list of
CLI argument lists) parses the arguments, loads the YAML config with its
``--set`` overrides and builds the filter and scenario the config
describes. ``bench/run.py`` times the whole process from spawn to exit.
"""

import json
import sys

import yaml

from safehold import cli
from safehold.config import apply_overrides, parse_config, scenario_from_config


def main() -> None:
    for argv in json.loads(sys.argv[1]):
        args = cli.build_parser().parse_args(argv)
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
        cfg = parse_config(apply_overrides(doc, args.set))
        scenario_from_config(cfg)


if __name__ == "__main__":
    main()
