"""Command-line entry point.

Every subcommand takes one JSON config (see config.py for the schema); common
keys can be overridden with flags or with repeated --set dotted.key=value.
Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .checkpoint import CheckpointError
from .config import ConfigError, load_config
from .datasets import IdxFormatError
from .energy import TrainingDivergedError
from .harness import COMMANDS, NumericalCheckError, run

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

# (flag, argparse type, config key): each flag is --set key=value with the
# value kept at its argparse type, so --output-dir 123 is the string "123"
_FLAGS = (
    ("--seed", int, "seed"),
    ("--sigma", float, "sigma"),
    ("--output-dir", str, "output_dir"),
    ("--alpha", float, "confidence.alpha"),
    ("--n0", int, "confidence.n0"),
    ("--nc", int, "confidence.nc"),
    ("--epsilon", float, "attack.epsilon"),
    ("--mode", str, "train.mode"),
    ("--workers", int, "certify.workers"),
    ("--max-points", int, "certify.max_points"),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ebsmooth",
        description="certified robust classification with denoised smoothing",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", "-c", required=True, help="experiment JSON file")
        command.add_argument("--set", dest="overrides", action="append", default=[],
                             metavar="KEY=VALUE",
                             help="override a config key by dotted path (repeatable)")
        for flag, kind, key in _FLAGS:
            command.add_argument(flag, dest=key, type=kind,
                                 help=f"same as --set {key}=VALUE ({kind.__name__})")
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    overrides = args.overrides + [f"{key}={json.dumps(getattr(args, key))}"
                                  for _, _, key in _FLAGS if getattr(args, key) is not None]
    try:
        cfg = load_config(args.config, overrides)
        run(args.command, cfg, "ebsmooth " + " ".join(argv))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TrainingDivergedError, NumericalCheckError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (IdxFormatError, CheckpointError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main_and_exit():
    """Process entry point (`python -m ebsmooth`, the `ebsmooth` script): main,
    then exit.  gc.freeze() first moves every live object out of the
    collector's reach, so interpreter shutdown's final collection does not
    walk the objects numpy and scipy made.  Never call it in a process that
    goes on running."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main_and_exit()
