"""Command-line entry point.

Subcommands group the verification experiments; each runs deterministically
from its master seed and exits 0 only when every asserted criterion passes.

    tapbound all --out runs/full
    tapbound verify-gaussian --replicas 5000 --seed 7
    tapbound bound-ising --config my.cfg --workers 4
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .harness import build_config, load_config, run

SUBCOMMANDS = {
    "verify-gaussian": ["gaussian-law", "recentering-law", "gradient-check"],
    "verify-cover": ["cover-property"],
    "verify-entropy": ["entropy-lemmas", "series-identities"],
    "verify-onsager": ["slice-entropy", "onsager-markov"],
    "bound-ising": ["beta0-exact", "zero-disorder", "tap-continuity", "bound-ising"],
    "bound-sphere": ["bound-sphere"],
    "tap-max": ["tap-max"],
}
SUBCOMMANDS["all"] = [name for group in (
    "verify-entropy", "verify-gaussian", "verify-cover", "verify-onsager",
    "bound-ising", "bound-sphere") for name in SUBCOMMANDS[group]]

_QUICK = {
    "gaussian-law": dict(replicas=4000),
    "recentering-law": dict(replicas=4000),
    "cover-property": dict(points=200, replicas=2),
    "slice-entropy": dict(replicas=10),
    "onsager-markov": dict(replicas=40),
    "bound-ising": dict(replicas=10),
    "bound-sphere": dict(replicas=10, mc_samples=20000),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tapbound",
        description="Desk-scale verification suites for TAP free-energy upper bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run: {', '.join(SUBCOMMANDS[name])}")
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="master seed (u64)")
        p.add_argument("--replicas", type=int, help="replica count override")
        p.add_argument("--out", help="output directory for reports")
        p.add_argument("--workers", type=int, help="parallel worker count")
        p.add_argument("--quick", action="store_true",
                       help="reduced replica counts for smoke runs")
    args = parser.parse_args(argv)

    overrides = {}
    if args.config:
        try:
            overrides.update(load_config(args.config))
        except ConfigError as err:
            for violation in err.violations:
                print(f"FAIL config ({violation})")
            return 1
    for key in ("seed", "replicas", "out", "workers"):
        val = getattr(args, key)
        if val is not None:
            overrides[key] = val

    all_pass = True
    for experiment in SUBCOMMANDS[args.command]:
        exp_overrides = dict(overrides)
        if args.quick and experiment in _QUICK:
            for k, v in _QUICK[experiment].items():
                exp_overrides.setdefault(k, v)
        try:
            cfg = build_config(experiment, exp_overrides)
            report = run(cfg)
        except ConfigError as err:
            for violation in err.violations:
                print(f"FAIL {experiment}:config ({violation})")
            all_pass = False
            continue
        for line in report.summary_lines():
            print(line)
        all_pass = all_pass and report.passed
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
