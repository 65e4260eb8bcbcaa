"""One repeat of one workload in this (fresh) interpreter.

``run.py`` starts one of these per repeat so that peak RSS, the heap and
the import caches of one repeat never colour the next.  The last line
of standard output is the repeat's result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--spans", default=None,
                        help="write the traced repeat's spans here")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import run_repeat
    result = run_repeat(args.workload, args.seed, args.seconds,
                        bool(args.smoke), bool(args.traced), args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
