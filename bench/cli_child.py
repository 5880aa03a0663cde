"""Run one `wht` command in this fresh process with spans on, so that the
traced `cli` workload keeps every cold cost a user's process pays.

Usage: python3 bench/cli_child.py <command> <config.json> <out dir> <result.json>

Exits with the command's exit code and writes the per-stem self times and
the counters of the command to <result.json>.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import spans  # noqa: E402
import wht.cli  # noqa: E402


def main(argv) -> int:
    command, config, out, result = argv
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.set_job(0)
    code = wht.cli.main([command, "--config", config, "--out", out])
    with open(result, "w") as fh:
        json.dump({"times": tracer.self_times().get(0, {}),
                   "counts": tracer.counts.get(0, {})}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
