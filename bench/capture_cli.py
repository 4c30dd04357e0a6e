"""Capture the expected stdout and exit code of every CLI invocation of the
cli-fixtures workload into ``cli_expected.json``.

    python3 bench/capture_cli.py

Run it only at a commit whose CLI output is known to be right: the
benchmark counts any later difference as a wrong answer.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from bench import workloads  # noqa: E402


def main() -> int:
    k = workloads.kernel()
    gen_root = workloads.ROOT / ".bench_out"
    gen_root.mkdir(exist_ok=True)
    gen_dir = Path(tempfile.mkdtemp(prefix="capture-", dir=gen_root))
    try:
        workloads.write_generated_documents(k, gen_dir)
        env = workloads.cli_env()
        expected = {}
        for argv in workloads.CLI_INVOCATIONS:
            code, stdout = workloads.run_cli(workloads.resolve(argv, gen_dir), env)
            expected[workloads.invocation_key(argv)] = {"exit": code, "stdout": stdout}
    finally:
        shutil.rmtree(gen_dir, ignore_errors=True)
    workloads.EXPECTED_CLI.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(expected)} invocations to {workloads.EXPECTED_CLI}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
