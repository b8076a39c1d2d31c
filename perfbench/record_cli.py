"""Record the README command outputs of the current checkout as the seed
values the cli-readme workload checks against (``data/cli_seed.json``).

Run from the repository root, at the commit whose outputs are the
reference (the values were recorded at the commit that added this
benchmark):

    python3 perfbench/record_cli.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

from checks import DATA, README_COMMANDS, output_key, summarize


def main() -> int:
    root = os.getcwd()
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("SQUEEZELAB_THREADS", None)
    work = tempfile.mkdtemp(prefix="record-", dir=root)
    try:
        record = {}
        for cmd, argv, outputs in README_COMMANDS:
            proc = subprocess.run([sys.executable, "-m", "squeezelab", *argv], cwd=work,
                                  env=env, capture_output=True, text=True, check=True)
            for out in outputs:
                if out == "-":
                    text = proc.stdout
                else:
                    with open(os.path.join(work, out)) as fh:
                        text = fh.read()
                record[output_key(cmd, out)] = summarize(text)
    finally:
        shutil.rmtree(work)
    with open(os.path.join(DATA, "cli_seed.json"), "w") as fh:
        json.dump(record, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
