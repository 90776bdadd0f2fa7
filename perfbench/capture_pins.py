"""Write perfbench/pins.json: digests of the answers the benchmark checks.

    python3 perfbench/capture_pins.py

Run it only at a commit whose answers are trusted.  The benchmark fails every
operation whose answer differs from these digests, which keeps the outputs of
`omega enumerate --json` and of the claim catalog byte-identical.
"""

import json
import shutil
import subprocess
import sys

import run
from worker import digest, op_key, run_enumerate_op, run_verify_op

sys.path.insert(0, str(run.ROOT / "src"))


def cli_stdout(spec, cache_dir=None):
    argv = [run.PY, "-m", "omega.cli", "enumerate", "--json", "--group", spec]
    if cache_dir is not None:
        argv += ["--cache", str(cache_dir)]
    return subprocess.run(argv, env=run.ENV, cwd=run.ROOT, capture_output=True,
                          check=True).stdout.decode()


def main():
    pins = {
        "enumerate": {s: digest(run_enumerate_op(s)) for s in run.ENUMERATE_SPECS},
        "verify": {op_key("verify", op): digest(run_verify_op(op)) for op in run.VERIFY_POINTS},
        "cache-cli": {},
    }
    cache_dir = run.HERE / "out" / "capture-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    for spec in run.CACHE_SETUP_SPECS + run.CACHE_SPECS:
        plain, through = cli_stdout(spec), cli_stdout(spec, cache_dir)
        if plain != through:
            sys.exit(f"{spec}: the cache changes the output")
        pins["cache-cli"][spec] = digest(plain)
    shutil.rmtree(cache_dir)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(len(v) for v in pins.values())} pins to {run.PINS}")


if __name__ == "__main__":
    main()
