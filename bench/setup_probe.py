"""Time one fresh interpreter's import of wavemask plus its first op.

    python3 bench/setup_probe.py <spec.json>

The spec holds a workload name and an input that ``run.py`` generated
beforehand, so input generation stays outside the timed span.  Prints one
JSON line: setup_s and the problems the op's output check found.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import wavemask
    import wavemask.cli  # noqa: F401

    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    try:
        result = workload.run(wavemask, workload.prepare(wavemask, spec["input"]))
    except Exception as exc:  # reported with the sample, like a failed op
        kind = "error" if isinstance(exc, wavemask.WavemaskError) else "invariant"
        result, problems = None, [(kind, f"{type(exc).__name__}: {exc}")]
    setup_s = time.perf_counter() - start
    if result is not None:
        problems, _info = workload.check(wavemask, spec["input"], result)
    print(json.dumps({"setup_s": setup_s, "problems": problems}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
