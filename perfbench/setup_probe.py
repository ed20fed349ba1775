"""One cold set-up in a fresh process: import fqpencil, build the fields.

Usage: python3 perfbench/setup_probe.py '[[p, k], ...]'
Prints one JSON line: import_s, make_field_s, setup_s (their sum),
per_field_s, and host_speed, the speed this process saw right after its
set-up (see hostspeed.py).
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main():
    fields = json.loads(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = perf_counter()
    import fqpencil
    t1 = perf_counter()
    per_field = {}
    for p, k in fields:
        start = perf_counter()
        fqpencil.make_field(p, k)
        per_field[f"{p}^{k}"] = perf_counter() - start
    t2 = perf_counter()

    from hostspeed import Speedometer
    meter = Speedometer("interp")
    meter.follow(t2 - t0)
    print(json.dumps({"import_s": t1 - t0, "make_field_s": t2 - t1,
                      "setup_s": t2 - t0, "per_field_s": per_field,
                      "host_speed": meter.speed()}))


if __name__ == "__main__":
    main()
