"""Set-up probe: a fresh interpreter's ``import qcorr`` plus one warm-up request.

Run by run.py as ``python3 setup_probe.py SRC WORKLOAD SEED WORKDIR``; prints
one JSON object with the unscaled set-up seconds (run.py scales them, see
calibration.py) and the warm-up request's problems. Input generation
between the import and the request is not timed.
"""
import sys
from time import perf_counter

start = perf_counter()
src, workload, seed, workdir = sys.argv[1:5]
sys.path.insert(0, src)
import qcorr  # noqa: E402,F401

imported = perf_counter()

import json  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

wl = workloads.WORKLOADS[workload](int(seed), Path(workdir))
request = next(wl.requests())
begin = perf_counter()
output = wl.run(request)
end = perf_counter()
print(json.dumps({"setup_s": (imported - start) + (end - begin),
                  "problems": wl.check(request, output)}))
