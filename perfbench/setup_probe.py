"""Set-up probe: import the program and load every model of a workload.

Run in a fresh interpreter by :func:`common.measure_setup`; the first
argument is a JSON file mapping model names to source documents. Prints
one JSON line: the import time, the load/weave time and the load count.
"""

import json
import sys
import time

started = time.perf_counter()
from repro.workbench import load, source_from_doc  # noqa: E402

imported = time.perf_counter()


def main(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        models = json.load(handle)
    begin = time.perf_counter()
    for name, doc in models.items():
        load(source_from_doc(doc), name=name, **doc.get("options", {}))
    print(json.dumps({"import_s": imported - started,
                      "load_s": time.perf_counter() - begin,
                      "loads": len(models)}))


if __name__ == "__main__":
    main(sys.argv[1])
