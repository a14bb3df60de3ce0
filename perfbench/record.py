"""Record the reference pools of the search workloads at the current commit.

    PYTHONPATH=src python3 perfbench/record.py

For every input class it draws pool members from fixed generator seeds,
asks the library for the verdict and keeps, per class, ``POOL`` members:
satisfiable pairs with their witness orderings for ``search_hit``, and
pairs that pass the ordering-free checks yet admit no witness for
``search_miss``.  The benchmark later regenerates each member from its
index with numpy alone and requires the same verdict and witness.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import niepkit as nk  # noqa: E402

import inputs  # noqa: E402
from workload import SEARCH_CLASSES, class_key  # noqa: E402

POOL = 24


def record(name, classes):
    out = {}
    for n, bordered in classes:
        kept, index = [], 0
        while len(kept) < POOL:
            lam, ups = inputs.search_pair(name, n, bordered, index)
            pair = nk.SpectrumPair(tuple(lam), tuple(ups), gamma=1.0)
            report = nk.check_conditions(pair)
            if name == "search_hit":
                if not report.satisfied:
                    raise SystemExit(f"hit generator made a miss: {n} {bordered} {index}")
                kept.append({"index": index,
                             "alpha": list(report.witness.alpha.mapping),
                             "beta": list(report.witness.beta.mapping)})
            elif not report.satisfied and inputs.passes_trivial_checks(lam, ups):
                kept.append({"index": index})
            index += 1
        out[class_key(n, bordered)] = kept
        print(name, class_key(n, bordered), "kept", len(kept), "of", index, flush=True)
    return out


def main():
    refs = {
        "search_hit": record("search_hit", SEARCH_CLASSES),
        "search_miss": record("search_miss", SEARCH_CLASSES),
    }
    with open(HERE / "references.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
