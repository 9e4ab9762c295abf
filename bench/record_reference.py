"""Record the catalog class counts that the benchmark checks outputs against.

Run from the repository root:  python3 bench/record_reference.py
It rewrites bench/reference.json from the program in src/.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hsfinite  # noqa: E402

from workloads import CATALOG_MAX_COLENGTH, finite_sequences, sequence_text  # noqa: E402


def main():
    class_counts = {}
    totals = {"sequences": 0, "pairs": 0, "isomorphic": 0, "unknown": 0}
    for entries, label in finite_sequences(hsfinite, CATALOG_MAX_COLENGTH):
        report = hsfinite.verify_catalog(label)
        class_counts[sequence_text(entries)] = report.class_count
        totals["sequences"] += 1
        totals["pairs"] += len(report.pairwise)
        totals["isomorphic"] += sum(v.kind == "isomorphic"
                                    for _, _, v in report.pairwise)
        totals["unknown"] += len(report.unknown_pairs)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as f:
        json.dump({"max_colength": CATALOG_MAX_COLENGTH, "totals": totals,
                   "class_counts": class_counts}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(json.dumps(totals, sort_keys=True))


if __name__ == "__main__":
    main()
