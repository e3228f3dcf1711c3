"""Record ``golden.json``: SHA-256 digests of the canonical result
documents of every seed-independent spec in the corpus workloads.

Run from the root of a checkout only when the canonical artifacts are
meant to change::

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import json

import common


def main() -> None:
    common.require_program()
    import corpus
    import explicit_corpus
    import fuzz_round
    import symbolic_corpus

    recorded = {}
    for module in (explicit_corpus, symbolic_corpus):
        built = module.build(seed=0)
        _wall, results = corpus.run_pass(built)
        digests = {}
        for case, result in zip(built.cases, results):
            if "digest" in case.want:
                if not result.ok:
                    raise SystemExit(f"{case.spec.label}: {result.error}")
                digests[case.spec.label] = common.digest(result.to_json())
        recorded[module.NAME] = dict(sorted(digests.items()))
    recorded[fuzz_round.NAME] = {
        "run_round": fuzz_round.golden_round_digest()}
    path = common.HERE / "golden.json"
    path.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {sum(map(len, recorded.values()))} digests to {path}")


if __name__ == "__main__":
    main()
