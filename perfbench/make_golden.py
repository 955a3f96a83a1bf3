#!/usr/bin/env python3
"""Write golden_expand_n6.json: digests of the expand-ibp term lists at n=6.

The expand_sweep workload checks every op's term list, and the whole cycle
in permutation order, against this file.  Term lists do not depend on the
seed and must stay byte-identical, so regenerate only on purpose:

    python3 perfbench/make_golden.py
"""

import hashlib
import json
import sys

from run import git_commit
from worker import GOLDEN_PATH, ROOT, _sigmas, canonical_terms


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from sheetsde.cli_runner import ExperimentConfig, run

    whole = hashlib.sha256()
    per_sigma = {}
    for sigma in _sigmas(6):
        outputs = json.loads(run(ExperimentConfig("expand-ibp", {"sigma": sigma})).to_json())["outputs"]
        terms = canonical_terms(outputs)
        whole.update(terms + b"\n")
        per_sigma[sigma] = hashlib.sha256(terms).hexdigest()[:16]
    golden = {
        "about": "sha256: canonical terms JSON of all 720 expand-ibp records at n=6, "
                 "newline-terminated, in itertools.permutations order; per_sigma: "
                 "first 16 hex digits of each list's sha256",
        "computed_at_commit": git_commit(),
        "sha256": whole.hexdigest(),
        "per_sigma": per_sigma,
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH.name}: {golden['sha256']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
