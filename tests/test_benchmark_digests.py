"""The benchmark's outputs at seed 1, pinned.

Each workload of ``perfbench/workloads.py`` is built at seed 1, one pass of
its operations runs, every output passes the workload's own check, and the
digest of the canonical texts equals the one ``perfbench/run.py`` prints for
that seed.  A change that moves a digest on purpose updates its pin here.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

SEED1_DIGESTS = {
    "pipeline": "14a60cf0f678d0526e0e01f79ee7869d9bb77b065684a5ad1a242dbb84e66a54",
    "norms-p2-phase": "249ef0f6a42e97b7626971db48d8b2a984c42e16339b2b89d421ec4c3ea10ba2",
    "norms-ring": "7dbb1ef3419a9f28cb7ea3caa8da5c582922b7c6ec7e3c596729f957623c83ae",
    "algebra": "72d8139e1f878778a53c4141db20de33babc433cbc64b338ee2864b046b98586",
}


@pytest.mark.parametrize("name", list(SEED1_DIGESTS))
def test_seed1_pass_matches_the_pinned_digest(name):
    wl = workloads.build(name, 1)
    texts = []
    for op in wl.ops:
        out = op.run()
        assert op.check(out) is None, op.kind
        texts.append(op.canon(out))
    assert workloads.digest(texts) == SEED1_DIGESTS[name]
