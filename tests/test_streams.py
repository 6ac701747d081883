"""Seeded CLI output is pinned byte for byte.

Each command below draws from the package's own integer stream
(``SplitMix64``): growth, the sampler fit, the descendants urn.  The digests
are the sha256 of their stdout as recorded before the samplers' per-call
overhead was cut, so any change to a drawn word, to the order of the draws
or to the encoding of a tree fails here.  The bdary (3, 4/3) and baport
(3, 1/2) families have non-integer c1 and c2, so their attachment weights
are scaled to integers by the common denominator of c1 and c2 (3 and 2)
and their urn coins have denominators above one.  stats --check beta and
second-order read the urn's law and draw nothing, so no stream of theirs
is pinned here.
"""

from __future__ import annotations

import hashlib

import pytest

from buckettrees.cli import main

PINNED = {
    # grow_large
    "sample --family baport --b 2 --alpha 1 --n 400 --count 1 --seed 11":
        "b341b6e5362c7321351e9bfc175afcccb394530c532a32a6b6b441afe96e7493",
    "descend --family baport --b 2 --alpha 1 --n 200 --j 6 --mode direct --count 4 --seed 12":
        "3ed9ac22ac173d9605024a1d1712bb6bda7eac4aebb93323081c1d2d76555451",
    # grow_small
    "stats --check gof --family bdary --b 2 --d 2 --n 5 --samples 2000 --level 0.001 --seed 13":
        "588b125f64316a814cf8d57b976c9e0cf21bfe7250f4f7ba1b46e16a5191fccc",
    "sample --family bucket-recursive --b 2 --n 8 --count 1000 --aggregate --seed 14":
        "d7266570c7254338d2dcbac277e693fdf8a252b25da8e3846be751b65b974e9a",
    # urn
    "descend --family bdary --b 2 --d 2 --n 2000 --j 6 --mode urn --count 10 --seed 15":
        "072df9b8cc98486c7963273270b85fd2163abe110607d9d98355daabf0501176",
    # non-integer (c1, c2)
    "sample --family bdary --b 3 --d 4/3 --n 12 --count 20 --seed 16":
        "375b921eaa535707e04840825a7e1a4699924314e2d7fc9a08ff570bd0f6fe21",
    "sample --family baport --b 3 --alpha 1/2 --n 12 --count 20 --seed 17":
        "c66cd50c9a289f6395b7015e6161ca91e179541e365ab94b2dc70878ea5f4b53",
    "descend --family bdary --b 3 --d 4/3 --n 300 --j 7 --mode urn --count 20 --seed 18":
        "0854e106b4de77518b435f43687b6e9c11de65ee96cdb3949b8cb188aba119d3",
    "descend --family baport --b 3 --alpha 1/2 --n 300 --j 7 --mode urn --count 20 --seed 19":
        "3f92bdb67c986c231bb852ccd650501bcdd83986d1157ba27461dce925d8cf67",
}


@pytest.mark.parametrize("command", sorted(PINNED))
def test_seeded_output_is_pinned(capsys, command):
    rc = main(command.split())
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == PINNED[command]
