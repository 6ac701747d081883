"""The exact lane's answers are pinned byte for byte.

The digests were recorded while the labelled-tree law was still summed in
``Fraction`` arithmetic, one option at a time, so any change to a
probability, to the support of a law, to a verdict or to the order of the
fields printed by ``verify`` fails here.  Each family is pinned twice: the
sha256 of ``verify --check all --n 7`` stdout, and the sha256 of the sorted
(encoding, ``str(prob)``) pairs of ``exact_distribution(spec, 6)``, one
pair a line.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest

from buckettrees import (BucketRecursive, DAryIncreasing, PlaneOriented,
                         encode_tree, exact_distribution)
from buckettrees.cli import main

F = Fraction

FAMILIES = {
    "baport --b 2 --alpha 1": PlaneOriented(2, F(1)),
    "bdary --b 2 --d 2": DAryIncreasing(2, F(2)),
    "bucket-recursive --b 3": BucketRecursive(3),
    "baport --b 3 --alpha 1/2": PlaneOriented(3, F(1, 2)),
}

VERIFY_ALL_N7 = {
    "baport --b 2 --alpha 1":
        "83437f549b337390dfff99807ddeeb2c077cbd8cc3b6eea2442c2ddd632e30e1",
    "bdary --b 2 --d 2":
        "6f497b77639f20b073fd7bb6c0a358a112f49cd510b549b3fa298acab5364ce1",
    "bucket-recursive --b 3":
        "dbad1ef182423a5c431a450bd54a845b9177b0efdf89994d2a0712d1c04cadb4",
    "baport --b 3 --alpha 1/2":
        "bf1f48e0ff37704a788e1255383288d508f3186ef1183637f8489e6dd0be635b",
}

# (number of labelled trees, digest) of the size-6 law.
LAW_N6 = {
    "baport --b 2 --alpha 1":
        (77, "036f7120c2235f3f3b0eabf8cca645c3a431ca0a140a5c05839e4ad97acfdaf8"),
    "bdary --b 2 --d 2":
        (53, "99df971365d5c8f7d2dc2a0dded4a7adb13434b490e65ac0a150438b241724c1"),
    "bucket-recursive --b 3":
        (13, "527afa8a5c851161f5318dfefaa5b65bb5a20a43b4d0691bc15de3147bf6d351"),
    "baport --b 3 --alpha 1/2":
        (13, "1bc70232071021b84c84de473991d8479cf90186b36a229f69ffa2c4793461a5"),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_verify_all_output_is_pinned(capsys, family):
    rc = main(f"verify --family {family} --n 7 --check all".split())
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == VERIFY_ALL_N7[family]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_exact_law_is_pinned(family):
    pairs = sorted((encode_tree(tree), str(prob))
                   for tree, prob in exact_distribution(FAMILIES[family], 6).probs.items())
    digest = hashlib.sha256()
    for encoding, prob in pairs:
        digest.update(encoding + b" " + prob.encode("ascii") + b"\n")
    assert (len(pairs), digest.hexdigest()) == LAW_N6[family]
