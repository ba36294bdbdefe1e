import json

from capture_corpus import CORPUS, corpus


def test_every_cell_is_bit_identical():
    """Each corpus cell, recomputed, equals its stored float.hex with ``==``.

    E for every N is ``Π @ e``, a BLAS matrix-vector product whose order of
    additions the numpy build chooses, so the stored values hold for the
    numpy 2.4.6 build they were captured with; another BLAS may move the
    last bits.  ``tests/capture_corpus.py`` lists the cells.
    """
    want = json.loads(CORPUS.read_text())
    got = corpus()
    assert sorted(got) == sorted(want)
    for key, cell in want.items():
        assert got[key] == cell, key
