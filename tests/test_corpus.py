import json

from capture_corpus import CORPUS, DATA, PIN_FUNCTIONS, PINS, corpus, render


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


def test_a_capture_at_head_changes_nothing():
    # Every data file is what the capture's one writer makes of its cells,
    # and pins.json holds one cell per pin function, in the capture's order,
    # so no pin is orphaned or missing.  The pin tests check the values.
    for path in sorted(DATA.iterdir()):
        text = path.read_text()
        assert text == render(json.loads(text)), path.name
    assert list(json.loads(PINS.read_text())) == list(PIN_FUNCTIONS)
