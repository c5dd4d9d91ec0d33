import bandset


def test_all_names_unique_and_resolvable():
    names = bandset.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(bandset, name)]
    assert missing == []
