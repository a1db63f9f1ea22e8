import landauzb


def test_every_export_resolves():
    # a stale name in __all__ breaks `from landauzb import *` only at run time
    missing = [name for name in landauzb.__all__ if not hasattr(landauzb, name)]
    assert missing == []
    assert len(set(landauzb.__all__)) == len(landauzb.__all__)
