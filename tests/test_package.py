import ssimkit


def test_every_export_resolves():
    missing = [name for name in ssimkit.__all__ if not hasattr(ssimkit, name)]
    assert missing == []
    assert len(set(ssimkit.__all__)) == len(ssimkit.__all__)
