"""The package's public names."""

import ensemble_repeater


def test_every_exported_name_resolves():
    missing = [
        name
        for name in ensemble_repeater.__all__
        if not hasattr(ensemble_repeater, name)
    ]
    assert missing == []
    assert len(set(ensemble_repeater.__all__)) == len(ensemble_repeater.__all__)
