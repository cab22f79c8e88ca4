"""The package's export list."""

import types

import lqrnewton


def test_export_list_matches_the_public_names():
    exported = lqrnewton.__all__
    assert len(exported) == len(set(exported))
    missing = [name for name in exported if not hasattr(lqrnewton, name)]
    assert missing == []
    public = {name for name, value in vars(lqrnewton).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public - set(exported) == set()
