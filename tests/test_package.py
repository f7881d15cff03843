import opbounds


def test_every_exported_name_resolves():
    # names load lazily, so a stale export fails only when someone reads it
    for name in opbounds.__all__:
        obj = getattr(opbounds, name)
        assert obj.__module__ == f"opbounds.{opbounds._MODULE_OF[name]}", name
