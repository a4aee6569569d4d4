import mapfla


def test_public_names_resolve_and_exclude_solver_internals():
    for name in mapfla.__all__:
        assert getattr(mapfla, name) is not None, name
    for name in ("Workspace", "GraphView", "EdgeContext", "reverse_plan"):
        assert name not in mapfla.__all__
        assert not hasattr(mapfla, name)
