import pytest


def pytest_collection_modifyitems(items):
    # The loader's unit tests run as under `-W error`: a numpy warning from
    # the vectorized parse must not reach stderr.
    for item in items:
        if item.path.name == "test_dataset.py":
            item.add_marker(pytest.mark.filterwarnings("error"))
