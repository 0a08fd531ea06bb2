import pytest

from acmslab.charts import chart_from_text


@pytest.fixture(autouse=True)
def fresh_chart_cache():
    """Every test starts with an empty chart cache, so a test that counts
    parses or builds does not depend on which tests ran before it, and a
    chart built under one test's monkeypatch reaches no other test."""
    chart_from_text.cache_clear()
