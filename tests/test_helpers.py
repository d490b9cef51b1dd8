"""The shared test helpers themselves."""

import pytest

from blockeq import IntMatrix, cokernel, equiv

from helpers import count_calls


class TestCountCalls:
    def test_second_counter_on_one_function_raises(self, monkeypatch):
        # The first counter replaced every binding, so a second one would
        # patch nothing and return a list that never fills.
        first = count_calls(monkeypatch, cokernel)
        with pytest.raises(LookupError, match="cokernel"):
            count_calls(monkeypatch, cokernel)
        equiv.cokernel(IntMatrix.from_rows([[2]]))
        assert len(first) == 1

    def test_holder_without_the_function_raises(self, monkeypatch):
        with pytest.raises(LookupError):
            count_calls(monkeypatch, cokernel, IntMatrix)

