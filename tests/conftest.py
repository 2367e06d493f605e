import heapq
from itertools import count
from pathlib import Path

import yaml
import pytest

from flowgate.dsl import load_home, parse_rules


# The mini home of the unit tests and of the mini scenario: a presence fob,
# a temperature sensor, a multisensor, a motion sensor, a fan, a light and
# a three-member mode.
MINI_HOME = yaml.safe_load(
    (Path(__file__).resolve().parent.parent / "scenarios" / "mini" / "home.yaml").read_text())

R1_TEXT = "r1: when ps1.presence == present if ts1.temperature > 86 then f1.switch := on"


@pytest.fixture(scope="session")
def mini_registry():
    return load_home(yaml.safe_dump(MINI_HOME))


@pytest.fixture(scope="session")
def r1(mini_registry):
    return parse_rules(R1_TEXT, mini_registry)[0]


class Deadlines:
    """The deadline hook of an engine or a platform run alone: a heap of
    the hook's calls, by deadline and then in call order."""

    def __init__(self):
        self.heap = []
        self._seq = count()

    def __call__(self, when, *work):
        heapq.heappush(self.heap, (when, next(self._seq), (when, *work)))


def run_due(component, until):
    """Tick ``component`` for every deadline its ``Deadlines`` hook holds up
    to ``until``, in order (an engine's ``schedule``, else a platform's
    ``wake``); returns what the ticks emitted."""
    heap = (component.schedule if hasattr(component, "schedule") else component.wake).heap
    out = []
    while heap and heap[0][0] <= until:
        out.extend(component.tick(*heapq.heappop(heap)[2]) or ())
    return out
