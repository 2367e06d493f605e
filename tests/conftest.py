import heapq
from itertools import count

import yaml
import pytest

from flowgate.dsl import load_home, parse_rules


MINI_HOME = {
    "name": "mini",
    "devices": [
        {"id": "ps1", "label": "presence fob", "room": "office", "attributes": [
            {"name": "presence", "kind": "binary", "values": ["present", "not-present"],
             "active": "present", "initial": "not-present"},
        ]},
        {"id": "ts1", "label": "temperature sensor", "room": "office", "attributes": [
            {"name": "temperature", "kind": "numeric", "initial": 70},
        ]},
        {"id": "am1", "label": "multisensor", "room": "office", "attributes": [
            {"name": "humidity", "kind": "numeric", "initial": 50},
            {"name": "motion", "kind": "binary", "values": ["active", "inactive"],
             "active": "active", "initial": "inactive"},
        ]},
        {"id": "mo1", "label": "office motion", "room": "office", "attributes": [
            {"name": "motion", "kind": "binary", "values": ["active", "inactive"],
             "active": "active", "initial": "inactive"},
        ]},
        {"id": "f1", "label": "fan", "room": "office", "attributes": [
            {"name": "switch", "kind": "binary", "values": ["on", "off"],
             "active": "on", "initial": "off", "writable": True},
        ]},
        {"id": "sl1", "label": "light", "room": "office", "attributes": [
            {"name": "switch", "kind": "binary", "values": ["on", "off"],
             "active": "on", "initial": "off", "writable": True},
        ]},
        {"id": "mode1", "label": "mode hub", "room": "virtual", "attributes": [
            {"name": "mode", "kind": "enumerated", "values": ["home", "away", "vacation"],
             "initial": "home"},
        ]},
    ],
}

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
