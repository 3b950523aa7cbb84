"""A fixed slice of interpreter work that tells how fast the host runs now.

The benchmark runs on shared virtual CPUs whose speed drifts by tens of
percent over minutes, for reasons outside the benchmark. ``run.py`` times
this slice between its samples and divides the drift out of each
timing: a reported time is the measured time scaled by
``REFERENCE_S / (median time of the slice in the same run)``.

The slice uses only the standard library and never changes with the
code under test. It mixes the kinds of work p4flowgen does: unmarshalling
code objects (as an import does), JSON parsing and dumping, dict and
attribute access in a call-heavy loop, hex round trips of bytes and a
scattered walk over a heap larger than the CPU caches.

    python3 perfbench/calibration.py     # median of 50 slices, in seconds
"""

from __future__ import annotations

import json
import marshal
import statistics
import time

# The median slice time on the machine the bounds were set on (2 vCPU,
# Python 3.11). Reported times are in seconds of that machine.
REFERENCE_S = 0.035

_SOURCE = "\n".join(
    f"def f{i}(a, b=({i}, 'x{i}'), *c, **d):\n"
    f"    v = [a + k for k in range({i % 7})]\n"
    f"    return {{'n': {i}, 'v': v, 's': 'name{i}'.upper()}}\n"
    f"class C{i}:\n"
    f"    x = {i}\n"
    f"    def m(self):\n"
    f"        return self.x * {i}\n"
    for i in range(60)
)
_CODE = marshal.dumps(compile(_SOURCE, "<calibration>", "exec"))
_DOC = [
    {"name": f"item{i}", "port": i * 257 % 65536, "payload": bytes(range(i % 64)).hex(),
     "fields": [{"w": w, "v": str(i * w)} for w in (8, 16, 32)]}
    for i in range(120)
]
_BYTES = bytes(range(256)) * 6
# A heap larger than the CPU caches, visited in a scattered order, so that
# the slice slows down with memory contention as well as with CPU time.
_HEAP = [{"k": i, "v": [i, str(i)]} for i in range(60000)]
_ORDER = [i * 7919 % len(_HEAP) for i in range(8000)]


class _Node:
    __slots__ = ("kind", "value", "next")

    def __init__(self, kind, value, next_):
        self.kind, self.value, self.next = kind, value, next_

    def step(self, env):
        env[self.kind] = (env.get(self.kind, 0) + self.value) & 0xFFFFFFFF
        return self.next


def work() -> int:
    """One slice; returns a checksum so that nothing is optimised away."""
    total = 0
    for _ in range(6):
        namespace: dict = {}
        exec(marshal.loads(_CODE), namespace)
        total += len(namespace)
    for _ in range(2):
        text = json.dumps(_DOC, indent=2)
        total += len(json.loads(text))
    node = None
    for i in range(40):
        node = _Node(f"k{i % 5}", i, node)
    env: dict = {}
    for _ in range(800):
        cursor = node
        while cursor is not None:
            cursor = cursor.step(env)
    total += sum(env.values())
    for _ in range(40):
        total += len(bytes.fromhex(_BYTES.hex()))
    for i in _ORDER:
        entry = _HEAP[i]
        total += entry["k"] + len(entry["v"][1])
    return total


def time_slice() -> float:
    """Wall seconds of one slice."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


if __name__ == "__main__":
    work()
    print(statistics.median(time_slice() for _ in range(50)))
