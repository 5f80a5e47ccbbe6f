"""Speed of the CPU the benchmark runs on, sampled while it runs.

On a shared host the core's speed changes with the neighbours' load: the
same laftr call takes up to about 1.9x longer for seconds at a time, and
whole runs can fall in a slow phase, so raw wall times of one run spread by
30% or more between runs. A pacer process, pinned to the benchmark's CPU,
wakes every ``INTERVAL`` seconds and times a fixed kernel (small-array numpy
and interpreter work, like laftr's hot loops) in its own CPU time, which
leaves out the time the benchmark itself holds the CPU. A timed interval
counts the benchmark's own CPU time in it, which leaves out the time other
processes (the pacer too) held the CPU, rescaled by the mean of
``KERNEL_REF_S / kernel time`` over the samples taken during it: its
length at the reference speed of an unloaded core.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import numpy as np

INTERVAL = 0.025
# kernel CPU time on an unloaded core of the reference host (see README)
KERNEL_REF_S = 0.9e-3


def kernel(x: np.ndarray) -> float:
    """Small-array numpy calls, then tuple building, number formatting and
    string parsing: the mix of laftr's sweeps, scoring loop and text I/O."""
    total = 0.0
    for step in range(60):
        total += float(np.log1p(np.exp(-np.abs(x - step))).sum())
    pairs = [(i, i * 7 % 13) for i in range(300)]
    text = "".join(f"{i} {j} {i * 0.37:.17g}\n" for i, j in pairs)
    for line in text.splitlines():
        a, b, p = line.split()
        total += int(a) + int(b) + float(p)
    return total


def _sample(cpu: int) -> None:
    """Sampler loop: runs until standard input closes, then prints its samples."""
    os.sched_setaffinity(0, {cpu})
    x = np.linspace(-4.0, 4.0, 160)
    kernel(x)
    samples = []
    stop = threading.Event()
    threading.Thread(target=lambda: (sys.stdin.read(), stop.set()), daemon=True).start()
    while not stop.is_set():
        time.sleep(INTERVAL)
        start = time.perf_counter()
        cpu_start = time.process_time()
        kernel(x)
        samples.append((start, time.process_time() - cpu_start))
    json.dump(samples, sys.stdout)


class Pacer:
    """Runs the sampler beside the benchmark; both are pinned to one CPU."""

    def __init__(self):
        self.cpu = min(os.sched_getaffinity(0))
        self.times = np.zeros(0)
        self.kernel_s = np.zeros(0)

    def __enter__(self) -> "Pacer":
        os.sched_setaffinity(0, {self.cpu})
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(self.cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self._proc.communicate(input="", timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.communicate()
            raise
        samples = np.asarray(json.loads(out), dtype=float).reshape(-1, 2)
        self.times, self.kernel_s = samples[:, 0], samples[:, 1]

    def scaled(self, span: tuple[float, float, float, float]) -> float:
        """CPU seconds the benchmark spent in ``span`` (wall start, wall end,
        CPU start, CPU end), at the reference speed: each pacer sample in
        the interval weighs the time around it by its speed."""
        wall_start, wall_end, cpu_start, cpu_end = span
        if self.kernel_s.size == 0:
            raise RuntimeError("the pacer recorded no samples")
        sel = (self.times >= wall_start - INTERVAL) & (self.times <= wall_end)
        if not sel.any():
            sel = np.abs(self.times - wall_start) == np.abs(self.times - wall_start).min()
        return (cpu_end - cpu_start) * float(np.mean(KERNEL_REF_S / self.kernel_s[sel]))


if __name__ == "__main__":
    _sample(int(sys.argv[1]))
