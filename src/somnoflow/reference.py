"""Literal, loop-based reference implementations of the event rules.

These mirror the rule statements one condition at a time, with no run-length
encoding or precomputation, and exist purely as an independent oracle for the
optimized engine in `events.py`. Keep them dumb.

Each function converts its input to a list of plain Python ints once at
entry, because element access on a numpy array costs far more than on a
list. The rule loops still index one minute at a time.
"""

from __future__ import annotations

import numpy as np


def ref_detect_sleep_time(states, sleep_confirm, awake_break):
    """Scan every awake-to-sleep transition in order; accept the first whose
    forward scan reaches `sleep_confirm` cumulative sleep minutes before any
    `awake_break`-minute contiguous awake stretch. Undecided at end = reject."""
    states = np.asarray(states).tolist()
    n = len(states)
    for c in range(n):
        if states[c] != 1:
            continue
        if c > 0 and states[c - 1] != 0:
            continue
        accrued = 0
        awake_run = 0
        accepted = False
        for i in range(c, n):
            if states[i] == 1:
                accrued += 1
                awake_run = 0
                if accrued >= sleep_confirm:
                    accepted = True
                    break
            else:
                awake_run += 1
                if awake_run >= awake_break:
                    break
        if accepted:
            return c
    return None


def ref_detect_wake_time(states, sleep_onset, wake_confirm, reentry_run):
    """Earliest sleep-to-awake transition after `sleep_onset` followed
    immediately by >= wake_confirm contiguous awake minutes, with no sleep run
    of >= reentry_run minutes anywhere later."""
    states = np.asarray(states).tolist()
    n = len(states)
    for c in range(sleep_onset + 1, n):
        if states[c] != 0 or states[c - 1] != 1:
            continue
        awake = 0
        i = c
        while i < n and states[i] == 0:
            awake += 1
            i += 1
        if awake < wake_confirm:
            continue
        # i is the first minute after the awake stretch; look for sleep reentry
        reentry = False
        run = 0
        for j in range(i, n):
            if states[j] == 1:
                run += 1
                if run >= reentry_run:
                    reentry = True
                    break
            else:
                run = 0
        if not reentry:
            return c
    return None


def ref_suppress_short_runs(states, min_run):
    """Flip the leftmost interior run shorter than min_run; repeat to fixpoint."""
    states = np.asarray(states).tolist()
    while True:
        runs = []
        for i, s in enumerate(states):
            if runs and runs[-1][0] == s:
                runs[-1][2] += 1
            else:
                runs.append([s, i, 1])
        for idx in range(1, len(runs) - 1):
            s, start, length = runs[idx]
            if length < min_run:
                for i in range(start, start + length):
                    states[i] = 1 - s
                break
        else:
            return states
