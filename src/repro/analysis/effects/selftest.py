"""Self-check for the whole-program rules: each RPR1xx rule fires on a
seeded multi-module violation and stays quiet on its clean twin.

Mirrors :mod:`repro.analysis.selftest` one level up: the violations
are deliberately *interprocedural* (a helper two or three calls deep,
sometimes behind a ``from ... import x as y`` re-export) so a
regression in call-graph construction, re-export chasing, or fixpoint
propagation fails the selftest — not just a regression in the rule's
final predicate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.effects.rules import analyze_sources


@dataclass(frozen=True)
class EffectSelfTestCase:
    """One rule's positive/negative multi-module project pair."""

    rule: str
    bad: "dict[str, str]"
    good: "dict[str, str]"
    bad_findings: int = 1
    #: Substrings the bad finding's witness chain must contain.
    witness_contains: "tuple[str, ...]" = ()


_EXCEPTIONS_MODULE = (
    "class ReproError(Exception):\n"
    "    pass\n"
    "class PredictionError(ReproError):\n"
    "    pass\n"
)

EFFECT_SELFTEST_CASES = (
    # RPR101: quality helper reaching random.random three calls deep,
    # the last hop through a re-exported alias.
    EffectSelfTestCase(
        rule="RPR101",
        bad={
            "repro.obs.quality": (
                "from repro.obs.qhelpers import spread\n"
                "def scorecard(values):\n"
                "    return spread(values)\n"
            ),
            "repro.obs.qhelpers": (
                "from repro.util.entropy import jitter as fuzz\n"
                "def spread(values):\n"
                "    return fuzz(values)\n"
            ),
            "repro.util.entropy": (
                "import random\n"
                "def jitter(values):\n"
                "    return [v + random.random() for v in values]\n"
            ),
        },
        good={
            "repro.obs.quality": (
                "from repro.obs.qhelpers import spread\n"
                "def scorecard(values):\n"
                "    return spread(values)\n"
            ),
            "repro.obs.qhelpers": (
                "def spread(values):\n"
                "    return max(values) - min(values)\n"
            ),
        },
        witness_contains=("scorecard", "spread", "jitter", "random.random"),
    ),
    # RPR102: TemplateSession.execute reaching time.time through a
    # module helper; the clean twin threads the injected alias.
    EffectSelfTestCase(
        rule="RPR102",
        bad={
            "repro.core.framework": (
                "from repro.core.timing import stamp\n"
                "class TemplateSession:\n"
                "    def execute(self, x):\n"
                "        return self._run(x)\n"
                "    def _run(self, x):\n"
                "        return stamp(x)\n"
            ),
            "repro.core.timing": (
                "import time\n"
                "def stamp(x):\n"
                "    return x, time.time()\n"
            ),
        },
        good={
            "repro.core.framework": (
                "from repro.resilience.clocks import system_clock\n"
                "class TemplateSession:\n"
                "    def __init__(self, clock=system_clock):\n"
                "        self._clock = clock\n"
                "    def execute(self, x):\n"
                "        return x, self._clock()\n"
            ),
            "repro.resilience.clocks": (
                "import time\n"
                "system_clock = time.monotonic\n"
            ),
        },
        witness_contains=("TemplateSession.execute", "_run", "stamp"),
    ),
    # RPR103: a public runtime method mutating the synopsis through a
    # private helper without bumping _mutations; the twin bumps.  The
    # init-only builder must stay exempt in both.
    EffectSelfTestCase(
        rule="RPR103",
        bad={
            "repro.core.lsh_predictor": (
                "class LshPredictor:\n"
                "    def __init__(self):\n"
                "        self._counts = {}\n"
                "        self._mutations = 0\n"
                "        self._seed()\n"
                "    def _seed(self):\n"
                "        self._counts[0] = 0.0\n"
                "    def insert(self, cell):\n"
                "        self._store(cell)\n"
                "    def _store(self, cell):\n"
                "        self._counts[cell] = 1.0\n"
            ),
        },
        good={
            "repro.core.lsh_predictor": (
                "class LshPredictor:\n"
                "    def __init__(self):\n"
                "        self._counts = {}\n"
                "        self._mutations = 0\n"
                "        self._seed()\n"
                "    def _seed(self):\n"
                "        self._counts[0] = 0.0\n"
                "    def insert(self, cell):\n"
                "        self._store(cell)\n"
                "        self._mutations += 1\n"
                "    def _store(self, cell):\n"
                "        self._counts[cell] = 1.0\n"
            ),
        },
        witness_contains=("insert", "_store"),
    ),
    # RPR103 on the columnar bucket store: a predictor method calling a
    # store mutator through a helper must bump the predictor's counter,
    # and the store's own public mutators must bump the store's.
    EffectSelfTestCase(
        rule="RPR103",
        bad={
            "repro.core.histogram_predictor": (
                "class HistogramPredictor:\n"
                "    def __init__(self, store):\n"
                "        self._store = store\n"
                "        self._mutations = 0\n"
                "    def compact(self, budget):\n"
                "        self._merge(budget)\n"
                "    def _merge(self, budget):\n"
                "        self._store.clear()\n"
            ),
            "repro.histograms.store": (
                "class BucketStore:\n"
                "    def __init__(self, rows):\n"
                "        self._lengths = [0] * rows\n"
                "        self._mutations = 0\n"
                "    def clear(self):\n"
                "        self._mutations += 1\n"
                "        self._empty()\n"
                "    def truncate(self, row):\n"
                "        self._lengths[row] = 0\n"
                "    def _empty(self):\n"
                "        self._lengths = []\n"
            ),
        },
        good={
            "repro.core.histogram_predictor": (
                "class HistogramPredictor:\n"
                "    def __init__(self, store):\n"
                "        self._store = store\n"
                "        self._mutations = 0\n"
                "    def compact(self, budget):\n"
                "        self._merge(budget)\n"
                "        self._mutations += 1\n"
                "    def _merge(self, budget):\n"
                "        self._store.clear()\n"
            ),
            "repro.histograms.store": (
                "class BucketStore:\n"
                "    def __init__(self, rows):\n"
                "        self._lengths = [0] * rows\n"
                "        self._mutations = 0\n"
                "    def clear(self):\n"
                "        self._mutations += 1\n"
                "        self._empty()\n"
                "    def truncate(self, row):\n"
                "        self._lengths[row] = 0\n"
                "        self._mutations += 1\n"
                "    def _empty(self):\n"
                "        self._lengths = []\n"
            ),
        },
        bad_findings=2,
        witness_contains=("compact", "_merge", "_store"),
    ),
    # RPR105: a public predictor method bumping _mutations through a
    # helper without any _emit_event on the path; the twin journals
    # (via the same helper, proving closure propagation).  The
    # init-only pool replay stays exempt and unjournaled in both.
    EffectSelfTestCase(
        rule="RPR105",
        bad={
            "repro.core.lsh_predictor": (
                "class LshPredictor:\n"
                "    def __init__(self):\n"
                "        self._events = None\n"
                "        self._mutations = 0\n"
                "        self._insert_pool()\n"
                "    def _insert_pool(self):\n"
                "        self._mutations += 1\n"
                "    def _emit_event(self, kind, **fields):\n"
                "        if self._events is not None:\n"
                "            self._events(kind, **fields)\n"
                "    def insert(self, cell):\n"
                "        self._store(cell)\n"
                "    def _store(self, cell):\n"
                "        self._mutations += 1\n"
            ),
        },
        good={
            "repro.core.lsh_predictor": (
                "class LshPredictor:\n"
                "    def __init__(self):\n"
                "        self._events = None\n"
                "        self._mutations = 0\n"
                "        self._insert_pool()\n"
                "    def _insert_pool(self):\n"
                "        self._mutations += 1\n"
                "    def _emit_event(self, kind, **fields):\n"
                "        if self._events is not None:\n"
                "            self._events(kind, **fields)\n"
                "    def insert(self, cell):\n"
                "        self._store(cell)\n"
                "    def _store(self, cell):\n"
                "        self._mutations += 1\n"
                "        self._emit_event('point_inserted', plan=cell)\n"
            ),
        },
        witness_contains=("insert", "_store", "_emit_event"),
    ),
    # RPR104: a ValueError escaping a public core function through a
    # helper; the twin raises the project exception type (and a
    # wrapped variant proves catch masks subtract).
    EffectSelfTestCase(
        rule="RPR104",
        bad={
            "repro.exceptions": _EXCEPTIONS_MODULE,
            "repro.core.api": (
                "from repro.core.checks import _validate\n"
                "def predict(x):\n"
                "    _validate(x)\n"
                "    return x\n"
            ),
            "repro.core.checks": (
                "def _validate(x):\n"
                "    if x is None:\n"
                "        raise ValueError('x required')\n"
            ),
        },
        good={
            "repro.exceptions": _EXCEPTIONS_MODULE,
            "repro.core.api": (
                "from repro.core.checks import _validate\n"
                "from repro.exceptions import PredictionError\n"
                "def predict(x):\n"
                "    try:\n"
                "        _validate(x)\n"
                "    except ValueError as exc:\n"
                "        raise PredictionError(str(exc)) from exc\n"
                "    return x\n"
            ),
            "repro.core.checks": (
                "def _validate(x):\n"
                "    if x is None:\n"
                "        raise ValueError('x required')\n"
            ),
        },
        witness_contains=("predict", "_validate", "ValueError"),
    ),
)


def run_effects_selftest() -> "list[str]":
    """Exercise every case; returns failure descriptions (empty = OK)."""
    failures: "list[str]" = []
    for case in EFFECT_SELFTEST_CASES:
        findings, __ = analyze_sources(case.bad)
        bad = [f for f in findings if f.rule == case.rule]
        if len(bad) != case.bad_findings:
            failures.append(
                f"{case.rule}: bad project produced {len(bad)} "
                f"finding(s), expected {case.bad_findings}"
            )
        else:
            message = bad[0].message
            for needle in case.witness_contains:
                if needle not in message:
                    failures.append(
                        f"{case.rule}: witness missing {needle!r} in "
                        f"{message!r}"
                    )
        findings, __ = analyze_sources(case.good)
        good = [f for f in findings if f.rule == case.rule]
        if good:
            failures.append(
                f"{case.rule}: good project produced {len(good)} "
                f"unexpected finding(s): {good[0].message}"
            )
    return failures
