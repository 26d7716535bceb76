"""The whole-program rules RPR101–RPR105.

Each rule is a query over an analyzed :class:`~repro.analysis.effects
.engine.Project` and yields :class:`~repro.analysis.core.Finding`
records whose message carries a *witness*: the exact call chain from
the rule's root to the offending site, so a violation three helpers
deep reads as a path, not a location.  Findings respect ``# repro:
noqa[RPR10x]`` on any physical line of the offending statement — the
explicit stub-annotation escape hatch for behavior that is deliberate
(e.g. the documented ``ValueError`` shape contract of the batch
validators).

DESIGN.md §6.2 maps each rule to the design invariant it proves.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.analysis.core import Finding
from repro.analysis.effects.engine import (
    FunctionInfo,
    Project,
    build_project,
    build_project_from_sources,
)

#: The observability modules DESIGN §9 declares strictly read-only.
PURE_OBS_MODULES = (
    "repro.obs.quality",
    "repro.obs.timeseries",
    "repro.obs.audit",
    "repro.obs.slo",
)

#: Effects that break the read-only/deterministic claim of RPR101.
_IMPURE = ("rng", "clock", "fs", "net", "mutates_shared")

#: Hot-path roots of RPR102: the session execute paths plus every
#: batch-predict primitive in the core package.
_HOT_ROOT_METHODS = (
    "repro.core.framework.TemplateSession.execute",
    "repro.core.framework.TemplateSession.execute_batch",
)

#: Modules whose *clock* use is injected by construction (mirrors the
#: per-file RPR002 exemption: the clock sources and the simulator).
_CLOCK_EXEMPT = ("repro.resilience", "repro.simulation")

#: Predictor modules whose synopsis mutations are journaled (RPR105).
JOURNALED_MODULES = (
    "repro.core.histogram_predictor",
    "repro.core.lsh_predictor",
)
#: Synopsis state of the batch-invalidation contract: mutating any of
#: these must bump ``_mutations``.  The columnar bucket store counts its
#: own mutations, and a predictor calling a mutator on its ``_store``
#: must bump the predictor's counter too.
SYNOPSIS_MODULES = (*JOURNALED_MODULES, "repro.histograms.store")
SYNOPSIS_ATTRS = frozenset(
    {
        "_histograms",
        "_store",
        "_columns",
        "_lengths",
        "_counts",
        "_cost_sums",
        "total_points",
        "total_mass",
    }
)
_MUTATION_COUNTER = "_mutations"

#: The per-class lifecycle emission helper RPR105 requires mutating
#: entries to reach (``repro.obs.events`` journal discipline).
_EMIT_METHOD = "_emit_event"

#: Public-API packages whose escaping exceptions must be documented
#: ``repro.exceptions`` types (RPR104).
PUBLIC_API_MODULES = ("repro.service", "repro.core", "repro.resilience")

#: Non-repro exceptions allowed to escape: programmer-contract
#: signals, not runtime failures.
_ALLOWED_ESCAPES = frozenset({"NotImplementedError"})


class EffectRule:
    """Base class for one whole-program check."""

    code = "RPR100"
    title = ""
    severity = "error"
    rationale = ""
    scope = ""

    def check(self, project: Project) -> "Iterator[Finding]":
        raise NotImplementedError


def _module_in(module: str, prefixes: "tuple[str, ...]") -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


def _make_finding(
    project: Project,
    rule: "EffectRule",
    info: FunctionInfo,
    lineno: int,
    end_lineno: int,
    message: str,
) -> "Finding | None":
    if project.suppressed(info, rule.code, lineno, end_lineno):
        return None
    ctx = project.modules[info.module].ctx
    return Finding(
        rule=rule.code,
        severity=rule.severity,
        path=info.path,
        line=lineno,
        col=1,
        message=message,
        snippet=ctx.line_text(lineno),
    )


def _effect_findings(
    project: Project,
    rule: "EffectRule",
    roots: "list[str]",
    effects: "tuple[str, ...]",
    describe: str,
    exempt_sink: "tuple[str, ...]" = (),
) -> "Iterator[Finding]":
    """Shared shape of RPR101/RPR102: walk the closure of ``roots``,
    anchor one finding per (sink function, effect) at the local effect
    site, witness the chain back to the root."""
    parents = project.reachable(roots)
    seen: set = set()
    for qualname in parents:
        info = project.functions[qualname]
        for site in info.effect_sites:
            if site.effect not in effects:
                continue
            if site.effect == "clock" and _module_in(
                info.module, exempt_sink
            ):
                continue
            key = (qualname, site.effect, site.lineno)
            if key in seen:
                continue
            seen.add(key)
            chain = project.witness(parents, qualname)
            finding = _make_finding(
                project,
                rule,
                info,
                site.lineno,
                site.end_lineno,
                f"{describe}: {site.detail} has effect "
                f"'{site.effect}'; call chain: {chain}",
            )
            if finding is not None:
                yield finding


class ObsLayerPurity(EffectRule):
    """RPR101: the telemetry read path is transitively pure.

    DESIGN §9 sells ``repro.obs.quality``/``timeseries``/``audit``/
    ``slo`` as strictly read-only, RNG-free and clock-free — the
    scorecard may be computed mid-run without perturbing a single
    decision.  This proves it interprocedurally: no function in those
    modules may reach unseeded RNG, a raw clock, I/O, or a write to
    state it does not own, no matter how many helpers deep.
    """

    code = "RPR101"
    title = "observability read path reaches an impure effect"
    rationale = (
        "keep the quality/timeseries/audit/slo modules free of RNG, "
        "raw clocks, I/O and shared-state writes; inject what varies"
    )
    scope = ", ".join(PURE_OBS_MODULES)

    def check(self, project: Project) -> "Iterator[Finding]":
        roots = [
            info.qualname
            for info in project.functions_in(*PURE_OBS_MODULES)
        ]
        yield from _effect_findings(
            project,
            self,
            roots,
            _IMPURE,
            "impure effect reachable from the observability layer",
        )


class PredictPathDeterminism(EffectRule):
    """RPR102: the interprocedural closure of RPR001/RPR002.

    No path from ``TemplateSession.execute``/``execute_batch`` or any
    core ``predict_batch`` primitive may reach unseeded RNG or the raw
    wall clock.  The injected aliases (``system_clock``/
    ``system_sleep``) are effect-free by stub, and the clock half
    exempts ``repro.resilience``/``repro.simulation`` sinks exactly as
    the per-file rule does.
    """

    code = "RPR102"
    title = "predict path reaches unseeded RNG or the raw wall clock"
    rationale = (
        "thread seeded Generators and the injected clock through every "
        "helper the predict path calls"
    )
    scope = "closure of TemplateSession.execute/execute_batch, predict_batch"

    def check(self, project: Project) -> "Iterator[Finding]":
        roots = [
            qualname
            for qualname in _HOT_ROOT_METHODS
            if qualname in project.functions
        ]
        roots += [
            info.qualname
            for info in project.functions_in("repro.core")
            if info.name == "predict_batch"
        ]
        yield from _effect_findings(
            project,
            self,
            roots,
            ("rng", "clock"),
            "non-deterministic effect on the predict path",
            exempt_sink=_CLOCK_EXEMPT,
        )


class MutationDiscipline(EffectRule):
    """RPR103: every synopsis mutation bumps ``mutation_count``.

    ``TemplateSession.execute_batch`` prefetches predictions and
    invalidates the prefetched tail by comparing
    ``online.mutation_count`` across instances (the PR 6 contract).
    That only works if *every* runtime method that mutates the LSH /
    histogram synopsis arrays bumps ``_mutations`` — a silent mutator
    would serve stale prefetched predictions.  ``__init__`` and
    helpers reachable only from it are exempt: construction precedes
    any prefetch.
    """

    code = "RPR103"
    title = "synopsis mutation without a mutation_count bump"
    rationale = (
        "bump self._mutations in every runtime method that mutates "
        "the synopsis arrays (or call one that does)"
    )
    scope = ", ".join(SYNOPSIS_MODULES)

    def check(self, project: Project) -> "Iterator[Finding]":
        for cls_qualname, cls in sorted(project.classes.items()):
            if not _module_in(cls.module, SYNOPSIS_MODULES):
                continue
            methods = {
                name: project.functions[f"{cls_qualname}.{name}"]
                for name in cls.methods
                if f"{cls_qualname}.{name}" in project.functions
            }
            edges = {
                name: {
                    site.resolved.rsplit(".", 1)[-1]
                    for site in info.calls
                    if site.resolved is not None
                    and site.resolved.startswith(cls_qualname + ".")
                }
                for name, info in methods.items()
            }
            local_attrs = {
                name: (info.self_writes | info.self_mutated)
                & SYNOPSIS_ATTRS
                for name, info in methods.items()
            }
            mutates = self._closure(
                methods, edges, lambda info: bool(
                    local_attrs[info.name]
                )
            )
            bumps = self._closure(
                methods,
                edges,
                lambda info: _MUTATION_COUNTER in info.self_writes,
            )
            # The contract is per runtime *entry path*: every public
            # non-constructor method whose call closure mutates the
            # synopsis must bump (itself or via a callee).  A private
            # helper may mutate bump-free as long as every entry
            # reaching it bumps.
            entries = [
                name
                for name, info in sorted(methods.items())
                if info.is_public and name != "__init__"
            ]
            for name in entries:
                if name not in mutates or name in bumps:
                    continue
                info = methods[name]
                chain, attrs = self._mutation_witness(
                    name, edges, local_attrs
                )
                finding = _make_finding(
                    project,
                    self,
                    info,
                    info.lineno,
                    info.lineno,
                    f"{cls.name}.{name} mutates synopsis state "
                    f"({', '.join(sorted(attrs))}) without bumping "
                    f"{_MUTATION_COUNTER}; mutation chain: {chain}",
                )
                if finding is not None:
                    yield finding

    @staticmethod
    def _closure(methods: dict, edges: dict, predicate) -> set:
        satisfied = {
            name for name, info in methods.items() if predicate(info)
        }
        changed = True
        while changed:
            changed = False
            for name in methods:
                if name in satisfied:
                    continue
                if edges.get(name, set()) & satisfied:
                    satisfied.add(name)
                    changed = True
        return satisfied

    @staticmethod
    def _mutation_witness(
        entry: str, edges: dict, local_attrs: "dict[str, set]"
    ) -> "tuple[str, set]":
        """Shortest chain from ``entry`` to a locally-mutating method,
        plus the attrs mutated at the chain's end."""
        parents: dict = {entry: None}
        queue = [entry]
        while queue:
            current = queue.pop(0)
            if local_attrs.get(current):
                chain = []
                node: "str | None" = current
                while node is not None:
                    chain.append(node)
                    node = parents[node]
                return " -> ".join(reversed(chain)), local_attrs[current]
            for callee in edges.get(current, ()):
                if callee in local_attrs and callee not in parents:
                    parents[callee] = current
                    queue.append(callee)
        return entry, set()


class LifecycleEventCoverage(EffectRule):
    """RPR105: every synopsis mutation journals a lifecycle event.

    The lineage engine (``repro.obs.lineage``) reconstructs cache state
    purely from the event journal, so its conclusions are only as
    complete as the emission coverage: a public predictor method that
    bumps ``_mutations`` without reaching the class's ``_emit_event``
    helper mutates the learned state invisibly — ``repro lineage why``
    would answer from a journal with a hole in it.  Same per-entry
    closure discipline as RPR103: the entry may emit itself or via a
    callee, and ``__init__``-only construction paths are exempt (the
    journal is bound after construction, so pool replay is deliberately
    unjournaled).
    """

    code = "RPR105"
    title = "synopsis mutation without a lifecycle event emission"
    rationale = (
        "journal every runtime synopsis mutation: call self._emit_event "
        "(repro.obs.events) on each public path that bumps _mutations"
    )
    scope = ", ".join(JOURNALED_MODULES)

    def check(self, project: Project) -> "Iterator[Finding]":
        for cls_qualname, cls in sorted(project.classes.items()):
            if not _module_in(cls.module, JOURNALED_MODULES):
                continue
            methods = {
                name: project.functions[f"{cls_qualname}.{name}"]
                for name in cls.methods
                if f"{cls_qualname}.{name}" in project.functions
            }
            edges = {
                name: {
                    site.resolved.rsplit(".", 1)[-1]
                    for site in info.calls
                    if site.resolved is not None
                    and site.resolved.startswith(cls_qualname + ".")
                }
                for name, info in methods.items()
            }
            bumps = MutationDiscipline._closure(
                methods,
                edges,
                lambda info: _MUTATION_COUNTER in info.self_writes,
            )
            emits = MutationDiscipline._closure(
                methods, edges, lambda info: info.name == _EMIT_METHOD
            )
            bump_attrs = {
                name: (
                    {_MUTATION_COUNTER}
                    if _MUTATION_COUNTER in info.self_writes
                    else set()
                )
                for name, info in methods.items()
            }
            entries = [
                name
                for name, info in sorted(methods.items())
                if info.is_public and name != "__init__"
            ]
            for name in entries:
                if name not in bumps or name in emits:
                    continue
                info = methods[name]
                chain, __ = MutationDiscipline._mutation_witness(
                    name, edges, bump_attrs
                )
                finding = _make_finding(
                    project,
                    self,
                    info,
                    info.lineno,
                    info.lineno,
                    f"{cls.name}.{name} bumps {_MUTATION_COUNTER} "
                    f"without journaling a lifecycle event (no "
                    f"{_EMIT_METHOD} on the path); mutation chain: "
                    f"{chain}",
                )
                if finding is not None:
                    yield finding


class DocumentedPublicExceptions(EffectRule):
    """RPR104: the public API raises documented ``repro.exceptions``.

    README promises adopters one ``except ReproError`` catches every
    deliberate library failure.  This walks the closure of every
    public function in ``repro.service``/``core``/``resilience`` and
    flags any exception that can escape it without being a project
    exception type — accounting for the ``try``/``except`` masks on
    each call path.  ``NotImplementedError`` (abstract contracts) is
    allowed; dynamic re-raises are out of scope.
    """

    code = "RPR104"
    title = "undocumented exception escapes the public API"
    rationale = (
        "raise a repro.exceptions type (or catch-and-wrap) on every "
        "path reachable from the public surface"
    )
    scope = ", ".join(PUBLIC_API_MODULES)

    def check(self, project: Project) -> "Iterator[Finding]":
        roots = [
            info.qualname
            for info in project.functions_in(*PUBLIC_API_MODULES)
            if info.is_public
        ]
        seen: set = set()
        for root in sorted(roots):
            summary = project.functions[root].raises
            bad = {
                name
                for name in summary
                if name not in project.repro_exceptions
                and name not in _ALLOWED_ESCAPES
            }
            for name in sorted(bad):
                parents = project.raise_reachable([root], name)
                for qualname in parents:
                    info = project.functions[qualname]
                    for site in info.raise_sites:
                        if site.name != name or site.catches_all:
                            continue
                        if name in project.expand_caught(site.caught):
                            continue
                        key = (qualname, name, site.lineno)
                        if key in seen:
                            continue
                        seen.add(key)
                        chain = project.witness(parents, qualname)
                        finding = _make_finding(
                            project,
                            self,
                            info,
                            site.lineno,
                            site.end_lineno,
                            f"'{name}' escapes public API root "
                            f"{project.functions[root].display}; raise "
                            "a repro.exceptions type instead; call "
                            f"chain: {chain}",
                        )
                        if finding is not None:
                            yield finding


def effect_rules() -> "list[EffectRule]":
    """Fresh instances of the whole-program rules, code order."""
    return [
        ObsLayerPurity(),
        PredictPathDeterminism(),
        MutationDiscipline(),
        DocumentedPublicExceptions(),
        LifecycleEventCoverage(),
    ]


def run_effect_rules(
    project: Project, rules: "Iterable[EffectRule] | None" = None
) -> "list[Finding]":
    active = list(rules) if rules is not None else effect_rules()
    findings: "list[Finding]" = []
    for rule in active:
        findings.extend(rule.check(project))
    # One finding per fingerprintable site even when several roots
    # reach it (execute and execute_batch share most of the closure).
    unique: "dict[tuple, Finding]" = {}
    for finding in findings:
        key = (finding.rule, finding.path, finding.line, finding.message)
        unique.setdefault(key, finding)
    result = list(unique.values())
    result.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result


def analyze_paths(paths: "Iterable") -> "tuple[list[Finding], Project]":
    """Whole-program analysis of files/directories: ``(findings,
    project)`` — the project is kept for ``--graph-out``."""
    project = build_project(paths)
    return run_effect_rules(project), project


def analyze_sources(
    sources: "dict[str, str]",
) -> "tuple[list[Finding], Project]":
    """In-memory twin of :func:`analyze_paths` for tests/selftests."""
    project = build_project_from_sources(sources)
    return run_effect_rules(project), project


__all__ = [
    "EffectRule",
    "PUBLIC_API_MODULES",
    "PURE_OBS_MODULES",
    "SYNOPSIS_ATTRS",
    "JOURNALED_MODULES",
    "SYNOPSIS_MODULES",
    "analyze_paths",
    "analyze_sources",
    "effect_rules",
    "run_effect_rules",
]
