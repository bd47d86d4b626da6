"""The unified view-selection search core (Section 5).

One driver owns *all* run bookkeeping — budget, stop conditions,
duplicate detection, best-state tracking, the Figure-5 accounting and
the Figure-7 cost trace — and every strategy of the paper is a thin
policy object on top of it:

========  =============================  ===================================
name      frontier policy                stratum policy
========  =============================  ===================================
exnaive   round-robin, lazy candidates   none — any transition anywhere
exstr     round-robin, lazy candidates   resume at the creating stratum
dfs       cost-ordered stack             resume at the creating stratum
gstr      per-stratum stack, keep best   one stratum at a time, fresh dedup
descent   per-view work queue            first improving JC/VB/SC move
========  =============================  ===================================

The split is the :class:`SearchStrategy` protocol: a strategy decides
*which* state to look at next and *which* transition kinds apply from
it, and routes every created successor through the core's
:meth:`SearchCore.consider` / :meth:`SearchCore.complete` pair — so
budget, stoptt/stopvar, dedup and best-state accounting live in exactly
one place. ``complete`` prices whole waves of surviving successors at
once, in process, through the incremental
:class:`~repro.selection.costs.CostModel`.

Options shared by all strategies:

* **AVF** (aggressive view fusion): immediately closes every new state
  under View Fusion and keeps only the fused fixpoint — sound because VF
  never increases cost (Section 3.3).
* **Stop conditions** ``stoptt`` / ``stopvar`` / ``stoptime``
  (Section 5.2): discard states with a full-triple-table view, discard
  states with an all-variable view, and bound the wall-clock time. A
  stop condition satisfied by the initial state is disabled, as the
  paper requires.

:func:`run_search` (a strategy name or object) is the one way to run a
search; :class:`~repro.selection.recommender.ViewSelector` calls it.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Protocol, Sequence, runtime_checkable

from repro.obs import metrics, tracing
from repro.query.cq import ConjunctiveQuery, Variable
from repro.selection.costs import CostBreakdown, CostModel
from repro.selection.state import State, derive_key, fusable_pairs
from repro.selection.transitions import (
    STRATIFIED_ORDER,
    Move,
    Transition,
    TransitionEnumerator,
    TransitionKind,
)


@dataclass(frozen=True, slots=True)
class SearchBudget:
    """Limits on a search run.

    ``time_limit`` is the stoptime condition in seconds; ``max_states``
    bounds the number of states created (a memory stand-in). ``None``
    means unlimited.
    """

    time_limit: float | None = None
    max_states: int | None = None


@dataclass(slots=True)
class SearchStats:
    """State accounting in the sense of Figure 5."""

    created: int = 0
    duplicates: int = 0
    discarded: int = 0
    explored: int = 0
    transitions: int = 0


@dataclass
class SearchResult:
    """Outcome of one search run."""

    best_state: State
    best_cost: float
    initial_cost: float
    stats: SearchStats
    runtime: float
    cost_history: list[tuple[float, float]] = field(default_factory=list)
    completed: bool = True
    strategy: str = ""

    @property
    def rcr(self) -> float:
        """Relative cost reduction (Section 6.1):
        ``(cε(S0) - cε(Sb)) / cε(S0)``."""
        if self.initial_cost == 0:
            return 0.0
        return (self.initial_cost - self.best_cost) / self.initial_cost

    def average_view_atoms(self) -> float:
        """Average atoms per recommended view (reported in Section 6.4)."""
        views = self.best_state.views
        return sum(len(view) for view in views) / len(views)


def view_is_triple_table(view: ConjunctiveQuery) -> bool:
    """stoptt: the view is the full triple table ``t(s, p, o)``."""
    if len(view.atoms) != 1:
        return False
    atom = view.atoms[0]
    terms = list(atom)
    return all(isinstance(t, Variable) for t in terms) and len(set(terms)) == 3


def view_is_all_variables(view: ConjunctiveQuery) -> bool:
    """stopvar: the view contains no constants at all."""
    return not view.constants()


def fusion_moves(
    views: Iterable[ConjunctiveQuery], enumerator: TransitionEnumerator
) -> list[Move]:
    """The View Fusions AVF applies to a view set, in order: each fuses
    the first fusable pair left. Works on the view list alone, so a
    successor's closure is known before the successor is built."""
    views = list(views)
    moves = []
    while pairs := fusable_pairs(views):
        move = enumerator.vf_move(*pairs[0])
        moves.append(move)
        views = [v for v in views if all(v is not r for r in move.removed)]
        views.extend(move.added)
    return moves


def _fused(state: State, moves: Sequence[Move]) -> State:
    for move in moves:
        state = Transition(TransitionKind.VF, state, move).result
    return state


def avf_closure(
    state: State, enumerator: TransitionEnumerator, run: "SearchCore | None" = None
) -> State:
    """Aggressive View Fusion: fuse until no two views are isomorphic.

    Intermediate states are discarded (and counted as such); repeated
    fusions converge to a single state since each strictly shrinks the
    view count.
    """
    moves = fusion_moves(state.views, enumerator)
    if run is not None:
        run.count_fusions(len(moves))
    return _fused(state, moves)


_KIND_INDEX = {kind: index for index, kind in enumerate(STRATIFIED_ORDER)}


@dataclass(slots=True)
class SearchNode:
    """One frontier entry: a state, its exact cost, and the minimum
    stratum index still applicable from it (stratified strategies)."""

    state: State
    breakdown: CostBreakdown
    stage: int = 0

    @property
    def cost(self) -> float:
        return self.breakdown.total


class SearchCore:
    """Shared bookkeeping and successor accounting for one search run.

    Strategies create successors in two steps: :meth:`consider` applies
    the per-successor accounting (created / AVF closure / duplicate /
    stop-condition) and returns the surviving state or ``None``;
    :meth:`complete` prices a wave of survivors, offers each as a
    candidate best, and wraps them into :class:`SearchNode` entries.
    """

    def __init__(
        self,
        initial: State,
        cost_model: CostModel,
        enumerator: TransitionEnumerator,
        budget: SearchBudget,
        use_avf: bool,
        use_stoptt: bool,
        use_stopvar: bool,
    ) -> None:
        self.cost_model = cost_model
        self.enumerator = enumerator
        self.budget = budget
        self.use_avf = use_avf
        self.stats = SearchStats()
        self.started = time.perf_counter()
        self.initial_breakdown = cost_model.cost(initial)
        self.initial_cost = self.initial_breakdown.total
        self.best_state = initial
        self.best_cost = self.initial_cost
        self.cost_history: list[tuple[float, float]] = [(0.0, self.initial_cost)]
        self.completed = True
        # Stop conditions satisfied by S0 are disabled (Section 5.2).
        self.use_stoptt = use_stoptt and not any(
            view_is_triple_table(v) for v in initial.views
        )
        self.use_stopvar = use_stopvar and not any(
            view_is_all_variables(v) for v in initial.views
        )
        self.seen: set[tuple] = {initial.key}
        self.root = SearchNode(initial, self.initial_breakdown, 0)
        # Baseline for the memo-hit deltas this run publishes through
        # the metrics registry (the cost model may be shared across
        # runs, so absolute counter values are not ours to claim).
        self._memo_baseline = dict(cost_model.counters)

    # -- run bookkeeping ------------------------------------------------

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def out_of_budget(self) -> bool:
        budget = self.budget
        if budget.time_limit is not None and self.elapsed() > budget.time_limit:
            self.completed = False
            return True
        if budget.max_states is not None and self.stats.created > budget.max_states:
            self.completed = False
            return True
        return False

    def rejected(self, views: Iterable[ConjunctiveQuery]) -> bool:
        """Apply the stoptt / stopvar stop conditions to ``views``."""
        for view in views:
            flags = view.__dict__.get("_stop_flags")
            if flags is None:
                flags = (view_is_triple_table(view), view_is_all_variables(view))
                view.__dict__["_stop_flags"] = flags
            if (self.use_stoptt and flags[0]) or (self.use_stopvar and flags[1]):
                return True
        return False

    def offer(self, state: State, cost: float) -> None:
        """Record a (kept) state as a candidate best."""
        if cost < self.best_cost:
            self.best_cost = cost
            self.best_state = state
            self.cost_history.append((self.elapsed(), cost))

    def mark_explored(self, count: int = 1) -> None:
        """A strategy finished expanding ``count`` states."""
        self.stats.explored += count

    def discard(self, count: int = 1) -> None:
        """A strategy dropped ``count`` states it will not pursue
        (e.g. GSTR keeping only a stratum's best)."""
        self.stats.discarded += count

    def reset_dedup(self, *keys: tuple) -> None:
        """Restart duplicate detection from the given state keys (GSTR
        dedups per stratum, as in the paper)."""
        self.seen = set(keys)

    # -- successor pipeline ---------------------------------------------

    def consider(self, transition: Transition) -> State | None:
        """Account one created transition; returns the surviving state.

        Applies, in order: creation accounting, aggressive view fusion
        (never after a VF — the closure already is one), duplicate
        detection on canonical state keys, and the stoptt/stopvar stop
        conditions. ``None`` means the successor was consumed by the
        accounting (duplicate or discarded).

        Key first: the successor's key is derived from the parent's
        through the transition's and the closure's view deltas, the stop
        conditions look at the added views only (the parent's passed
        them; a fused view has the body of a view it replaced), and a
        duplicate or discarded successor never builds a :class:`State`.
        """
        self.stats.created += 1
        self.stats.transitions += 1
        key = transition.key
        fusions: list[Move] = []
        source, removed, added = transition.source, transition.removed, transition.added
        if (
            self.use_avf
            and transition.kind is not TransitionKind.VF
            and source.may_fuse(removed, added)
        ):
            views = [v for v in source.views if all(v is not r for r in removed)]
            fusions = fusion_moves(views + list(added), self.enumerator)
            self.count_fusions(len(fusions))
            for move in fusions:
                key = derive_key(key, move.removed, move.added)
        if key in self.seen:
            self.stats.duplicates += 1
            return None
        self.seen.add(key)
        if self.rejected(added):
            self.stats.discarded += 1
            return None
        return _fused(transition.result, fusions)

    def count_fusions(self, count: int) -> None:
        """Account ``count`` AVF fusions: each creates a state and
        discards the pre-fusion intermediate."""
        self.stats.created += count
        self.stats.transitions += count
        self.stats.discarded += count

    def price_frontier(self, states: Sequence[State]) -> list[CostBreakdown]:
        """Exact breakdowns for a wave of independent states."""
        cost = self.cost_model.cost
        if not metrics.enabled and tracing.sink is None:
            return [cost(state) for state in states]
        with tracing.span("selection.search.wave", states=len(states)):
            started = time.perf_counter()
            breakdowns = [cost(state) for state in states]
            if metrics.enabled:
                metrics.inc("selection.search.waves")
                metrics.observe("selection.search.wave_size", len(states))
                metrics.observe(
                    "selection.search.wave_ms",
                    (time.perf_counter() - started) * 1000.0,
                )
        return breakdowns

    def complete(
        self, states: Sequence[State], stages: Sequence[int] | None = None
    ) -> list[SearchNode]:
        """Price a wave of surviving successors and offer each."""
        if not states:
            return []
        breakdowns = self.price_frontier(states)
        nodes = []
        for index, (state, breakdown) in enumerate(zip(states, breakdowns)):
            self.offer(state, breakdown.total)
            stage = stages[index] if stages is not None else 0
            nodes.append(SearchNode(state, breakdown, stage))
        return nodes

    def expand(
        self, node: SearchNode, kinds: Sequence[TransitionKind]
    ) -> Iterator[State]:
        """Surviving successors of one state under the given kinds."""
        for transition in self.enumerator.transitions(node.state, kinds):
            survivor = self.consider(transition)
            if survivor is not None:
                yield survivor
            if self.out_of_budget():
                return

    def result(self, strategy: str = "") -> SearchResult:
        if metrics.enabled:
            stats = self.stats
            metrics.inc("selection.search.runs")
            metrics.inc("selection.search.created", stats.created)
            metrics.inc("selection.search.duplicates", stats.duplicates)
            metrics.inc("selection.search.discarded", stats.discarded)
            metrics.inc("selection.search.explored", stats.explored)
            counters = self.cost_model.counters
            for key, metric in (
                ("view_hits", "selection.memo.view_hit"),
                ("view_misses", "selection.memo.view_miss"),
                ("plan_hits", "selection.memo.plan_hit"),
                ("plan_misses", "selection.memo.plan_miss"),
            ):
                delta = counters.get(key, 0) - self._memo_baseline.get(key, 0)
                if delta:
                    metrics.inc(metric, delta)
            self._memo_baseline = dict(counters)
        return SearchResult(
            best_state=self.best_state,
            best_cost=self.best_cost,
            initial_cost=self.initial_cost,
            stats=self.stats,
            runtime=self.elapsed(),
            cost_history=self.cost_history,
            completed=self.completed,
            strategy=strategy,
        )


@runtime_checkable
class SearchStrategy(Protocol):
    """A search strategy: a frontier policy over the core's primitives.

    ``run`` drives the whole exploration through
    :meth:`SearchCore.consider` / :meth:`SearchCore.complete` /
    :meth:`SearchCore.expand`; it must check
    :meth:`SearchCore.out_of_budget` between expansions. The stratum
    policy is the strategy's choice of transition kinds per frontier
    entry (most use :data:`STRATIFIED_ORDER` suffixes via
    ``SearchNode.stage``).
    """

    name: str

    def run(self, core: SearchCore) -> None:
        """Explore until exhaustion or budget."""


class ExhaustiveStrategy:
    """EXNAÏVE / EXSTR (Algorithm 2): round-robin over lazy candidates.

    Every candidate state keeps a lazy transition iterator; one round
    advances each candidate by one surviving successor, the round's
    survivors are priced as one wave, and exhausted candidates move to
    the explored count. With ``stratified=True`` every path respects the
    ``VB* SC* JC* VF*`` order of Definition 5.3 (Theorem 5.3: never more
    transitions than EXNAÏVE).
    """

    def __init__(self, stratified: bool) -> None:
        self.stratified = stratified
        self.name = "exstr" if stratified else "exnaive"

    def _iterator(self, core: SearchCore, node: SearchNode):
        kinds = (
            STRATIFIED_ORDER[node.stage :] if self.stratified else STRATIFIED_ORDER
        )
        return core.enumerator.transitions(node.state, kinds)

    def run(self, core: SearchCore) -> None:
        candidates: list = [(core.root, self._iterator(core, core.root))]
        while candidates:
            if core.out_of_budget():
                break
            progressed = False
            wave: list[State] = []
            wave_stages: list[int] = []
            for position in range(len(candidates)):
                if core.out_of_budget():
                    break
                node, iterator = candidates[position]
                advanced = False
                for transition in iterator:  # resume where we left off
                    stage = _KIND_INDEX[transition.kind] if self.stratified else 0
                    survivor = core.consider(transition)
                    if survivor is None:
                        continue
                    wave.append(survivor)
                    wave_stages.append(stage)
                    advanced = True
                    break
                if not advanced:
                    candidates[position] = None
                    core.mark_explored()
                else:
                    progressed = True
            for successor in core.complete(wave, wave_stages):
                candidates.append((successor, self._iterator(core, successor)))
            candidates = [entry for entry in candidates if entry is not None]
            if not progressed and not candidates:
                break


class DfsStrategy:
    """Stratified depth-first search (DFS, Section 5.2).

    Expands one state fully (all strata from its stage on), prices the
    survivors as one wave, and pushes them cheapest-last so the stack
    pops the cheapest successor first — under a stoptime condition,
    cost-guided descent reaches low-cost regions long before plain DFS
    order.
    """

    name = "dfs"

    def run(self, core: SearchCore) -> None:
        stack: list[SearchNode] = [core.root]
        while stack:
            if core.out_of_budget():
                break
            node = stack.pop()
            core.mark_explored()
            wave: list[State] = []
            wave_stages: list[int] = []
            for kind_index in range(node.stage, len(STRATIFIED_ORDER)):
                kind = STRATIFIED_ORDER[kind_index]
                for survivor in core.expand(node, [kind]):
                    wave.append(survivor)
                    wave_stages.append(kind_index)
                if core.out_of_budget():
                    break
            pending = core.complete(wave, wave_stages)
            pending.sort(key=lambda entry: -entry.cost)
            stack.extend(pending)


class GreedyStratifiedStrategy:
    """GSTR: exhaust each stratum, keep only the best state in between.

    Duplicate detection restarts per stratum (the paper's CS/ES sets are
    per phase); every state but the stratum's best is discarded.
    """

    name = "gstr"

    def run(self, core: SearchCore) -> None:
        current = core.root
        for kind in STRATIFIED_ORDER:
            core.reset_dedup(current.state.key)
            stack = [current]
            stratum_best = current
            while stack:
                if core.out_of_budget():
                    break
                node = stack.pop()
                core.mark_explored()
                wave = list(core.expand(node, [kind]))
                successors = core.complete(wave)
                for successor in successors:
                    if successor.cost < stratum_best.cost:
                        stratum_best = successor
                stack.extend(successors)
            # All states but the stratum best are discarded (GSTR).
            core.discard(max(0, len(core.seen) - 1))
            current = stratum_best
            if core.out_of_budget():
                break


class DescentStrategy:
    """First-improvement stratified descent — the large-workload scaling
    mode of DFS.

    At each step the applicable transitions are generated lazily in
    stratified order and the first one that lowers the state cost is
    applied immediately (with aggressive view fusion), instead of fully
    expanding every state. This is the lazy traversal order of the
    paper's recursive DFS pseudocode, restricted to the improving branch
    — on 100+-query workloads it applies thousands of cost-reducing
    transitions within a stoptime budget where eager expansion would not
    finish expanding the initial state (the paper's runs had hours; see
    Section 6.4).

    Transition kinds are tried per view in the order JC, VB, SC (VF is
    folded in through aggressive view fusion): SC never lowers the cost
    (Section 3.3), so the improving moves concentrate on the cuts and
    breaks. A work queue visits one view at a time and re-enqueues the
    views a transition produces, so each improvement costs one view's
    candidates rather than a full state expansion. Like GSTR, this
    strategy trades the completeness guarantee for throughput.
    """

    name = "descent"

    def __init__(
        self,
        kinds: tuple[TransitionKind, ...] = (
            TransitionKind.JC,
            TransitionKind.VB,
            TransitionKind.SC,
        ),
    ) -> None:
        self.kinds = kinds

    def _view_candidates(
        self, core: SearchCore, state: State, view_name: str
    ) -> Iterator[Transition]:
        """Lazily yield this view's transitions, in the ``kinds`` order."""
        enumerator = core.enumerator
        view = state.view(view_name)
        for kind in self.kinds:
            if kind is TransitionKind.JC:
                for atom_index, attribute in enumerator.jc_candidates(view):
                    yield enumerator.apply_jc(state, view_name, atom_index, attribute)
            elif kind is TransitionKind.VB:
                for part1, part2 in enumerator.vb_candidates(view):
                    yield enumerator.apply_vb(state, view_name, part1, part2)
            elif kind is TransitionKind.SC:
                for atom_index, attribute, _ in enumerator.sc_candidates(view):
                    yield enumerator.apply_sc(state, view_name, atom_index, attribute)

    def run(self, core: SearchCore) -> None:
        current = core.root
        if core.use_avf:
            fused = avf_closure(current.state, core.enumerator, core)
            if fused is not current.state:
                core.seen.add(fused.key)
                current = core.complete([fused])[0]

        queue = deque(view.name for view in current.state.views)
        queued = set(queue)
        while queue and not core.out_of_budget():
            view_name = queue.popleft()
            queued.discard(view_name)
            if not any(view.name == view_name for view in current.state.views):
                continue  # the view was fused away in the meantime
            improved = False
            for transition in self._view_candidates(core, current.state, view_name):
                survivor = core.consider(transition)
                if survivor is None:
                    continue
                successor = core.complete([survivor])[0]
                if successor.cost < current.cost:
                    old_names = {view.name for view in current.state.views}
                    current = successor
                    core.mark_explored()
                    improved = True
                    for view in current.state.views:
                        if view.name not in old_names and view.name not in queued:
                            queue.append(view.name)
                            queued.add(view.name)
                    break
                core.discard()
                if core.out_of_budget():
                    break
            if improved and view_name not in queued:
                # The view may have survived (e.g. a sibling was split
                # off); give it another chance later.
                queue.append(view_name)
                queued.add(view_name)


#: Strategy factories by name — the registry the recommender and the CLI
#: resolve ``--strategy`` against.
STRATEGY_FACTORIES: dict[str, Callable[[], SearchStrategy]] = {
    "exnaive": lambda: ExhaustiveStrategy(stratified=False),
    "exstr": lambda: ExhaustiveStrategy(stratified=True),
    "dfs": DfsStrategy,
    "gstr": GreedyStratifiedStrategy,
    "descent": DescentStrategy,
}


def run_search(
    initial: State,
    cost_model: CostModel,
    strategy: SearchStrategy | str,
    enumerator: TransitionEnumerator | None = None,
    budget: SearchBudget | None = None,
    use_avf: bool = True,
    use_stoptt: bool = True,
    use_stopvar: bool = True,
) -> SearchResult:
    """Run one search strategy through the unified core."""
    if isinstance(strategy, str):
        try:
            strategy = STRATEGY_FACTORIES[strategy]()
        except KeyError:
            raise ValueError(
                f"unknown strategy {strategy!r}; "
                f"pick from {sorted(STRATEGY_FACTORIES)}"
            ) from None
    core = SearchCore(
        initial,
        cost_model,
        enumerator or TransitionEnumerator(),
        budget or SearchBudget(),
        use_avf=use_avf,
        use_stoptt=use_stoptt,
        use_stopvar=use_stopvar,
    )
    with tracing.span("selection.run_search", strategy=strategy.name):
        strategy.run(core)
    return core.result(strategy.name)

