"""Pairwise commutativity analysis by symbolic permutation execution.

For a pair of operations, ANALYZER builds one unconstrained symbolic state,
runs both permutations of the pair on copies of it, and — per explored path
— tests whether every operation's return value is equivalent in both
permutations and whether the resulting states are externally equivalent
(§5.1).  The equivalence tests themselves fork, so every path carries a
definite verdict and the disjunction of commuting paths' conditions is the
precise commutativity condition.

SIM commutativity's monotonicity requirement surfaces for sets larger than
pairs: intermediate states after every prefix must already be equivalent.
:func:`analyze_pair` handles pairs (what the paper uses throughout §6);
prefix checking for pairs is exactly the return-value check of the first
operation, which the permutation comparison already covers.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Optional, Sequence

from repro.model.base import OpDef
from repro.symbolic import terms as T
from repro.symbolic.engine import Executor, PathResult, SymbolicFailure
from repro.symbolic.solver import Solver
from repro.symbolic.symtypes import VarFactory, values_equal
from repro.symbolic.terms import Term


class TrialOutcome:
    """What one explored path observed (returned by the trial body)."""

    __slots__ = ("commutes", "returns", "initial_state", "args")

    def __init__(self, commutes, returns, initial_state, args):
        self.commutes = commutes
        self.returns = returns
        self.initial_state = initial_state
        self.args = args


class PathVerdict:
    """One path through the permutation trial, with its verdict."""

    __slots__ = (
        "path_condition", "decisions", "commutes", "returns",
        "initial_state", "args",
    )

    def __init__(self, path: PathResult):
        outcome: TrialOutcome = path.value
        self.path_condition = path.path_condition
        self.decisions = path.decisions
        self.commutes = outcome.commutes
        self.returns = outcome.returns
        self.initial_state = outcome.initial_state
        self.args = outcome.args

    def condition(self) -> Term:
        return T.and_(*self.path_condition)


class PairResult:
    """All paths for one operation pair."""

    def __init__(self, op0: OpDef, op1: OpDef, paths: list[PathVerdict],
                 solver_stats: Optional[dict] = None):
        self.op0 = op0
        self.op1 = op1
        self.paths = paths
        #: Per-pair solver accounting (queries, cache hits, scope reuse);
        #: flows into the pipeline's JSON artifacts.
        self.solver_stats = dict(solver_stats) if solver_stats else {}

    @property
    def commutative_paths(self) -> list[PathVerdict]:
        return [p for p in self.paths if p.commutes]

    @property
    def non_commutative_paths(self) -> list[PathVerdict]:
        return [p for p in self.paths if not p.commutes]

    def commutativity_condition(self) -> Term:
        """Precise condition under which the pair commutes."""
        return T.or_(*[p.condition() for p in self.commutative_paths])

    def __repr__(self) -> str:
        return (
            f"PairResult({self.op0.name}, {self.op1.name}: "
            f"{len(self.commutative_paths)}/{len(self.paths)} paths commute)"
        )


def analyze_pair(
    build_state: Callable[[VarFactory], object],
    state_equal: Callable[[object, object], bool],
    op0: OpDef,
    op1: OpDef,
    solver: Optional[Solver] = None,
    max_paths: int = 20000,
    incremental: Optional[bool] = None,
    solver_cache_size: Optional[int] = None,
) -> PairResult:
    """Symbolically execute both permutations of (op0, op1) and classify
    every path as commutative or not.

    ``incremental`` selects the scoped (assert-on-branch) solver driving;
    ``False`` re-submits full path conditions per probe — same verdicts,
    kept for benchmarking the difference; ``None`` follows the module's
    :data:`INCREMENTAL_DEFAULT` (used by the before/after benchmarks to
    flip a whole pipeline run).  ``solver_cache_size`` bounds the solver
    memo when no explicit ``solver`` is passed (0 = unbounded)."""
    state_factory = VarFactory("s")
    arg_factories = (VarFactory("a0"), VarFactory("a1"))
    rt_factories = (VarFactory("n0"), VarFactory("n1"))
    ops = (op0, op1)

    def trial(ex: Executor) -> TrialOutcome:
        state_factory.reset()
        for f in arg_factories:
            f.reset()
        state = build_state(state_factory)
        args = tuple(
            op.make_args(factory)
            for op, factory in zip(ops, arg_factories)
        )
        returns = []
        finals = []
        for perm in ((0, 1), (1, 0)):
            st = state.copy()
            rets: dict[int, object] = {}
            for idx in perm:
                rt_factories[idx].reset()
                rets[idx] = ops[idx].execute(st, args[idx], rt_factories[idx])
            returns.append((rets[0], rets[1]))
            finals.append(st)
        commutes = (
            values_equal(returns[0][0], returns[1][0])
            and values_equal(returns[0][1], returns[1][1])
            and state_equal(finals[0], finals[1])
        )
        return TrialOutcome(commutes, returns[0], state, args)

    executor = Executor(
        _resolve_solver(solver, solver_cache_size),
        max_paths=max_paths,
        incremental=INCREMENTAL_DEFAULT if incremental is None else incremental,
    )
    paths = executor.explore(trial)
    return PairResult(op0, op1, [PathVerdict(p) for p in paths],
                      solver_stats=executor.solver_stats())


#: Engine mode when callers do not choose: scoped incremental solving.
#: Flipped (rarely) by benchmarks/tests to run a full pipeline in the
#: historical re-submit-everything mode for before/after comparisons.
INCREMENTAL_DEFAULT = True


def _resolve_solver(
    solver: Optional[Solver], solver_cache_size: Optional[int]
) -> Solver:
    if solver is not None:
        return solver
    if solver_cache_size is None:
        return Solver()
    return Solver(cache_size=solver_cache_size)


def analyze_set(
    build_state: Callable[[VarFactory], object],
    state_equal: Callable[[object, object], bool],
    ops: Sequence[OpDef],
    solver: Optional[Solver] = None,
    max_paths: int = 20000,
    incremental: Optional[bool] = None,
) -> PairResult:
    """Commutativity of a set of N operations (§5.1's general case).

    Executes every permutation of the set; a path commutes when every
    operation's return value is equivalent in all permutations, the final
    states are equivalent, *and* — the SIM monotonicity requirement — the
    intermediate states after corresponding prefixes are equivalent across
    permutations of each prefix set.

    Cost grows as N!·paths; the paper (and the Figure 6 pipeline) uses
    pairs, for which :func:`analyze_pair` is the specialized fast path.
    """
    n = len(ops)
    arg_factories = [VarFactory(f"a{i}") for i in range(n)]
    rt_factories = [VarFactory(f"n{i}") for i in range(n)]
    state_factory = VarFactory("s")
    perms = list(itertools.permutations(range(n)))

    def trial(ex: Executor) -> TrialOutcome:
        state_factory.reset()
        for f in arg_factories:
            f.reset()
        state = build_state(state_factory)
        args = tuple(
            op.make_args(factory)
            for op, factory in zip(ops, arg_factories)
        )
        returns = []
        finals = []
        # snapshots[p][k]: state after the first k+1 ops of permutation p.
        snapshots = []
        for perm in perms:
            st = state.copy()
            rets: dict[int, object] = {}
            steps = []
            for idx in perm:
                rt_factories[idx].reset()
                rets[idx] = ops[idx].execute(st, args[idx], rt_factories[idx])
                steps.append((frozenset(perm[:len(steps) + 1]), st.copy()))
            returns.append(tuple(rets[i] for i in range(n)))
            finals.append(st)
            snapshots.append(steps)
        commutes = all(
            values_equal(returns[0][i], returns[p][i])
            for p in range(1, len(perms))
            for i in range(n)
        ) and all(
            state_equal(finals[0], finals[p])
            for p in range(1, len(perms))
        )
        if commutes and n > 2:
            # Intermediate states must agree whenever two permutations
            # have executed the same *set* of operations.
            for p in range(1, len(perms)):
                for done_set, snap in snapshots[p]:
                    for base_set, base_snap in snapshots[0]:
                        if base_set == done_set:
                            if not state_equal(base_snap, snap):
                                commutes = False
                            break
                    if not commutes:
                        break
                if not commutes:
                    break
        return TrialOutcome(commutes, returns[0], state, args)

    executor = Executor(
        solver if solver is not None else Solver(),
        max_paths=max_paths,
        incremental=INCREMENTAL_DEFAULT if incremental is None else incremental,
    )
    paths = executor.explore(trial)
    result = PairResult(ops[0], ops[-1], [PathVerdict(p) for p in paths],
                        solver_stats=executor.solver_stats())
    return result


def _interface_pair_task(
    build_state: Callable[[VarFactory], object],
    state_equal: Callable[[object, object], bool],
    solver: Optional[Solver],
    max_paths: int,
    pair: tuple[OpDef, OpDef],
) -> PairResult:
    """One pair of an interface sweep (module-level so backends can ship
    it to worker processes via :func:`functools.partial`)."""
    op0, op1 = pair
    pair_solver = solver if solver is not None else Solver()
    return analyze_pair(build_state, state_equal, op0, op1, pair_solver,
                        max_paths)


def analyze_interface(
    build_state: Callable[[VarFactory], object],
    state_equal: Callable[[object, object], bool],
    ops: Sequence[OpDef],
    solver: Optional[Solver] = None,
    pair_filter: Optional[Callable[[OpDef, OpDef], bool]] = None,
    on_pair: Optional[Callable[[PairResult], None]] = None,
    backend=None,
    max_paths: int = 20000,
) -> list[PairResult]:
    """Analyze every unordered pair of operations (including self-pairs).

    The pair loop runs through a :mod:`repro.pipeline.backends` execution
    backend (serial by default); pair analyses are independent, so any
    backend returns the same result list, always in matrix order.  A
    parallel backend requires the model's states and results to be
    picklable — the bundled POSIX model's states hold closures, so
    cross-process sharding of the full pipeline happens in
    :mod:`repro.pipeline.sweep` on plain-data job results instead.  A
    fresh solver per pair keeps memoization tables bounded.  ``on_pair``
    lets callers stream progress (the Figure 6 pipeline runs for a
    while); with a parallel backend it fires in completion order.
    """
    from repro.pipeline.backends import get_backend
    from repro.pipeline.sweep import iter_pairs

    task = functools.partial(
        _interface_pair_task, build_state, state_equal, solver, max_paths
    )
    on_result = None
    if on_pair is not None:
        on_result = lambda pair, result: on_pair(result)  # noqa: E731
    return get_backend(backend).map(
        task, iter_pairs(ops, pair_filter), on_result=on_result
    )
