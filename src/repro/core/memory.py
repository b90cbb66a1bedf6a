"""Section VI — memory-constrained hierarchical scheduling.

Two extensions of (IP-3) with per-job memory footprints:

**Model 1** (Theorem VI.1): machine *i* has budget ``B_i``; job *j* assigned
to mask ``α`` consumes ``s_ij`` on *every* machine ``i ∈ α``:

    Σ_j s_ij · Σ_{α ∋ i} x_{αj} ≤ B_i          (7)

Iterative rounding (rows dropped once ≤ 2 fractional variables remain)
yields a schedule with makespan ≤ 3T and memory ≤ 3·B_i.

**Model 2** (Theorem VI.3): the family is a uniform tree; a node of height
``h`` (root excluded) has capacity ``µ^h``; job *j* has size ``s_j ≤ 1``:

    Σ_j s_j x_{αj} ≤ µ^{h(α)}                  (9)

Lemma VI.2 with ρ = 1 + H_k (column-sum bound computed in the paper's
Theorem VI.3 proof) yields σ = 2 + H_k bicriteria; for k = 2 levels the
tighter ρ = 2 + 1/m gives σ = 3 + 1/m.

Both solvers return the rounded assignment, the realized schedule (built at
the *actual* minimal horizon of the assignment, never worse than σ·T), and
the measured memory violations, so experiments E10/E11 can compare against
the theorems' guarantees.

Rows (7) and (9) do not depend on ``T``, so each model's minimal LP horizon
comes from the (IP-3) breakpoint search itself:
:func:`minimal_model1_T`/:func:`minimal_model2_T` hand the model's pairs
and memory rows to an :class:`~repro.core.programs.IP3Builder` and search
through it.  One memory-row builder per model feeds both that search and
the fixed-``T`` rows the rounding starts from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .._fraction import is_inf, to_fraction
from ..exceptions import InfeasibleError, InvalidInstanceError, SolverError
from ..rounding.iterative import IterativeRoundingResult, PackingRow, iterative_round
from ..schedule.schedule import Schedule
from .assignment import Assignment, min_T_for_assignment
from .hierarchical import schedule_hierarchical
from .instance import Instance
from .laminar import MachineSet
from .programs import IP3Builder, _search_minimal_T

Time = Union[int, Fraction]


def harmonic(k: int) -> Fraction:
    """The k-th harmonic number ``H_k = 1 + 1/2 + … + 1/k``."""
    return sum((Fraction(1, i) for i in range(1, k + 1)), Fraction(0))


Groups = Dict[int, List[Tuple[MachineSet, int]]]


def _groups(
    instance: Instance,
    T: Optional[Fraction],
    keep: Optional[Callable[[int, MachineSet], bool]] = None,
) -> Groups:
    """Each job's pairs ``(α, j)`` with ``p_{αj} ≤ T`` that *keep* accepts.

    ``T=None`` admits every finite pair (the static pairs a search starts
    from).  Raises :class:`InfeasibleError` when a job is left with none.
    """
    groups: Groups = {}
    for j in range(instance.n):
        keys = []
        for alpha in instance.family.sets:
            p = instance.p(j, alpha)
            if is_inf(p) or (T is not None and to_fraction(p) > T):
                continue
            if keep is None or keep(j, alpha):
                keys.append((alpha, j))
        if not keys:
            raise InfeasibleError(
                f"job {j} has no admissible set"
                + (f" within T={T}" if T is not None else "")
                + (" under the budgets" if keep is not None else "")
            )
        groups[j] = keys
    return groups


def _load_rows(instance: Instance, groups: Groups, T: Fraction) -> List[PackingRow]:
    """The load rows of (IP-3) at horizon *T* over the pairs in *groups*."""
    key_sets = {j: set(keys) for j, keys in groups.items()}
    rows: List[PackingRow] = []
    for alpha in instance.family.sets:
        coeffs: Dict = {}
        for beta in instance.family.subsets_of(alpha):
            for j in range(instance.n):
                key = (beta, j)
                if key in key_sets[j]:
                    coeffs[key] = to_fraction(instance.p(j, beta))
        rows.append(PackingRow(f"load[{sorted(alpha)}]", coeffs, len(alpha) * T))
    return rows


def _minimal_memory_horizon(
    instance: Instance, groups: Groups, rows: Sequence[PackingRow], backend: str
) -> Fraction:
    """The (IP-3) breakpoint search over *groups* plus the fixed *rows*."""
    builder = IP3Builder(
        instance,
        pairs={key for keys in groups.values() for key in keys},
        fixed_rows=[(row.coeffs, row.bound) for row in rows],
    )
    if not builder.breakpoints:
        raise InfeasibleError("no finite processing times")
    return _search_minimal_T(builder, backend)


# ---------------------------------------------------------------------------
# Model 1
# ---------------------------------------------------------------------------


@dataclass
class Model1Result:
    instance: Instance
    T: Fraction
    """The horizon whose LP the rounding started from."""

    assignment: Assignment
    schedule: Schedule
    makespan: Fraction
    memory_usage: Dict[int, Fraction]
    budgets: Dict[int, Fraction]
    rounding: IterativeRoundingResult

    @property
    def makespan_ratio(self) -> Fraction:
        """``makespan / T`` — Theorem VI.1 guarantees ≤ 3."""
        return self.makespan / self.T if self.T else Fraction(0)

    @property
    def max_memory_ratio(self) -> Fraction:
        """``max_i usage_i / B_i`` — Theorem VI.1 guarantees ≤ 3."""
        ratios = [
            self.memory_usage[i] / self.budgets[i]
            for i in self.budgets
            if self.budgets[i] > 0
        ]
        return max(ratios) if ratios else Fraction(0)


def _fits_budgets(
    space: Sequence[Sequence[Time]], budgets: Mapping[int, Time]
) -> Callable[[int, MachineSet], bool]:
    """Model 1's static pair filter: ``s_ij ≤ B_i`` on every ``i ∈ α``.

    A pair whose footprint alone exceeds some budget could never be 1 in a
    solution within the budgets; pruning it keeps every coefficient ≤ its
    row bound, the property behind the "3×".
    """
    return lambda j, alpha: all(
        to_fraction(space[j][i]) <= to_fraction(budgets[i]) for i in alpha
    )


def _model1_memory_rows(
    instance: Instance,
    space: Sequence[Sequence[Time]],
    budgets: Mapping[int, Time],
    groups: Groups,
) -> List[PackingRow]:
    """Rows (7) over the pairs in *groups*; they do not depend on ``T``."""
    rows: List[PackingRow] = []
    for i in sorted(instance.machines):
        coeffs: Dict = {}
        for j, keys in groups.items():
            s = to_fraction(space[j][i])
            if s == 0:
                continue
            for key in keys:
                if i in key[0]:
                    coeffs[key] = s
        bound = to_fraction(budgets[i])
        if bound <= 0:
            raise InvalidInstanceError(f"budget of machine {i} must be positive")
        rows.append(PackingRow(f"mem[{i}]", coeffs, bound))
    return rows


def _model1_rows(
    instance: Instance,
    space: Sequence[Sequence[Time]],
    budgets: Mapping[int, Time],
    T: Fraction,
) -> Tuple[Groups, List[PackingRow]]:
    """Groups and packing rows of (IP-3)+(7) at horizon *T*."""
    groups = _groups(instance, T, _fits_budgets(space, budgets))
    rows = _load_rows(instance, groups, T)
    return groups, rows + _model1_memory_rows(instance, space, budgets, groups)


def _check_kernel(kernel: Optional[str]) -> None:
    # Kept so callers that pass Session.kernel through keep working.
    if kernel not in (None, "revised"):
        raise SolverError(f"unknown kernel {kernel!r}; the only one is 'revised'")


def solve_model1(
    instance: Instance,
    space: Sequence[Sequence[Time]],
    budgets: Mapping[int, Time],
    T: Time,
    backend: str = "hybrid",
    kernel: Optional[str] = None,
) -> Model1Result:
    """Theorem VI.1: round (IP-3)+(7) at horizon *T* into a schedule.

    *space[j][i]* is job *j*'s footprint on machine *i*.  Raises
    :class:`InfeasibleError` when the LP relaxation at *T* is infeasible
    (the theorem's precondition).
    """
    _check_kernel(kernel)
    T = to_fraction(T)
    groups, rows = _model1_rows(instance, space, budgets, T)
    rounding = iterative_round(groups, rows, max_drop_vars=2, backend=backend)
    masks: Dict[int, MachineSet] = {}
    for (alpha, j), value in rounding.values.items():
        if value == 1:
            masks[j] = alpha
    assignment = Assignment(masks)
    T_final = min_T_for_assignment(instance, assignment)
    schedule = schedule_hierarchical(instance, assignment, T_final)
    memory_usage: Dict[int, Fraction] = {}
    for i in sorted(instance.machines):
        usage = Fraction(0)
        for j, alpha in assignment.items():
            if i in alpha:
                usage += to_fraction(space[j][i])
        memory_usage[i] = usage
    return Model1Result(
        instance=instance,
        T=T,
        assignment=assignment,
        schedule=schedule,
        makespan=schedule.makespan(),
        memory_usage=memory_usage,
        budgets={i: to_fraction(budgets[i]) for i in sorted(instance.machines)},
        rounding=rounding,
    )


def _memory_lp(groups: Mapping[int, List], rows: Sequence[PackingRow]):
    """One horizon's feasibility LP of either memory model, as a keyed
    :class:`~repro.lp.model.LinearProgram` built independently of
    :class:`~repro.core.programs.IP3Builder`."""
    from ..lp.model import LinearProgram

    lp = LinearProgram()
    for j, keys in groups.items():
        for key in keys:
            lp.add_variable(key, lb=0)  # ub implied by the group equality
        lp.add_constraint({key: 1 for key in keys}, "==", 1)
    for row in rows:
        lp.add_constraint(row.coeffs, "<=", row.bound, name=row.name)
    return lp


def model1_lp_feasible(
    instance: Instance,
    space: Sequence[Sequence[Time]],
    budgets: Mapping[int, Time],
    T: Time,
    backend: str = "hybrid",
) -> bool:
    """Whether the LP relaxation of (IP-3)+(7) is feasible at *T*.

    Certified for every backend via :func:`repro.lp.solve.is_feasible`.
    """
    from ..lp.solve import is_feasible

    T = to_fraction(T)
    try:
        groups, rows = _model1_rows(instance, space, budgets, T)
    except InfeasibleError:
        return False
    return is_feasible(_memory_lp(groups, rows), backend=backend)


def minimal_model1_T(
    instance: Instance,
    space: Sequence[Sequence[Time]],
    budgets: Mapping[int, Time],
    backend: str = "hybrid",
) -> Fraction:
    """Smallest horizon at which (IP-3)+(7)'s LP relaxation is feasible.

    Raises :class:`InfeasibleError` when no horizon is, including when a
    job's every pair is pruned by a budget.
    """
    groups = _groups(instance, None, _fits_budgets(space, budgets))
    rows = _model1_memory_rows(instance, space, budgets, groups)
    return _minimal_memory_horizon(instance, groups, rows, backend)


def solve_model1_exact(
    instance: Instance,
    space: Sequence[Sequence[Time]],
    budgets: Mapping[int, Time],
    backend: str = "hybrid",
) -> Tuple[Fraction, Assignment]:
    """Exact minimum makespan honoring the memory budgets *strictly*.

    Minimizes a continuous ``T`` over binary assignments subject to the load
    rows (scaled by T) and the hard memory rows (7) via branch-and-bound —
    the uncompromising reference the bicriteria Theorem VI.1 trades against.
    Small instances only.  Raises :class:`InfeasibleError` when no integral
    assignment fits the budgets at any horizon.
    """
    from ..lp.branch_and_bound import solve_binary_ilp
    from ..lp.model import LinearProgram

    # The largest relevant pruning anchor: every pair not ruled out by a
    # budget may participate at a sufficiently large horizon.
    _lo, hi = instance.trivial_bounds()
    anchor = to_fraction(hi)
    groups, rows = _model1_rows(instance, space, budgets, anchor)

    t_key = ("__T__",)
    lp = LinearProgram()
    lp.add_variable(t_key, lb=0)
    for j, keys in groups.items():
        for key in keys:
            lp.add_variable(key, lb=0, ub=1, integral=True)
        lp.add_constraint({key: 1 for key in keys}, "==", 1)
    for row in rows:
        if row.name.startswith("load["):
            per_T = row.bound / anchor  # |α|
            coeffs = dict(row.coeffs)
            coeffs[t_key] = -per_T
            lp.add_constraint(coeffs, "<=", 0, name=row.name)
        else:
            lp.add_constraint(row.coeffs, "<=", row.bound, name=row.name)
    # Constraint (2c): a chosen pair's processing time bounds T from below.
    for j, keys in groups.items():
        for key in keys:
            alpha, _j = key
            p = to_fraction(instance.p(j, alpha))
            if p > 0:
                lp.add_constraint({key: p, t_key: -1}, "<=", 0)
    lp.set_objective({t_key: 1})
    result = solve_binary_ilp(lp, backend=backend)
    if not result.is_optimal:
        raise InfeasibleError("no integral assignment fits the memory budgets")
    masks: Dict[int, MachineSet] = {}
    for key, value in result.values.items():
        if isinstance(key, tuple) and len(key) == 2 and value == 1:
            alpha, j = key
            masks[j] = alpha
    assignment = Assignment(masks)
    return min_T_for_assignment(instance, assignment), assignment


# ---------------------------------------------------------------------------
# Model 2
# ---------------------------------------------------------------------------


@dataclass
class Model2Result:
    instance: Instance
    T: Fraction
    assignment: Assignment
    schedule: Schedule
    makespan: Fraction
    memory_usage: Dict[MachineSet, Fraction]
    capacities: Dict[MachineSet, Fraction]
    rho: Fraction
    sigma: Fraction
    """The theorem's guarantee ``σ = 1 + ρ`` (= 2 + H_k, or 3 + 1/m for k=2)."""

    rounding: IterativeRoundingResult

    @property
    def makespan_ratio(self) -> Fraction:
        return self.makespan / self.T if self.T else Fraction(0)

    @property
    def max_memory_ratio(self) -> Fraction:
        ratios = [
            self.memory_usage[a] / self.capacities[a]
            for a in self.capacities
            if self.capacities[a] > 0
        ]
        return max(ratios) if ratios else Fraction(0)


def model2_rho(instance: Instance) -> Fraction:
    """The column-sum bound of Theorem VI.3's proof.

    ``1 + H_k`` in general; the tighter ``2 + 1/m`` when the family has two
    levels (the semi-partitioned case analyzed at the end of the proof).
    """
    k = instance.family.num_levels
    if k == 2:
        return 2 + Fraction(1, instance.m)
    return 1 + harmonic(k)


def _check_model2(instance: Instance, sizes: Sequence[Time], mu: Time) -> Fraction:
    """Validate Model 2's inputs; returns ``µ`` as a Fraction."""
    if not instance.family.is_tree:
        raise InvalidInstanceError("Model 2 requires a tree-shaped family")
    mu = to_fraction(mu)
    if mu <= 1:
        raise InvalidInstanceError(f"µ must exceed 1, got {mu}")
    for j in range(instance.n):
        s = to_fraction(sizes[j])
        if not 0 <= s <= 1:
            raise InvalidInstanceError(f"job size s_{j}={s} outside [0, 1]")
    return mu


def _model2_memory_rows(
    instance: Instance, sizes: Sequence[Time], mu: Fraction, groups: Groups
) -> Tuple[List[PackingRow], Dict[MachineSet, Fraction]]:
    """Rows (9) over the pairs in *groups*, and the capacities ``µ^h``.

    The rows do not depend on ``T``; the root has unbounded capacity.
    """
    family = instance.family
    key_sets = {j: set(keys) for j, keys in groups.items()}
    rows: List[PackingRow] = []
    capacities: Dict[MachineSet, Fraction] = {}
    root = frozenset(instance.machines)
    for alpha in family.sets:
        if alpha == root:
            continue
        cap = mu ** family.height(alpha)
        capacities[alpha] = cap
        coeffs: Dict = {}
        for j in range(instance.n):
            key = (alpha, j)
            if key in key_sets[j]:
                s = to_fraction(sizes[j])
                if s > 0:
                    coeffs[key] = s
        rows.append(PackingRow(f"mem[{sorted(alpha)}]", coeffs, cap))
    return rows, capacities


def _model2_rows(
    instance: Instance,
    sizes: Sequence[Time],
    mu: Time,
    T: Fraction,
) -> Tuple[Groups, List[PackingRow], Dict[MachineSet, Fraction]]:
    """Groups, packing rows of (IP-4) at horizon *T*, and the capacities."""
    mu = _check_model2(instance, sizes, mu)
    groups = _groups(instance, T)
    rows, capacities = _model2_memory_rows(instance, sizes, mu, groups)
    return groups, _load_rows(instance, groups, T) + rows, capacities


def solve_model2(
    instance: Instance,
    sizes: Sequence[Time],
    mu: Time,
    T: Time,
    backend: str = "hybrid",
    kernel: Optional[str] = None,
) -> Model2Result:
    """Theorem VI.3: round (IP-4) at horizon *T* with Lemma VI.2.

    *sizes[j]* ≤ 1 is job *j*'s memory footprint; a node of height ``h``
    has capacity ``µ^h`` (root unbounded).
    """
    _check_kernel(kernel)
    T = to_fraction(T)
    groups, rows, capacities = _model2_rows(instance, sizes, mu, T)
    rho = model2_rho(instance)
    rounding = iterative_round(groups, rows, rho=rho, backend=backend)
    masks: Dict[int, MachineSet] = {}
    for (alpha, j), value in rounding.values.items():
        if value == 1:
            masks[j] = alpha
    assignment = Assignment(masks)
    T_final = min_T_for_assignment(instance, assignment)
    schedule = schedule_hierarchical(instance, assignment, T_final)
    memory_usage: Dict[MachineSet, Fraction] = {}
    for alpha in capacities:
        memory_usage[alpha] = sum(
            (to_fraction(sizes[j]) for j, a in assignment.items() if a == alpha),
            Fraction(0),
        )
    return Model2Result(
        instance=instance,
        T=T,
        assignment=assignment,
        schedule=schedule,
        makespan=schedule.makespan(),
        memory_usage=memory_usage,
        capacities=capacities,
        rho=rho,
        sigma=1 + rho,
        rounding=rounding,
    )


def model2_lp_feasible(
    instance: Instance,
    sizes: Sequence[Time],
    mu: Time,
    T: Time,
    backend: str = "hybrid",
) -> bool:
    """Whether the LP relaxation of (IP-4) is feasible at *T*.

    Certified for every backend via :func:`repro.lp.solve.is_feasible`.
    """
    from ..lp.solve import is_feasible

    T = to_fraction(T)
    try:
        groups, rows, _caps = _model2_rows(instance, sizes, mu, T)
    except InfeasibleError:
        return False
    return is_feasible(_memory_lp(groups, rows), backend=backend)


def minimal_model2_T(
    instance: Instance,
    sizes: Sequence[Time],
    mu: Time,
    backend: str = "hybrid",
) -> Fraction:
    """Smallest horizon at which (IP-4)'s LP relaxation is feasible."""
    mu = _check_model2(instance, sizes, mu)
    groups = _groups(instance, None)
    rows, _capacities = _model2_memory_rows(instance, sizes, mu, groups)
    return _minimal_memory_horizon(instance, groups, rows, backend)
