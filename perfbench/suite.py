"""The four benchmark workloads: inputs, the timed operation, and its checks.

Each workload owns a fixed pool of inputs drawn from the paper's experiment
generators under fixed root seeds, so every input has a committed expected
output in ``reference.json``.  A run's ``--seed`` only shuffles the order in
which the pool is visited (a fresh permutation per pass); the work a run
does is therefore the same on every seed, and its outputs are checkable.

A workload exposes

* ``setup(work_dir)``: build the pool (and, for ``cache``, warm the store);
* ``schedule(rng, passes)``: the operations of one run, in order;
* ``run(item)``: the timed operation, through the library's public API with
  the default backend and kernel;
* ``inspect(item, out)``: untimed; returns the outcome compared with the
  reference (or ``None`` when the operation has no reference entry), the
  problems found by the independent checks, the schedule-quality ratio and
  the operation's exact counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from repro.core.assignment import min_T_for_assignment
from repro.core.memory import solve_model1, solve_model2
from repro.exceptions import InfeasibleError
from repro.experiments.e10_memory_model1 import _budgeted_instance
from repro.experiments.e11_memory_model2 import _uniform_tree
from repro.obs import span
from repro.schedule.serialize import assignment_to_dict, schedule_to_dict
from repro.schedule.validator import check_releases, validate_schedule
from repro.session import Session, SolveCache, frac_to_str
from repro.simulation.admission import admit, witness_within
from repro.simulation.costs import CostModel
from repro.workloads import derive_seed, random_hierarchical, rng_from_seed
from repro.workloads.families import make_arrivals, make_topology
from repro.workloads.generators import monotone_instance, utilization_workload

#: What ``inspect`` returns: (outcome, problems, makespan ratio, counters).
Inspection = Tuple[Optional[Dict[str, Any]], List[str], Optional[Fraction], Dict[str, int]]


def _validation_problems(instance, assignment, schedule, T=None) -> List[str]:
    report = validate_schedule(instance, assignment, schedule, T=T)
    return [f"invalid schedule: {v.detail}" for v in report.violations[:3]]


class Workload:
    name = ""
    #: Seconds one pass over the pool took on the reference machine with
    #: the seed code; fixes how many passes a run of ``--seconds`` makes.
    nominal_pass_s = 1.0
    min_passes = 4
    #: Whether every operation must run without a single LP solve.
    lp_free = False
    #: Per-layer metrics the traced run must find above zero.
    expected_layers: Tuple[str, ...] = ()

    def op_id(self, item) -> str:
        return item[0]

    def reference_outcomes(self) -> Dict[str, Dict[str, Any]]:
        """Outcomes produced during set-up, checked like the others."""
        return {}

    def passes_for(self, seconds: float) -> int:
        return max(self.min_passes, round(seconds / self.nominal_pass_s))

    def schedule(self, rng, passes: int) -> List[Any]:
        order: List[Any] = []
        for _ in range(passes):
            order.extend(self.pool[i] for i in rng.permutation(len(self.pool)))
        return order

    def close(self) -> None:
        pass


class Approx(Workload):
    """Theorem V.2 two-approximation, cold, over the E14 instance family."""

    name = "approx"
    nominal_pass_s = 1.7
    expected_layers = (
        "search.minimal_fractional_T_ms", "lp.solves", "rounding.lst_ms",
        "schedule.build_ms", "schedule.validate_ms",
    )
    #: One instance per shape: operations this long vary by several
    #: percent run to run, so a run needs many samples of each.
    SHAPES = ((32, 10), (48, 12), (64, 16), (96, 20))

    def setup(self, work_dir: str) -> None:
        self.session = Session(cache=False)
        self.pool = [
            (
                f"{n}x{m}",
                random_hierarchical(
                    rng_from_seed(derive_seed(140, "perfbench", n, m, 0)), n=n, m=m
                ),
            )
            for n, m in self.SHAPES
        ]

    def run(self, item):
        return self.session.two_approximation(item[1])

    def inspect(self, item, res) -> Inspection:
        problems = _validation_problems(res.instance, res.assignment, res.schedule)
        if res.makespan > 2 * res.T_lp:
            problems.append(f"makespan {res.makespan} > 2·T* = {2 * res.T_lp}")
        return {"T_star": frac_to_str(res.T_lp)}, problems, res.makespan / res.T_lp, {}


class Memory(Workload):
    """Section VI memory models: minimal LP horizon, then iterative rounding.

    Model 1 draws come from E10's budgeted generator, Model 2 draws from
    E11's uniform trees; the pool alternates between the two.
    """

    name = "memory"
    nominal_pass_s = 1.8
    expected_layers = (
        "memory.search_ms", "lp.solves", "rounding.iterative_ms", "schedule.build_ms",
    )
    MODEL1 = (
        ("semi", 8, 4), ("clustered", 10, 4), ("semi", 12, 5),
        ("clustered", 12, 6), ("semi", 14, 6), ("clustered", 16, 4),
        ("semi", 16, 6), ("clustered", 16, 6),
    )
    MODEL2 = (
        (8, 12), (8, 16), (10, 14), (12, 12), (12, 16), (16, 12),
        (16, 14), (16, 16),
    )
    MU = Fraction(2)

    def setup(self, work_dir: str) -> None:
        self.session = Session(cache=False)
        model1 = []
        for k, (kind, n, m) in enumerate(self.MODEL1):
            rng = rng_from_seed(derive_seed(100, "perfbench", k))
            inst, space, budgets = _budgeted_instance(rng, kind, n, m)
            model1.append((f"m1:{kind}:{n}x{m}#{k}", 1, inst, (space, budgets)))
        model2 = []
        for k, (m, n) in enumerate(self.MODEL2):
            rng = rng_from_seed(derive_seed(110, "perfbench", k))
            inst = monotone_instance(rng, _uniform_tree(m, 2), n=n)
            sizes = [Fraction(int(rng.integers(1, 5)), 8) for _ in range(n)]
            model2.append((f"m2:{n}x{m}#{k}", 2, inst, (sizes, self.MU)))
        self.pool = [op for pair in zip(model1, model2) for op in pair]

    def run(self, item):
        _key, model, inst, params = item
        session = self.session
        try:
            with span("bench.minimal_model_T", model=model):
                if model == 1:
                    T = session.minimal_model1_T(inst, *params)
                else:
                    T = session.minimal_model2_T(inst, *params)
        except InfeasibleError:
            return None
        solve = solve_model1 if model == 1 else solve_model2
        with span("bench.solve_model", model=model):
            return solve(inst, *params, T, backend=session.backend, kernel=session.kernel)

    def inspect(self, item, res) -> Inspection:
        if res is None:
            return {"T": "infeasible"}, [], None, {}
        model = item[1]
        bound = Fraction(3) if model == 1 else res.sigma
        problems = _validation_problems(res.instance, res.assignment, res.schedule)
        if res.makespan_ratio > bound:
            problems.append(f"makespan {res.makespan} > {bound}·T (T={res.T})")
        if res.max_memory_ratio > bound:
            problems.append(f"memory ratio {res.max_memory_ratio} > {bound}")
        counters = {
            "rounding.iterations": res.rounding.iterations,
            "rounding.fallback_drops": res.rounding.fallback_drops,
        }
        return {"T": frac_to_str(res.T)}, problems, res.makespan_ratio, counters


@dataclass
class AdmissionOutput:
    ext: Any
    witness: Any
    template: Any = None
    result: Any = None
    violations: List[Any] = field(default_factory=list)


class Admission(Workload):
    """E18 online arrivals: RTA prefilter, witness search, template, admit.

    The pool is E18's own draws (root seed 180) over three topologies and
    four utilizations, six trials each, jittered arrivals over 8 windows.
    Draws whose witness search exhausts ``NODE_LIMIT`` are left out (see
    ``EXCLUDED``): the benchmark's workloads must run without failures.
    """

    name = "admission"
    nominal_pass_s = 2.05
    lp_free = True
    expected_layers = (
        "rta.analyze_ms", "exact.search_ms", "schedule.build_ms", "sim.admit_ms",
        "schedule.check_releases_ms",
    )
    TOPOLOGIES = ("flat4", "clustered4x2", "smp2x2x2")
    UTILIZATIONS = (0.5, 0.8, 0.95, 1.05)
    TRIALS = 6
    T_REF = 12
    WINDOWS = 8
    NODE_LIMIT = 50_000
    #: Draws whose exact witness search reaches NODE_LIMIT at the seed code.
    EXCLUDED = frozenset({
        "smp2x2x2:u0.8#0", "smp2x2x2:u0.8#4", "smp2x2x2:u0.95#2", "smp2x2x2:u0.95#5",
    })

    def setup(self, work_dir: str) -> None:
        self.cost_model = CostModel.numa_like()
        self.topologies = {name: make_topology(name) for name in self.TOPOLOGIES}
        self.pool = []
        for topo in self.TOPOLOGIES:
            for u in self.UTILIZATIONS:
                for trial in range(self.TRIALS):
                    key = f"{topo}:u{u}#{trial}"
                    if key not in self.EXCLUDED:
                        seed = derive_seed(180, "e18", topo, "jittered", str(u), trial)
                        self.pool.append((key, topo, u, seed))

    def run(self, item):
        _key, topo, u, seed = item
        topology = self.topologies[topo]
        T_ref = self.T_REF
        with span("bench.utilization_workload"):
            ext = utilization_workload(
                rng_from_seed(seed), topology.family, u, T_ref
            ).with_singletons()
        witness = witness_within(ext, T_ref, prefilter=True, node_limit=self.NODE_LIMIT)
        if witness is None:
            return AdmissionOutput(ext, None)
        template = Session(cache=False).template(ext, witness, T_ref)
        with span("bench.make_arrivals"):
            stream = make_arrivals("jittered", seed, ext.n, template.T).arrivals_until(
                self.WINDOWS * template.T
            )
        result = admit(
            template, stream, self.WINDOWS, topology=topology, cost_model=self.cost_model
        )
        with span("bench.check_releases"):
            violations = check_releases(result.schedule, result.releases())
        return AdmissionOutput(ext, witness, template, result, violations)

    def inspect(self, item, out) -> Inspection:
        if out.witness is None:
            return {"witness": False}, [], None, {}
        result = out.result
        problems = [f"release violated: {v.detail}" for v in out.violations[:3]]
        problems += _validation_problems(out.ext, out.witness, out.template, T=self.T_REF)
        outcome = {
            "witness": True,
            "admitted": len(result.admitted),
            "misses": result.miss_count,
        }
        counters = {
            "sim.admitted": len(result.admitted),
            "sim.misses": result.miss_count,
            "sim.max_backlog": result.max_backlog,
        }
        # An admitted instance's own makespan is its response time.
        ratio = sum(
            (inst.response_time for inst in result.admitted), Fraction(0)
        ) / (len(result.admitted) * result.template_T)
        return outcome, problems, ratio, counters


class Cache(Workload):
    """Session over an on-disk SolveCache: 4 hits, then 1 miss that writes.

    Set-up warms the store with the two-approximation of ``WARM`` 16×6
    instances.  A hit repeats one of those requests; a miss asks for the
    wrap-around template of a warm instance's assignment at a horizon no
    request used before (``T`` plus a fresh multiple of 1/1000), so it
    computes and writes.
    """

    name = "cache"
    nominal_pass_s = 0.065
    lp_free = True
    expected_layers = ("cache.hit_ms", "cache.miss_put_ms", "schedule.build_ms")
    WARM = 8
    HITS_PER_MISS = 4

    def setup(self, work_dir: str) -> None:
        self.store = SolveCache(work_dir)
        self.session = Session(cache=self.store)
        self.warm = []
        for k in range(self.WARM):
            inst = random_hierarchical(
                rng_from_seed(derive_seed(140, "perfbench-cache", k)), n=16, m=6
            )
            cold = self.session.two_approximation(inst)
            self.warm.append(
                {
                    "key": f"16x6#{k}",
                    "instance": inst,
                    "cold": _two_approx_payload(cold),
                    "ext": cold.instance,
                    "assignment": cold.assignment,
                    "T": min_T_for_assignment(cold.instance, cold.assignment),
                }
            )
        self.misses = 0
        # No fixed pool: schedule() generates the operations, since every
        # miss needs a fresh horizon; the reference entries come from set-up.
        self.pool = []

    def schedule(self, rng, passes: int) -> List[Any]:
        order: List[Any] = []
        for _ in range(passes):
            hits = [int(k) for k in rng.permutation(self.WARM)] * self.HITS_PER_MISS
            misses = [int(k) for k in rng.permutation(self.WARM)]
            for g, k in enumerate(misses):
                group = hits[g * self.HITS_PER_MISS:(g + 1) * self.HITS_PER_MISS]
                order.extend(("hit", h) for h in group)
                order.append(("miss", k))
        return order

    def op_id(self, item) -> str:
        return f"{item[0]}:{self.warm[item[1]]['key']}"

    def run(self, item):
        kind, k = item
        entry = self.warm[k]
        if kind == "hit":
            return self.session.two_approximation(entry["instance"])
        self.misses += 1
        T = entry["T"] + Fraction(self.misses, 1000)
        return T, self.session.template(entry["ext"], entry["assignment"], T)

    def inspect(self, item, out) -> Inspection:
        kind, k = item
        entry = self.warm[k]
        if kind == "hit":
            problems = []
            if _two_approx_payload(out) != entry["cold"]:
                problems.append(f"hit on {entry['key']} differs from the cold result")
            return None, problems, out.makespan / out.T_lp, {}
        T, schedule = out
        problems = _validation_problems(entry["ext"], entry["assignment"], schedule, T=T)
        return None, problems, schedule.makespan() / T, {}

    def reference_outcomes(self) -> Dict[str, Dict[str, str]]:
        """The warm set's cold answers, compared with the reference once."""
        return {e["key"]: {"T_star": e["cold"]["T_lp"]} for e in self.warm}

    def close(self) -> None:
        self.store.close()


def _two_approx_payload(res) -> Dict[str, Any]:
    return {
        "T_lp": frac_to_str(res.T_lp),
        "makespan": frac_to_str(res.makespan),
        "assignment": assignment_to_dict(res.assignment),
        "schedule": schedule_to_dict(res.schedule),
    }


WORKLOADS = {w.name: w for w in (Approx, Memory, Admission, Cache)}


def check_outcomes(
    reference: Dict[str, Dict[str, Any]], seen: Dict[str, Dict[str, Any]]
) -> List[str]:
    """Compare every outcome a run produced with the committed reference.

    Fails closed: a reference entry the run never produced is an error, as
    is an outcome the reference does not list.
    """
    problems = []
    for key in sorted(set(reference) | set(seen)):
        if key not in seen:
            problems.append(f"{key}: listed in the reference but never run")
        elif key not in reference:
            problems.append(f"{key}: not in the reference")
        elif seen[key] != reference[key]:
            problems.append(f"{key}: got {seen[key]}, reference {reference[key]}")
    return problems
