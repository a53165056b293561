"""Declarative experiments: parameter grids compiled to batch requests.

An :class:`ExperimentSpec` names *what* to measure — a workload source,
a parameter grid, seeds, and algorithms — and :func:`run_experiment`
compiles it into the flat (workload × cell × seed × algorithm) request
list a :class:`~repro.engine.runner.BatchRunner` executes, then
aggregates the records back into per-cell summaries. The hand-rolled
triple loops of :mod:`repro.analysis.sweeps`, the benchmark harnesses,
and the CLI ``sweep`` subcommand are all this one shape.

The workload source is exactly one of:

* ``family=`` — one generator (a callable, a registry name, or a
  parameterized spec like ``"heavy-tail?pareto_shape=2.0"``) swept over
  the grid;
* ``base_instance=`` — one fixed job set re-run across the grid;
* ``workloads=`` — a *workload axis*: a list of registry specs
  (``["poisson", "heavy-tail?n=64&alpha=3.0"]``), each swept over the
  whole grid, labeling its cells with the canonical spec name. Specs
  resolve through :data:`repro.workloads.registry.WORKLOADS`, so every
  spelling of the same workload builds the identical instance — and
  therefore hashes to the identical batch-runner cache key.

Grid parameters are applied by name:

* ``alpha``, ``m`` — forwarded to the family (and, for a fixed base
  instance, applied via :meth:`~repro.model.job.Instance.with_machine`);
* ``value_x`` — scales every job value by the given factor *after*
  generation (the admission S-curve knob);
* any other key — forwarded to the family as a keyword argument.

Cells are emitted in deterministic order: workloads vary slowest, then
grid axes in declaration order, algorithms cycle innermost. Seeds
replicate each cell and are aggregated (mean cost/acceptance, worst
certified ratio) — the same statistics the sweeps module always
reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Mapping, Sequence

from ..errors import InvalidParameterError
from ..model.job import Instance
from .registry import canonical_variant_name, parse_variant_name
from .runner import BatchRunner, RunRecord, RunRequest

__all__ = [
    "ExperimentSpec",
    "ExperimentCell",
    "run_experiment",
    "aggregate_records",
    "resolve_family",
]

FamilyFn = Callable[..., Instance]

#: Grid/variant axis names that would collide with the keywords
#: :meth:`ExperimentSpec.requests` itself passes to the family call
#: (``family(n, seed=..., **params)``) or with the cell labels the
#: workload axis injects. Rejected up front with a clear error instead
#: of dying with an opaque ``TypeError`` deep in the request compiler;
#: replication knobs have dedicated spec fields.
RESERVED_AXIS_NAMES = frozenset({"n", "seed", "workload"})


def _grid_cells(axes: Sequence[tuple[str, Sequence[Any]]]) -> list[dict[str, Any]]:
    """Cross product of named axes, first axis varying slowest."""
    if not axes:
        return [{}]
    names = [name for name, _ in axes]
    return [
        dict(zip(names, combo))
        for combo in product(*(values for _, values in axes))
    ]


def _worst_ratio(values: Sequence[float]) -> float:
    """NaN-aware worst (largest) certified ratio over replicates.

    ``max()`` silently keeps or drops a ``NaN`` depending on where it
    sits in the argument order; here any ``NaN`` replicate poisons the
    aggregate instead, so one uncertified run can neither hide behind
    nor fake the worst certified ratio.
    """
    out = -math.inf
    for value in values:
        value = float(value)
        if math.isnan(value):
            return math.nan
        out = max(out, value)
    return out


def resolve_family(family: str | FamilyFn) -> FamilyFn:
    """A workload family by name or parameterized spec (or a callable).

    Named families resolve through the workload registry
    (:data:`repro.workloads.registry.WORKLOADS`) — the same table the
    CLI ``generate`` subcommand offers. A parameterized spec
    (``"heavy-tail?pareto_shape=2.0"``) resolves to the base generator
    with those knobs bound; ``n`` and ``seed`` may not be pinned here
    because the spec fields (``n=``, ``seeds=``) own them — pin them on
    a ``workloads=`` axis entry instead, where per-workload replication
    is well defined.
    """
    if callable(family):
        return family
    from ..workloads.registry import WORKLOADS

    info = WORKLOADS.info(family)
    if "n" in info.params or "seed" in info.params:
        raise InvalidParameterError(
            f"workload spec {family!r} pins n/seed, but in the family= "
            "slot those are controlled by the spec fields (n=, seeds=); "
            "drop them here or move the spec to the workloads= axis"
        )
    if not info.params:
        return info.generator
    # The bound method already folds the pinned parameters in (and
    # raises on clashes) with the family-call signature.
    return info.build


@dataclass(frozen=True)
class ExperimentCell:
    """Aggregated measurements of one parameter cell of an experiment."""

    algorithm: str
    params: dict[str, Any]
    mean_cost: float
    mean_energy: float
    mean_acceptance: float
    worst_certified_ratio: float
    runs: int
    records: tuple[RunRecord, ...] = field(repr=False, default=())


@dataclass(frozen=True)
class _WorkloadPlan:
    """One resolved ``workloads=`` axis entry, ready to generate from."""

    label: str
    generator: FamilyFn = field(repr=False)
    n: int
    seeds: tuple[int, ...]
    kwargs: Mapping[str, Any]


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative experiment over workloads or a fixed instance.

    Parameters
    ----------
    name:
        Display/bookkeeping label.
    grid:
        Ordered mapping axis-name → values; the cross product defines
        the cells. May be empty (a single cell).
    algorithms:
        Registry names to evaluate on every cell; variant specs
        (``pd?delta=0.05``) are accepted verbatim.
    variants:
        Ordered mapping of algorithm-parameter axes (e.g.
        ``{"delta": [0.01, 0.05]}``); the cross product is applied to
        *every* name in ``algorithms`` as a variant spec, turning
        delta/epsilon ablations into declarative grids. Distinct from
        ``grid``: grid axes parameterize the *instances*, variant axes
        parameterize the *algorithms* (and are folded into each cell's
        cache key through the variant name).
    family:
        Workload generator — a callable ``(n, *, m, alpha, seed,
        **kwargs)``, a registry name, or a parameterized spec (see
        :func:`resolve_family`). Mutually exclusive with
        ``base_instance`` and ``workloads``.
    base_instance:
        A fixed job set re-run across the grid (only ``m`` / ``alpha`` /
        ``value_x`` axes make sense then); seeds are ignored.
    workloads:
        The *workload axis*: registry specs
        (``["poisson", "heavy-tail?n=64&alpha=3.0"]``), each swept over
        the full grid and labeling its cells with the canonical spec
        name (``params["workload"]``). A spec may pin ``n`` (overriding
        ``n=`` for that workload) and ``seed`` (collapsing that
        workload's replicates to the pinned seed); its other knobs
        override ``family_kwargs`` and may not collide with grid axes.
        Mutually exclusive with ``family`` and ``base_instance``.
    n, seeds, family_kwargs:
        Forwarded to the generator; each cell is replicated per seed.
    transform:
        Optional hook ``(instance, params) -> instance`` applied after
        generation — for derived axes no named parameter covers.
    """

    name: str
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    algorithms: Sequence[str] = ("pd",)
    variants: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    family: str | FamilyFn | None = None
    base_instance: Instance | None = None
    workloads: Sequence[str] = ()
    n: int = 20
    seeds: Sequence[int] = (0, 1, 2)
    family_kwargs: Mapping[str, Any] = field(default_factory=dict)
    transform: Callable[[Instance, Mapping[str, Any]], Instance] | None = None
    skip_incapable: bool = False

    def __post_init__(self) -> None:
        sources = sum(
            1
            for provided in (
                self.family is not None,
                self.base_instance is not None,
                bool(self.workloads),
            )
            if provided
        )
        if sources != 1:
            raise InvalidParameterError(
                "specify exactly one of family=, base_instance=, or "
                "workloads="
            )
        if not self.algorithms:
            raise InvalidParameterError("need at least one algorithm")
        if self.base_instance is None and not list(self.seeds):
            raise InvalidParameterError("need at least one seed")
        for entry in self.workloads:
            if not isinstance(entry, str):
                raise InvalidParameterError(
                    f"workloads= entries must be registry spec strings, "
                    f"got {entry!r}; pass a callable via family= instead"
                )
        for axis in ("grid", "variants"):
            mapping = getattr(self, axis)
            reserved = RESERVED_AXIS_NAMES.intersection(mapping)
            if reserved:
                raise InvalidParameterError(
                    f"reserved {axis} axis name(s) {sorted(reserved)}: "
                    "'n' and 'seed' are spec fields (n=, seeds=) and "
                    "'workload' labels the workloads= axis — none are "
                    "sweepable axes"
                )
            empty = [key for key, values in mapping.items() if not list(values)]
            if empty:
                raise InvalidParameterError(
                    f"{axis} axis name(s) {sorted(empty)} have no values — "
                    "an empty axis would silently produce an empty sweep"
                )
        collisions = set(self.grid).intersection(self.variants)
        if collisions:
            raise InvalidParameterError(
                f"axis name(s) {sorted(collisions)} appear in both grid= "
                "(instance parameters) and variants= (algorithm "
                "parameters); rename one so cell summaries stay unambiguous"
            )

    # ------------------------------------------------------------------
    def cells(self) -> list[dict[str, Any]]:
        """The parameter dicts of every grid cell, in deterministic order."""
        return _grid_cells(list(self.grid.items()))

    def variant_cells(self) -> list[dict[str, Any]]:
        """The algorithm-parameter dicts of the ``variants`` axes."""
        return _grid_cells(list(self.variants.items()))

    def algorithm_names(self) -> list[str]:
        """Effective algorithm list: every name × every variant cell.

        Every entry is resolved through the registry to its *canonical*
        variant name, so inline specs (``pd?delta=5e-2``) and axis-built
        ones label records — and group into cells — identically. Two
        spellings of the same effective algorithm are an error (they
        would silently merge into one cell with doubled replicates).
        Names already carrying a variant spec are merged with the axis
        parameters; a clash between the two is an error too (the axis
        would silently shadow the inline value otherwise).
        """
        from .registry import REGISTRY

        combos = self.variant_cells()
        out: list[str] = []
        seen: set[str] = set()
        for name in self.algorithms:
            base, raw = parse_variant_name(name)
            for combo in combos:
                if combo:
                    clashes = set(raw).intersection(combo)
                    if clashes:
                        raise InvalidParameterError(
                            f"variant axis {sorted(clashes)} clashes with "
                            f"parameters already inline in algorithm {name!r}"
                        )
                    spec_name = canonical_variant_name(base, {**raw, **combo})
                else:
                    spec_name = name
                canonical = REGISTRY.info(spec_name).name
                if canonical in seen:
                    raise InvalidParameterError(
                        f"algorithm {canonical!r} appears more than once in "
                        "the effective (algorithms x variants) list; "
                        "duplicates would double-count replicates"
                    )
                seen.add(canonical)
                out.append(canonical)
        return out

    def workload_plans(self) -> list[_WorkloadPlan]:
        """Resolve the ``workloads=`` axis entries, loudly.

        Every entry resolves through the workload registry to its
        canonical name (so spelling variants label — and cache — as one
        workload); pinned ``n``/``seed`` values are split out from the
        generator knobs; a knob that is also a grid axis is rejected
        (the generator would receive it twice with conflicting values).
        Duplicate canonical names are an error, symmetric to the
        duplicate check on the algorithm × variant list.
        """
        from ..workloads.registry import WORKLOADS

        plans: list[_WorkloadPlan] = []
        seen: set[str] = set()
        for entry in self.workloads:
            info = WORKLOADS.info(entry)
            if info.name in seen:
                raise InvalidParameterError(
                    f"workload {info.name!r} appears more than once on the "
                    "workloads= axis; duplicates would double-count cells"
                )
            seen.add(info.name)
            kwargs = dict(info.params)
            n = kwargs.pop("n", self.n)
            pinned_seed = kwargs.pop("seed", None)
            clashes = set(kwargs).intersection(self.grid)
            if clashes:
                raise InvalidParameterError(
                    f"workload {entry!r} pins {sorted(clashes)}, which are "
                    "also grid axes; the generator would receive them twice"
                )
            # Every grid axis and spec-level family kwarg must be a knob
            # this family accepts — the registry's parameter table makes
            # that checkable up front, instead of a TypeError deep
            # inside generation (one kwargs dict applies to N
            # heterogeneous families here).
            unknown = (
                (set(self.grid) | set(self.family_kwargs))
                - {"value_x"}
                - set(info.spec_params)
            )
            if unknown:
                raise InvalidParameterError(
                    f"grid axis(es)/family kwarg(s) {sorted(unknown)} are "
                    f"not parameters of workload {info.base!r}; accepted: "
                    f"{', '.join(sorted(info.spec_params))}"
                )
            seeds = (
                (pinned_seed,)
                if "seed" in info.params
                else tuple(self.seeds)
            )
            plans.append(
                _WorkloadPlan(
                    label=info.name,
                    generator=info.generator,
                    n=n,
                    seeds=seeds,
                    kwargs=kwargs,
                )
            )
        return plans

    def _build_instance(
        self,
        params: Mapping[str, Any],
        seed: int | None,
        plan: _WorkloadPlan | None = None,
    ) -> Instance:
        value_x = params.get("value_x")
        family_params = {
            k: v for k, v in params.items() if k != "value_x"
        }
        if self.base_instance is not None:
            inst = self.base_instance
            m = family_params.pop("m", None)
            alpha = family_params.pop("alpha", None)
            if family_params:
                raise InvalidParameterError(
                    f"fixed-instance experiments only support m/alpha/value_x "
                    f"axes, got {sorted(family_params)}"
                )
            if m is not None or alpha is not None:
                inst = inst.with_machine(m=m, alpha=alpha)
        elif plan is not None:
            # Workload-axis cell: the spec's pinned knobs override the
            # spec-level family_kwargs; grid axes were checked disjoint.
            kwargs = {**self.family_kwargs, **plan.kwargs, **family_params}
            inst = plan.generator(plan.n, seed=seed, **kwargs)
        else:
            family = resolve_family(self.family)
            kwargs = dict(self.family_kwargs)
            kwargs.update(family_params)
            inst = family(self.n, seed=seed, **kwargs)
        if value_x is not None:
            inst = inst.with_values([j.value * value_x for j in inst.jobs])
        if self.transform is not None:
            inst = self.transform(inst, dict(params))
        return inst

    def fingerprint(self, requests: Sequence[RunRequest] | None = None) -> str:
        """Content address of the compiled request list.

        Two processes agree on this hash iff they compiled the identical
        (algorithm × instance) request list in the identical order —
        exactly the precondition for cooperating on one sweep. The
        work-stealing CLI uses it as the shared claim-table id, so a
        worker whose spec resolves differently (version skew, a mutated
        registry) lands on a *different* claim table and the mismatch
        surfaces loudly at merge time instead of silently interleaving
        mismatched grids.

        Pass ``requests`` (an already-compiled :meth:`requests` list) to
        skip recompiling the grid; it must be this spec's own output.
        """
        from ..io.serialize import stable_hash
        from .runner import request_key

        if requests is None:
            requests = self.requests()
        return stable_hash(
            {
                "kind": "experiment-fingerprint",
                "name": self.name,
                "keys": [
                    request_key(request.algorithm, request.instance)
                    for request in requests
                ],
            }
        )

    def requests(self) -> list[RunRequest]:
        """Compile the spec to the flat batch-request list.

        Deterministic order: workloads slowest (when the axis is used),
        then grid cells in declaration order, seeds, algorithms
        innermost. ``tag["cell"]`` enumerates (workload × grid cell)
        combinations, so aggregation groups workload-axis runs without
        any special casing.

        With ``skip_incapable=True``, (algorithm × cell) pairs the
        algorithm's registry capabilities rule out (today: ``m > 1`` for
        a single-processor algorithm) are dropped instead of raising —
        the capability-aware analogue of the old hand-written
        try/except loops.
        """
        from .registry import REGISTRY

        # Resolve once per effective algorithm: the canonical name labels
        # the request, and the registry's parsed parameters become the
        # variant tag — so inline specs and axis-built ones aggregate
        # identically (cell params always include the knob values).
        algorithms = [
            (info.name, dict(info.params), info.multiprocessor)
            for info in map(REGISTRY.info, self.algorithm_names())
        ]
        plans: Sequence[_WorkloadPlan | None] = (
            self.workload_plans() if self.workloads else [None]
        )
        base_seeds: Sequence[int | None] = (
            [None] if self.base_instance is not None else list(self.seeds)
        )
        out: list[RunRequest] = []
        cell_id = 0
        for plan in plans:
            seeds = plan.seeds if plan is not None else base_seeds
            for params in self.cells():
                for seed in seeds:
                    inst = self._build_instance(params, seed, plan)
                    for algorithm, variant, multiprocessor in algorithms:
                        if (
                            self.skip_incapable
                            and inst.m > 1
                            and not multiprocessor
                        ):
                            continue
                        cell_params = dict(params)
                        if plan is not None:
                            cell_params = {"workload": plan.label, **cell_params}
                        tag = {
                            "cell": cell_id,
                            "params": cell_params,
                            "variant": variant,
                            "seed": seed,
                            "experiment": self.name,
                        }
                        out.append(RunRequest(algorithm, inst, tag=tag))
                cell_id += 1
        return out


def aggregate_records(records: Sequence[RunRecord]) -> list[ExperimentCell]:
    """Aggregate spec-tagged records into per-(cell, algorithm) summaries.

    Seed replicates are regrouped by (grid cell, algorithm) via the
    request tags — robust to cells dropped by ``skip_incapable`` —
    in first-appearance order, which for records in request order is
    exactly the spec's deterministic grid order. Because the grouping
    needs only the tags, this also works on records merged back from
    shard files, and a merged sharded run aggregates bit-identically to
    an unsharded one.

    A cell's ``params`` merges its grid parameters with its variant
    (algorithm) parameters; the reserved-axis and collision checks in
    :class:`ExperimentSpec` keep that union unambiguous. The worst
    certified ratio is NaN-aware: one uncertified replicate makes the
    aggregate ``NaN`` rather than a position-dependent accident of
    ``max()``.
    """
    groups: dict[tuple[int, str], list[RunRecord]] = {}
    for record in records:
        if record.tag is None or "cell" not in record.tag:
            raise InvalidParameterError(
                "aggregate_records needs spec-tagged records (tag['cell']); "
                "got an untagged record — was this batch built by hand?"
            )
        groups.setdefault((record.tag["cell"], record.algorithm), []).append(
            record
        )

    cells: list[ExperimentCell] = []
    for (_, algorithm), reps in groups.items():
        tag = reps[0].tag
        params = dict(tag.get("params", {}))
        params.update(tag.get("variant") or {})
        cells.append(
            ExperimentCell(
                algorithm=algorithm,
                params=params,
                mean_cost=sum(r.cost for r in reps) / len(reps),
                mean_energy=sum(r.energy for r in reps) / len(reps),
                mean_acceptance=sum(r.acceptance for r in reps) / len(reps),
                worst_certified_ratio=_worst_ratio(
                    [r.certified_ratio for r in reps]
                ),
                runs=len(reps),
                records=tuple(reps),
            )
        )
    return cells


def run_experiment(
    spec: ExperimentSpec,
    runner: BatchRunner | None = None,
    *,
    progress: Callable[[RunRecord, int, int], None] | None = None,
) -> list[ExperimentCell]:
    """Execute a spec and aggregate per-(cell, algorithm) statistics.

    Cell order is the spec's deterministic grid order with one entry per
    (algorithm × variant); each entry aggregates that cell's seed
    replicates.

    ``progress(record, done, total)`` (if given) fires once per record
    in completion order as the runner streams results — the CLI's
    ``--progress`` ticker and any dashboard hook in here without
    changing what the function returns.
    """
    runner = runner or BatchRunner()
    return aggregate_records(runner.run(spec.requests(), on_record=progress))
