"""Declarative experiment descriptions.

A :class:`Scenario` is the paper's whole workflow as one value: which
workload, which node types from the hardware catalog, the bounds of the
configuration space, which analysis stages to run, and the root RNG
seed.  It is plain data -- ``to_dict``/``from_dict`` round-trip through
JSON -- so scenarios can live in files, travel to worker processes, and
serve as content-addressed cache keys.

Node types come in two spellings.  The paper's two-type case uses the
historical pair fields (``node_a``/``max_a``/``counts_a`` and the b
twins); any number of types uses ``node_types``, an ordered list of
:class:`NodeGroup` entries.  The two spellings are interchangeable for
two groups: ``cache_identity`` canonicalizes both to the group list, so
an A/B scenario written either way shares cache entries.

The imperative twin lives in :mod:`repro.engine.context` (call the
pipeline stages yourself, still cached); :func:`repro.engine.runner.run_scenario`
executes a scenario end-to-end.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.util.validate import finite_float, strict_int

#: Analysis stages, in pipeline order.  ``calibrate`` and ``space`` always
#: run (nothing downstream exists without them); the rest are opt-in.
STAGES = ("calibrate", "space", "frontier", "regions", "queueing")

#: Stages implied by later ones: regions needs the frontier.
_STAGE_IMPLIES = {"regions": ("frontier",), "queueing": ()}

#: The historical two-type spelling of the group axes.
_PAIR_FIELDS = ("node_a", "node_b", "max_a", "max_b", "counts_a", "counts_b")

#: Fields earlier releases stored, each with why :meth:`Scenario.from_dict`
#: now drops it.
_RETIRED_FIELDS = {
    "chunk_rows": "the memory budget alone sizes streaming blocks",
    "reduce_at": "every streaming block is folded where it is evaluated",
    "simulation": "the batched measurement campaign is the only one",
}

#: How the :class:`DeprecationWarning` for dropped retired fields begins.
_RETIRED_FIELDS_WARNING = "ignoring retired scenario fields"


def show_retired_fields(action: str = "once") -> None:
    """Show the retired-fields warning on stderr, which Python's default
    filters hide outside ``__main__``: ``"once"`` per distinct set of
    fields, or ``"always"`` for a long-running service's log."""
    warnings.filterwarnings(
        action, message=_RETIRED_FIELDS_WARNING, category=DeprecationWarning
    )


#: Admissible ``Scenario.search`` strategies.
SEARCH_STRATEGIES = ("exhaustive", "random", "ga", "anneal")

#: Keys a ``Scenario.search`` mapping may carry.
_SEARCH_KEYS = ("strategy", "budget_rows", "seed", "batch_rows", "options")


def _plain(value: Any) -> Any:
    """Recursively turn tuples into lists for JSON-plain dicts."""
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class NodeGroup:
    """One node-type axis of a scenario's configuration space.

    Mirrors :class:`repro.core.configuration.GroupSpec` with the node
    referenced by catalog name instead of spec object, so it stays plain
    data: ``max_nodes`` bounds the count range ``0..max_nodes``,
    ``counts`` pins explicit counts, ``settings`` pins explicit
    (cores, frequency) settings.
    """

    node: str
    max_nodes: int = 10
    counts: Optional[Tuple[int, ...]] = None
    settings: Optional[Tuple[Tuple[int, float], ...]] = None

    def __post_init__(self) -> None:
        if strict_int(self.max_nodes, "max_nodes") < 0:
            raise ValueError("maximum node counts must be non-negative")
        if self.counts is not None:
            object.__setattr__(
                self,
                "counts",
                tuple(strict_int(c, "each count") for c in self.counts),
            )
        if self.settings is not None:
            object.__setattr__(
                self,
                "settings",
                tuple(
                    (
                        strict_int(c, "each setting's cores"),
                        finite_float(f, "each setting's frequency"),
                    )
                    for c, f in self.settings
                ),
            )

    def to_dict(self) -> Dict[str, Any]:
        return _plain(asdict(self))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NodeGroup":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown node group fields {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**data)


def _canonical_search(search: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate and canonicalize a ``Scenario.search`` mapping.

    The canonical form always carries every key in a fixed shape, so two
    spellings of the same search share one cache identity.
    """
    if not isinstance(search, Mapping):
        raise ValueError(
            f"search must be a mapping, got {type(search).__name__}"
        )
    unknown = set(search) - set(_SEARCH_KEYS)
    if unknown:
        raise ValueError(
            f"unknown search keys {sorted(unknown)}; "
            f"known: {sorted(_SEARCH_KEYS)}"
        )
    strategy = str(search.get("strategy", "exhaustive"))
    if strategy not in SEARCH_STRATEGIES:
        raise ValueError(
            f"search strategy must be one of {list(SEARCH_STRATEGIES)}, "
            f"got {strategy!r}"
        )
    budget = search.get("budget_rows")
    if budget is not None:
        budget = strict_int(budget, "search budget_rows")
        if budget < 1:
            raise ValueError("search budget_rows must be at least one row")
    batch = search.get("batch_rows")
    if batch is not None:
        batch = strict_int(batch, "search batch_rows")
        if batch < 1:
            raise ValueError("search batch_rows must be at least one row")
    seed = search.get("seed")
    options = dict(search.get("options") or {})
    return {
        "strategy": strategy,
        "budget_rows": budget,
        "seed": None if seed is None else strict_int(seed, "search seed"),
        "batch_rows": batch,
        "options": options,
    }


@dataclass(frozen=True)
class Scenario:
    """One reproducible experiment, declaratively.

    Attributes
    ----------
    workload:
        Workload name, resolved through :func:`repro.workloads.suite.workload_by_name`
        (or a workload registered on the :class:`~repro.engine.context.RunContext`).
    node_a, node_b:
        Node-type names, resolved through the hardware catalog; ``a`` is
        conventionally the low-power type, as in the paper.
    max_a, max_b, counts_a, counts_b:
        Configuration-space bounds, mirroring
        :func:`repro.core.evaluate.evaluate_space`: node counts range over
        ``0..max`` unless pinned to an explicit ``counts`` list.  Counts
        and maxima must be integers (``2.0`` is accepted and kept as
        given; ``2.5``, booleans and non-finite numbers raise).
    node_types:
        The k-group generalization: an ordered list of
        :class:`NodeGroup` entries (dicts are coerced).  When set it is
        authoritative and the pair fields above become read-only mirrors
        of the first two groups; when ``None`` the pair fields define a
        two-group scenario.
    units:
        Job size in work units; ``None`` selects the workload's
        ``"analysis"`` problem size (the paper's Section IV default).
    calibrated:
        ``False`` uses catalog ground truth; ``True`` runs the
        trace-driven calibration campaign against the simulated testbed
        (one batched pass over every (cores, frequency) setting; see
        :func:`repro.core.calibration.calibrate_node`).
    noise_scale:
        Multiplier on the calibrated noise model (only meaningful with
        ``calibrated=True``; 0 gives noiseless calibration).
    seed:
        Root of the scenario's reproducible RNG tree.
    stages:
        Analysis stages to run on top of calibrate+space, any subset of
        ``("frontier", "regions", "queueing")``; implied prerequisites are
        added automatically.
    utilizations, window_s:
        Queueing-stage knobs (Fig. 10 semantics).
    space_mode:
        How the configuration space flows through the pipeline:
        ``"materialized"`` holds the full column stacks in RAM (the
        historical behavior), ``"streaming"`` evaluates memory-bounded
        blocks and folds them through incremental reducers
        (:mod:`repro.core.streaming`), caching only the reduced
        artifacts.  Results are bit-identical, so the mode is excluded
        from the cache identity.
    memory_budget_mb:
        Peak-memory budget for streaming evaluation, megabytes;
        ``None`` uses :data:`repro.core.streaming.DEFAULT_MEMORY_BUDGET_MB`.
        With the worker count it decides the block plan.  An execution
        knob, excluded from the cache identity.
    backend, backend_options:
        Execution backend for the scenario's fan-outs -- a registered
        name (``"serial"``, ``"process_pool"``, ``"tcp_remote"``) plus
        its options dict (validated against the backend's accepted
        options at construction).  ``None`` keeps the context/default
        selection.  Every backend produces bit-identical artifacts, so
        both fields are excluded from the cache identity: a scenario run
        remotely shares cache entries (and cache keys) with the same
        scenario run in-process.
    search:
        How the configuration space is *explored*: ``None`` (or
        ``{"strategy": "exhaustive"}``) sweeps every row -- the
        historical behavior -- while ``{"strategy": "random" | "ga" |
        "anneal", "budget_rows": ..., "seed": ..., "batch_rows": ...,
        "options": {...}}`` runs a :mod:`repro.search` agent under a row
        budget.  Unlike ``space_mode``, an active search **is** part of
        the cache identity: a sampled frontier is approximate, so it
        must never share cache entries with the exhaustive one.
        ``budget_rows`` defaults to 5% of the space at run time; ``seed``
        defaults to the scenario seed; remaining ``options`` pass to the
        agent's constructor.
    name:
        Optional human label; excluded from the cache identity so naming
        a scenario never invalidates its results.
    """

    workload: str
    node_a: str = "arm-cortex-a9"
    node_b: str = "amd-k10"
    max_a: int = 10
    max_b: int = 10
    counts_a: Optional[Tuple[int, ...]] = None
    counts_b: Optional[Tuple[int, ...]] = None
    units: Optional[float] = None
    calibrated: bool = False
    noise_scale: float = 1.0
    seed: int = 0
    stages: Tuple[str, ...] = ("frontier", "regions")
    utilizations: Tuple[float, ...] = (0.05, 0.25, 0.50)
    window_s: float = 20.0
    space_mode: str = "materialized"
    memory_budget_mb: Optional[float] = None
    name: Optional[str] = None
    node_types: Optional[Tuple[NodeGroup, ...]] = None
    backend: Optional[str] = None
    backend_options: Optional[Dict[str, Any]] = None
    search: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.node_types is not None:
            groups = tuple(
                g if isinstance(g, NodeGroup) else NodeGroup.from_dict(g)
                for g in self.node_types
            )
            if not groups:
                raise ValueError("node_types cannot be empty")
            object.__setattr__(self, "node_types", groups)
            # The pair fields become read-only mirrors of the first two
            # groups, so legacy consumers keep working on k >= 2 and the
            # two spellings cannot drift apart.
            object.__setattr__(self, "node_a", groups[0].node)
            object.__setattr__(self, "max_a", groups[0].max_nodes)
            object.__setattr__(self, "counts_a", groups[0].counts)
            if len(groups) >= 2:
                object.__setattr__(self, "node_b", groups[1].node)
                object.__setattr__(self, "max_b", groups[1].max_nodes)
                object.__setattr__(self, "counts_b", groups[1].counts)
            else:
                object.__setattr__(self, "max_b", 0)
                object.__setattr__(self, "counts_b", None)
        for pair_max in ("max_a", "max_b"):
            if strict_int(getattr(self, pair_max), pair_max) < 0:
                raise ValueError("maximum node counts must be non-negative")
        if self.node_types is not None:
            if all(g.max_nodes == 0 for g in self.node_types):
                raise ValueError("a scenario needs at least one node of some type")
        elif self.max_a == 0 and self.max_b == 0:
            raise ValueError("a scenario needs at least one node of some type")
        if self.units is not None and finite_float(self.units, "units") <= 0:
            raise ValueError(f"units must be positive, got {self.units}")
        if finite_float(self.noise_scale, "noise_scale") < 0:
            raise ValueError("noise scale must be non-negative")
        if finite_float(self.window_s, "window_s") <= 0:
            raise ValueError("queueing window must be positive")
        if self.space_mode not in ("materialized", "streaming"):
            raise ValueError(
                f"space_mode must be 'materialized' or 'streaming', got "
                f"{self.space_mode!r}"
            )
        if self.memory_budget_mb is not None and finite_float(
            self.memory_budget_mb, "memory_budget_mb"
        ) <= 0:
            raise ValueError("memory budget must be positive")
        if self.backend is not None:
            # Registry validation catches unknown names and unknown
            # option keys here, at construction, not mid-run.
            from repro.engine.backends import validate_backend_options

            object.__setattr__(
                self,
                "backend_options",
                validate_backend_options(
                    self.backend, self.backend_options or {}
                ),
            )
        elif self.backend_options:
            raise ValueError(
                "backend_options require a backend; set backend to one of "
                "the registered names (e.g. 'serial', 'process_pool', "
                "'tcp_remote')"
            )
        if self.search is not None:
            object.__setattr__(
                self, "search", _canonical_search(self.search)
            )
        seen_nodes = set()
        for group in self.groups:
            if group.node in seen_nodes:
                raise ValueError(
                    f"duplicate node type {group.node!r} in node_types: "
                    "each group needs a distinct node-type name, or its "
                    "calibrated parameters would silently shadow another "
                    "group's"
                )
            seen_nodes.add(group.node)
        for tup_field in ("counts_a", "counts_b", "stages", "utilizations"):
            value = getattr(self, tup_field)
            if value is not None and not isinstance(value, tuple):
                object.__setattr__(self, tup_field, tuple(value))
        for u in self.utilizations:
            finite_float(u, "each utilization")
        unknown = set(self.stages) - set(STAGES)
        if unknown:
            raise ValueError(
                f"unknown stages {sorted(unknown)}; available: {list(STAGES[2:])}"
            )
        # Normalize: implied prerequisites in, pipeline order, no dupes.
        wanted = set(self.stages)
        for stage in self.stages:
            wanted.update(_STAGE_IMPLIES.get(stage, ()))
        wanted.update(("calibrate", "space"))
        object.__setattr__(
            self, "stages", tuple(s for s in STAGES if s in wanted)
        )

    def wants(self, stage: str) -> bool:
        """Whether ``stage`` is part of this scenario's pipeline."""
        return stage in self.stages

    @property
    def search_active(self) -> bool:
        """Whether a non-exhaustive search strategy drives the space stage."""
        return self.search is not None and self.search["strategy"] != "exhaustive"

    def search_config(self) -> Optional[Dict[str, Any]]:
        """The effective search configuration, defaults resolved.

        ``None`` for exhaustive scenarios.  ``seed`` falls back to the
        scenario seed; ``budget_rows``/``batch_rows`` stay ``None`` when
        unset (the engine resolves them against the space size).
        """
        if not self.search_active:
            return None
        out = dict(self.search)
        if out["seed"] is None:
            out["seed"] = self.seed
        return out

    @property
    def groups(self) -> Tuple[NodeGroup, ...]:
        """The scenario's node-type groups, whichever spelling defined them."""
        if self.node_types is not None:
            return self.node_types
        return (
            NodeGroup(self.node_a, self.max_a, self.counts_a),
            NodeGroup(self.node_b, self.max_b, self.counts_b),
        )

    # ---- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-able dict (tuples become lists, groups become dicts)."""
        return _plain(asdict(self))

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict`; unknown keys raise for typo safety.

        Retired fields (:data:`_RETIRED_FIELDS`), which scenarios stored
        by earlier releases carry, are ignored with one
        :class:`DeprecationWarning` that names each and why.
        """
        retired = sorted(set(data) & set(_RETIRED_FIELDS))
        if retired:
            reasons = "; ".join(f"{k}: {_RETIRED_FIELDS[k]}" for k in retired)
            warnings.warn(
                f"{_RETIRED_FIELDS_WARNING} ({reasons})",
                DeprecationWarning,
                stacklevel=2,
            )
            data = {k: v for k, v in data.items() if k not in retired}
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown scenario fields {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path) -> "Scenario":
        return cls.from_json(Path(path).read_text())

    # ---- identity ------------------------------------------------------

    def cache_identity(self) -> Dict[str, Any]:
        """The fields that determine results.

        Drops the cosmetic ``name`` and the execution choices
        (``space_mode``, ``memory_budget_mb``, ``backend``,
        ``backend_options``) -- streaming produces the same reduced
        artifacts as materializing, and every execution backend and
        block plan produces the same bytes, so they all share cache
        entries.  The
        node-type axes are canonicalized to the group list, so a
        two-type scenario written with the pair fields and the same one
        written with ``node_types`` share entries too.
        """
        raw = self.to_dict()
        raw.pop("name")
        raw.pop("space_mode")
        raw.pop("memory_budget_mb")
        raw.pop("backend")
        raw.pop("backend_options")
        if not self.search_active:
            # An exhaustive sweep -- spelled as None or explicitly -- is
            # the historical computation; its identity must stay
            # bit-identical to pre-search scenarios.
            raw.pop("search")
        for key in _PAIR_FIELDS:
            raw.pop(key)
        raw["node_types"] = [g.to_dict() for g in self.groups]
        return raw

    def with_(self, **changes: Any) -> "Scenario":
        """A copy with ``changes`` applied (``dataclasses.replace`` sugar).

        Changing a pair field (``max_a=5``) on a scenario defined via
        ``node_types`` re-derives the groups from the (synced) pair
        mirrors, which only makes sense for two groups -- scenarios with
        more must be changed through ``node_types``.
        """
        if (
            self.node_types is not None
            and "node_types" not in changes
            and set(changes) & set(_PAIR_FIELDS)
        ):
            if len(self.node_types) != 2:
                raise ValueError(
                    "cannot change pair fields on a scenario with "
                    f"{len(self.node_types)} node types; pass node_types=..."
                )
            changes["node_types"] = None
        return replace(self, **changes)
