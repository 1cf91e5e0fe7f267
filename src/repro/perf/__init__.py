"""The paper's Section 4 responsiveness techniques: incremental
evaluation, the heavy-query store (HVS), the materialized chart views
(delta-maintained, or built once with ``track=False`` — the paper's
specialised indexes) together with the shape matchers they answer, the
decomposer rung over those tables, and the eLinda endpoint router,
which compiles a routed query once and hands the rungs its AST."""

from .decomposer import Decomposer
from .hvs import DEFAULT_HEAVY_THRESHOLD_MS, HeavyQueryStore, HvsEntry, normalize_query
from .incremental import IncrementalConfig, IncrementalEvaluator, PartialResult
from .plancache import CachedPlan, PlanCache, build_plan
from .remote_incremental import (
    RemoteIncrementalConfig,
    RemoteIncrementalEvaluator,
)
from .router import ElindaEndpoint
from .views import (
    MaterializedViews,
    PropertyCount,
    PropertyExpansionSpec,
    match_member_count,
    match_object_chart,
    match_property_expansion,
    match_subclass_chart,
)

__all__ = [
    "MaterializedViews",
    "PropertyCount",
    "match_subclass_chart",
    "match_member_count",
    "match_object_chart",
    "Decomposer",
    "PropertyExpansionSpec",
    "match_property_expansion",
    "HeavyQueryStore",
    "HvsEntry",
    "CachedPlan",
    "PlanCache",
    "build_plan",
    "normalize_query",
    "DEFAULT_HEAVY_THRESHOLD_MS",
    "IncrementalConfig",
    "IncrementalEvaluator",
    "PartialResult",
    "RemoteIncrementalConfig",
    "RemoteIncrementalEvaluator",
    "ElindaEndpoint",
]
