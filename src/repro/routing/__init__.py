"""Per-switch routing/load-balancing policies (see ``registry``)."""

from repro.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.routing.base": ("RoutingPolicy",),
    "repro.routing.registry": (
        "DEFAULT_POLICY",
        "POLICIES",
        "PolicySpec",
        "RegisteredPolicy",
        "Requirements",
        "get_policy",
        "load_builtin_policies",
        "make_policy",
        "policy_names",
        "register_policy",
    ),
})
