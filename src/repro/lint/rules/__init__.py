"""The shipped rule set, one module per contract family.

=======  ==============================  =============================================
family   module                          contract
=======  ==============================  =============================================
DET      :mod:`.determinism`             no wall clock / unseeded RNG outside repro.obs
PUR      :mod:`.purity`                  worker-shipped modules stay pickle-pure
STAT     :mod:`.stats_surface`           counter JSON never derives from timing
CFG      :mod:`.config_sections`         config sections frozen + validated + one home
ERR      :mod:`.taxonomy`                serve raises speak the errors.py taxonomy
SRF      :mod:`.surface`                 __all__ matches the committed surface snapshot
=======  ==============================  =============================================
"""

from __future__ import annotations

from repro.lint.engine import Rule
from repro.lint.rules.config_sections import ConfigSectionContractRule
from repro.lint.rules.determinism import UnseededRandomRule, WallClockRule
from repro.lint.rules.purity import (
    CoordinatorImportRule,
    FrozenPayloadRule,
    MutableModuleStateRule,
)
from repro.lint.rules.stats_surface import StableCounterSurfaceRule
from repro.lint.rules.surface import PublicSurfaceRule
from repro.lint.rules.taxonomy import ServeTaxonomyRule


def default_rules() -> list[Rule]:
    """One fresh instance of every shipped rule, in catalog order."""
    return [
        WallClockRule(),
        UnseededRandomRule(),
        MutableModuleStateRule(),
        FrozenPayloadRule(),
        CoordinatorImportRule(),
        StableCounterSurfaceRule(),
        ConfigSectionContractRule(),
        ServeTaxonomyRule(),
        PublicSurfaceRule(),
    ]


#: Rule id -> (name, rationale) for ``repro lint --list-rules`` and docs.
#: Composite rules contribute every id they emit.
def rule_catalog() -> list[tuple[str, str, str]]:
    catalog: list[tuple[str, str, str]] = []
    for rule in default_rules():
        catalog.append((rule.rule_id, rule.name, rule.rationale))
        for extra_attr in (
            "VALIDATION_ID", "REGISTRY_ID", "DECLARATION_ID", "BUILTIN_ID", "ORDER_ID",
        ):
            extra = getattr(rule, extra_attr, None)
            if extra:
                catalog.append((extra, rule.name, rule.rationale))
    return sorted(catalog)


__all__ = [
    "ConfigSectionContractRule",
    "CoordinatorImportRule",
    "FrozenPayloadRule",
    "MutableModuleStateRule",
    "PublicSurfaceRule",
    "ServeTaxonomyRule",
    "StableCounterSurfaceRule",
    "UnseededRandomRule",
    "WallClockRule",
    "default_rules",
    "rule_catalog",
]
