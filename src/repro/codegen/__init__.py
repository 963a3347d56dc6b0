"""Just-in-time pipelines: extraction and fused-chain classification."""

from .pipeline import (
    Pipeline,
    break_into_pipelines,
    chain_source,
    fused_chain,
    is_fused_probe,
    is_fusion_passthrough,
    is_pipeline_breaker,
    pipelines_per_device,
)

__all__ = [
    "Pipeline",
    "break_into_pipelines",
    "chain_source",
    "fused_chain",
    "is_fused_probe",
    "is_fusion_passthrough",
    "is_pipeline_breaker",
    "pipelines_per_device",
]
