"""Performance infrastructure: the compile and measurement caches.

The pipeline (:mod:`repro.compiler.pipeline`) consults a
content-addressed compile cache before doing any work; the engine does
the same with measurements.  Where compile time goes is charged by
spans (:mod:`repro.obs.spans`) to the metrics registry.
"""

from repro.perf.cache import (
    CacheStats,
    CompileCache,
    compile_cache_key,
    default_cache,
    reset_default_cache,
)
from repro.perf.measure_cache import MeasurementCache, measurement_cache_key

__all__ = [
    "CacheStats",
    "CompileCache",
    "MeasurementCache",
    "compile_cache_key",
    "default_cache",
    "measurement_cache_key",
    "reset_default_cache",
]
