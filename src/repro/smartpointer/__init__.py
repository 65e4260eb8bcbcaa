"""SmartPointer: the paper's scientific-visualization stream application.

A client-server molecular-dynamics streaming system with per-client
stream customization (downsampling / server-side preprocessing) driven
by dproc monitoring data.
"""

from repro.smartpointer.adaptation import (AdaptationPolicy,
                                           ClientCapabilities,
                                           DynamicAdaptation,
                                           NoAdaptation,
                                           StaticAdaptation)
from repro.smartpointer.client import SmartPointerClient
from repro.smartpointer.data import StreamProfile
from repro.smartpointer.server import (ServerStream, SmartPointerServer,
                                       StreamEvent)
from repro.smartpointer.transforms import (FULL_QUALITY,
                                           INTERPOLATION_PENALTY,
                                           PREPROCESS_INFLATION,
                                           PREPROCESS_RELIEF, Transform)

__all__ = [
    "AdaptationPolicy", "ClientCapabilities", "DynamicAdaptation",
    "NoAdaptation", "StaticAdaptation",
    "SmartPointerClient",
    "StreamProfile",
    "ServerStream", "SmartPointerServer", "StreamEvent",
    "FULL_QUALITY", "INTERPOLATION_PENALTY", "PREPROCESS_INFLATION",
    "PREPROCESS_RELIEF", "Transform",
]
