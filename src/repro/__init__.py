"""repro: a reproduction of "I'm Sorry Dave, I'm Afraid I Can't Return
That: On YouTube Search API Use in Research" (IMC 2025).

The package has three layers:

1. **Substrate** — a synthetic YouTube platform (:mod:`repro.world`) and a
   faithful Data API v3 simulator (:mod:`repro.api`) whose search endpoint
   implements the paper's *audited* behavior (:mod:`repro.sampling`).
2. **Methodology** — the paper's full audit pipeline (:mod:`repro.core`):
   hour-binned campaigns, Jaccard consistency, Markov attrition, pool-size
   analysis, and the return-likelihood regressions, on a from-scratch
   statistics substrate (:mod:`repro.stats`).
3. **Practice** — the collection strategies the paper evaluates and
   recommends (:mod:`repro.strategies`).

Cross-cutting the layers, :mod:`repro.obs` provides a trace of typed
events, quota accounting included, for collection runs (attach a
:class:`~repro.obs.CampaignObserver` via ``build_service(...,
observer=...)``); see ``docs/OBSERVABILITY.md``.

Quickstart::

    from repro import build_world, build_service, YouTubeClient
    from repro.world.topics import PAPER_TOPICS

    world = build_world(PAPER_TOPICS, seed=7)
    service = build_service(world, seed=7)
    client = YouTubeClient(service)
    page = client.search_page(q="higgs boson", order="date", maxResults=50)
"""

from repro.api import YouTubeClient, YouTubeService, build_service
from repro.core import paper_campaign_config, run_campaign
from repro.obs import CampaignObserver, NullObserver
from repro.world import PAPER_TOPICS, PlatformStore, build_world

__version__ = "1.0.0"

__all__ = [
    "build_world",
    "build_service",
    "run_campaign",
    "paper_campaign_config",
    "YouTubeClient",
    "YouTubeService",
    "PlatformStore",
    "PAPER_TOPICS",
    "CampaignObserver",
    "NullObserver",
    "__version__",
]
