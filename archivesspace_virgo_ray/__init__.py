"""archivesspace_virgo_ray — a Ray-Data-native full-text index + document pipeline engine.

A from-scratch re-expression of the capabilities of uvalib/archivesspace-virgo
on Ray Data, in two halves:

- ``index/``    : inverted-index build + Okapi BM25 (k1=1.2, b=0.75) top-k query
                  engine over a Parquet corpus (the half the reference
                  delegates to Solr — see SolrHelper.java:82-96, :39-80).
- ``pipelines/``: the reference's document-preparation operators (field-map
                  projection, MARC and Solr-add XML building, publish
                  predicates, enrichment joins, dirty-set expansion).
- ``sources/``  : ArchivesSpace REST-dump loading and XML I/O.
- ``functions/``: vectorized scalar kernels (tokenize, hashing, natural-sort
                  keys).
- ``state/``    : tree aggregates for global statistics.
- ``oracle.py`` : the single-process BM25 reference the engine is exact to.

Outside the two halves, with their own tests until they are retired:
corpus operators (``pipelines/{dedup,similarity,curation,textstats,
multimodal,bpe,quantiles,sketches,components,joins,profile}``), media
codecs (``functions/{png,jpeg,avi,wav,h264}``), ``state/scan`` and the
DuckDB-paired operator modules ``pipelines/oracles/{common,tpch,events,ann}``.

Nothing here calls ``ray.init()`` except the CLI: sessions are owned by the
caller or the test fixture.
"""

__version__ = "0.1.0"

# Stamped into segment manifests; changing index-affecting logic must bump this
# (the analog of the reference's XSLT md5 transform-hash invalidation,
# IndexRecordsForV4.java:44-64).
PIPELINE_VERSION = "avr-index-11"
