"""Source helpers: ``aspace_dump`` loads an ArchivesSpace REST dump into the
long doc table, ``xmlio`` parses Solr-add XML back into that table.

The reference's sources (REST list/point-lookup, Solr paged scan, directory
mtime scan — SURVEY.md §2.1) map onto Ray Data reads and joins rather than
per-row RPC:

- S2-S4 id listing  → ``ray.data.read_parquet`` discovery / key filters
- S5 point lookup   → joins (pipelines/docpipe, pipelines/enrich)
- S6 paged scan     → ``pipelines.enrich.paged_scan``
- S9 mtime scan     → watermark filter (``pipelines.docpipe.dirty_set``)
- S12 config        → plain dataclasses (``index.build.BuildConfig``)
"""
