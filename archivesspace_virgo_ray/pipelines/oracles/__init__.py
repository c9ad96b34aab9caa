"""Engine operators paired with DuckDB reference SQL, one module per domain;
tests import the module they check directly."""
