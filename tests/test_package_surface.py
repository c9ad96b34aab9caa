"""Every module imports and every CLI verb parses: guards against imports
left dangling by a removed module, which per-feature tests only catch for
the modules they happen to touch."""

import importlib
import pkgutil
import re

import pytest

import archivesspace_virgo_ray
from archivesspace_virgo_ray.cli import main

VERBS = {
    "build", "ingest", "add", "query", "merge", "tiered-merge", "maintain",
    "vacuum", "watch", "delete", "snapshot", "restore", "qsearch", "fsck",
    "fedquery", "reshard",
}


def test_every_module_imports():
    names = [m.name for m in pkgutil.walk_packages(
        archivesspace_virgo_ray.__path__, "archivesspace_virgo_ray.")]
    assert "archivesspace_virgo_ray.index.query" in names
    for name in names:
        importlib.import_module(name)


def _help(argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0, argv
    return capsys.readouterr().out


def test_cli_verbs_listed_and_each_help_parses(capsys):
    top = _help(["--help"], capsys)
    listed = set(re.search(r"\{([^}]*)\}", top).group(1).split(","))
    assert listed == VERBS
    for verb in sorted(VERBS):
        assert f"usage: archivesspace_virgo_ray {verb}" in _help(
            [verb, "--help"], capsys)
