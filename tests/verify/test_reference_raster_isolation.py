"""The reference rasterizer, cache walk, fetch stream and texel fetch are
test oracles, not product dependencies; so are the sequential hash
table, the texel-set helpers and the output-file readers."""

import ast
import functools
import os
import pathlib
import subprocess
import sys

import pytest

from repro.verify import (
    readers,
    reference_cache,
    reference_fetch,
    reference_hash_table,
    reference_sampling,
    reference_texel_fetch,
)
from repro.verify.reference_raster import Rasterizer

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

ENTRY_POINTS = "repro.cli, repro.service.server, repro.experiments.runner"


@functools.lru_cache(maxsize=None)
def _modules_loaded_by_entry_points() -> "frozenset[str]":
    # A fresh interpreter: this test process has long since imported
    # the reference modules itself.
    code = (
        "import sys\n"
        f"import {ENTRY_POINTS}\n"
        "print('\\n'.join(sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    return frozenset(result.stdout.split())


def test_entry_points_never_load_the_reference_rasterizer():
    assert "repro.cli" in _modules_loaded_by_entry_points()
    assert Rasterizer.__module__ not in _modules_loaded_by_entry_points()


def _imported_names(path: pathlib.Path) -> "set[str]":
    """Every module name an import statement in ``path`` mentions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _product_importers(oracle) -> "list[str]":
    """Modules outside ``repro/verify`` that import ``oracle``."""
    package = SRC / "repro"
    short = oracle.__name__.rsplit(".", 1)[-1]
    return [
        str(path.relative_to(package))
        for path in package.rglob("*.py")
        if path.parent != package / "verify"
        and any(short in name for name in _imported_names(path))
    ]


def test_no_product_module_imports_the_reference_cache():
    assert reference_cache.__name__ not in _modules_loaded_by_entry_points()
    # Only the oracles in repro.verify import it, inside the functions
    # that run the comparison.
    assert _product_importers(reference_cache) == []


def test_no_product_module_imports_the_reference_fetch_stream():
    assert reference_fetch.__name__ not in _modules_loaded_by_entry_points()
    assert _product_importers(reference_fetch) == []


def test_no_product_module_imports_the_reference_texel_fetch():
    assert reference_texel_fetch.__name__ not in _modules_loaded_by_entry_points()
    assert _product_importers(reference_texel_fetch) == []


@pytest.mark.parametrize(
    "module",
    [readers, reference_hash_table, reference_sampling],
    ids=lambda module: module.__name__.rsplit(".", 1)[-1],
)
def test_no_product_module_loads_the_check_only_references(module):
    # TexelAddressHashTable, aniso_sample_positions,
    # texel_coords_from_info, unpack_footprint_key and the read_*
    # readers live here because only checks call them.
    assert module.__name__ not in _modules_loaded_by_entry_points()
    assert _product_importers(module) == []
