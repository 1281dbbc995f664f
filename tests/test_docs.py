"""Documentation freshness: paths and symbols named in the docs exist.

Docs rot silently; these tests fail loudly when a module, function, or
file referenced from README/DESIGN/docs is renamed away.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md",
        *sorted((ROOT / "docs").glob("*.md"))]


def test_required_deliverable_files_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                 "pyproject.toml"):
        assert (ROOT / name).exists(), name
    for name in ("quickstart.py", "cfd_flux_kernels.py",
                 "block_jacobi_preconditioner.py", "autotuning_tour.py",
                 "simulator_tour.py"):
        assert (ROOT / "examples" / name).exists(), name


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_referenced_modules_exist(doc):
    """Every `repro.x.y` / `repro/x/y.py` mention resolves to a file."""
    text = doc.read_text()
    src = ROOT / "src"
    missing = []
    for mod in set(re.findall(r"`(repro(?:\.[a-z_]+)+)`", text)):
        parts = mod.split(".")
        path = src.joinpath(*parts)
        if not (path.with_suffix(".py").exists()
                or (path / "__init__.py").exists()):
            missing.append(mod)
    for rel in set(re.findall(r"`((?:src/)?repro/[a-z_/]+\.py)`", text)):
        p = ROOT / (rel if rel.startswith("src/") else f"src/{rel}")
        if not p.exists():
            missing.append(rel)
    assert not missing, f"{doc.name} references missing modules: {missing}"


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_referenced_test_and_bench_files_exist(doc):
    text = doc.read_text()
    missing = []
    for rel in set(re.findall(r"`((?:tests|benchmarks)/[a-z0-9_/]+\.py)`",
                              text)):
        if not (ROOT / rel).exists():
            missing.append(rel)
    assert not missing, f"{doc.name} references missing files: {missing}"


def test_design_mentions_every_subpackage():
    """DESIGN.md's inventory must cover each src/repro subpackage."""
    design = (ROOT / "DESIGN.md").read_text()
    for sub in sorted((ROOT / "src" / "repro").iterdir()):
        if sub.is_dir() and (sub / "__init__.py").exists():
            assert sub.name in design, f"DESIGN.md misses {sub.name}/"
