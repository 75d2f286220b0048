"""Which package may import which, read off the source with ``ast``.

``repro.common`` is the bottom layer: it imports no other ``repro``
package, so anything may build on it.  The two query languages share
their vector layer *through* it (``common.vectorlang``, ``common.vector``)
and not through each other: nothing under ``repro.tsdb`` imports
``repro.loki`` and nothing under ``repro.loki`` imports ``repro.tsdb``.
``repro.cluster`` — the machine and its fault injector — builds on
``repro.common`` alone: what a fault does to a plane is registered by the
plane (DESIGN §16), so the injector imports none of them.  The one
postings index sits in ``repro.common`` too (DESIGN §3): the TSDB and the
cold tier hold it directly, never by way of ``repro.loki.index``.  The
cold tier wraps whatever hot tier it is given through the one log-store
contract (DESIGN §3), so of the ring it imports ``repro.ring.merge`` only.
``repro.loki`` is the base log stack every plane builds on, so it imports
no plane package.  The plane base, ``repro.core.plane``, builds no
component: beyond ``repro.common`` it names only the types its hooks take.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: The feature planes' packages (``repro.core.planes``); ``repro.omni``
#: also holds the base warehouse, so it is not among them.
PLANE_PACKAGES = (
    "repro.objstore",
    "repro.patterns",
    "repro.queryx",
    "repro.resilience",
    "repro.ring",
    "repro.selfheal",
    "repro.slo",
    "repro.tenancy",
)

#: package -> the only ``repro`` packages it may import besides itself.
ONLY = {
    "repro.common": (),
    "repro.common.postings": ("repro.common",),
    "repro.cluster": ("repro.common",),
    "repro.core.plane": (
        "repro.common",
        "repro.alerting.alertmanager",
        "repro.alerting.receivers",
        "repro.core.framework",
    ),
}
#: package -> the ``repro`` packages it must not import.
FORBIDDEN = {
    "repro.tsdb": ("repro.loki",),
    "repro.loki": ("repro.tsdb", *PLANE_PACKAGES),
    "repro.objstore": (
        "repro.loki.index",
        "repro.ring.cluster",
        "repro.ring.distributor",
        "repro.ring.ingester",
    ),
}


def imported_modules(path: pathlib.Path) -> list[tuple[int, str]]:
    """Every module ``path`` imports, absolute, with the line it does so
    on — at module level, inside functions and under ``TYPE_CHECKING``."""
    package = path.relative_to(SRC).parent.parts
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: resolve against this file's package
                parent = package[: len(package) - node.level + 1]
                base = ".".join([*parent, base] if base else parent)
            found.append((node.lineno, base))
            # `from repro import tsdb` names a package, too.
            found += [(node.lineno, f"{base}.{alias.name}") for alias in node.names]
    return found


def inside(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def offends(module: str, package: str) -> bool:
    if package in ONLY:
        return not any(inside(module, allowed) for allowed in ONLY[package])
    return any(inside(module, other) for other in FORBIDDEN[package])


@pytest.mark.parametrize("package", sorted({*ONLY, *FORBIDDEN}))
def test_package_keeps_to_its_layer(package):
    path = SRC / package.replace(".", "/")
    files = sorted(path.rglob("*.py")) or [path.with_suffix(".py")]  # a package, or one module
    assert all(file.is_file() for file in files), package
    offences = []
    for path in files:
        for line, module in imported_modules(path):
            if not inside(module, "repro") or inside(module, package):
                continue
            if offends(module, package):
                offences.append(f"{path.relative_to(SRC)}:{line} imports {module}")
    assert not offences, "\n".join(offences)


def test_the_walk_sees_function_level_and_relative_imports(tmp_path, monkeypatch):
    pkg = tmp_path / "repro" / "common"
    pkg.mkdir(parents=True)
    (pkg / "leaky.py").write_text(
        "def f():\n    from repro.loki import store\n\n"
        "from ..tsdb import promql\nfrom . import labels\n"
    )
    monkeypatch.setattr("tests.test_import_layering.SRC", tmp_path)
    modules = {module for _line, module in imported_modules(pkg / "leaky.py")}
    assert {"repro.loki", "repro.loki.store", "repro.tsdb", "repro.tsdb.promql"} <= modules
    assert "repro.common.labels" in modules
