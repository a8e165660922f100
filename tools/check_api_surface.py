#!/usr/bin/env python
"""Public-API snapshot gate.

Asserts that the exported surface -- ``repro.__all__``,
``repro.api.__all__``, the ``__all__`` of every ``repro`` subpackage
and the backend registry contents -- matches the checked-in manifest
(``tools/api_manifest.json``).  An unreviewed
export or backend rename fails CI with a diff; an intentional change is
recorded with ``--update``.

Run from the repo root:

    PYTHONPATH=src python tools/check_api_surface.py            # check
    PYTHONPATH=src python tools/check_api_surface.py --update   # record
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
from pathlib import Path

MANIFEST_PATH = Path(__file__).resolve().parent / "api_manifest.json"


def current_surface() -> dict[str, list[str]]:
    import repro
    import repro.api

    surface = {
        "repro.__all__": sorted(repro.__all__),
        "repro.api.__all__": sorted(repro.api.__all__),
        "backends": repro.api.backend_names(),
    }
    for info in pkgutil.iter_modules(repro.__path__, "repro."):
        if info.ispkg:
            package = importlib.import_module(info.name)
            surface[f"{info.name}.__all__"] = sorted(package.__all__)
    return surface


def main(argv: list[str]) -> int:
    surface = current_surface()
    if "--update" in argv:
        MANIFEST_PATH.write_text(
            json.dumps(surface, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {MANIFEST_PATH}")
        return 0
    if not MANIFEST_PATH.exists():
        print(f"ERROR: manifest {MANIFEST_PATH} missing; run with --update")
        return 1
    manifest = json.loads(MANIFEST_PATH.read_text())
    failures = []
    for key in sorted(set(manifest) | set(surface)):
        want = set(manifest.get(key, []))
        have = set(surface.get(key, []))
        if want == have:
            continue
        lines = [f"{key} drifted from the manifest:"]
        for name in sorted(have - want):
            lines.append(f"  + {name} (exported but not in manifest)")
        for name in sorted(want - have):
            lines.append(f"  - {name} (in manifest but no longer exported)")
        failures.append("\n".join(lines))
    if failures:
        print("Public API surface changed.\n")
        print("\n\n".join(failures))
        print(
            "\nIf intentional, record it:\n"
            "    PYTHONPATH=src python tools/check_api_surface.py --update"
        )
        return 1
    print(
        "API surface OK: "
        + ", ".join(f"{k}={len(v)}" for k, v in sorted(surface.items()))
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
