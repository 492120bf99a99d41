"""Registry-inventory checking, shared by lint rule REP004 and the test suite.

Two views of the component inventory are validated against
``tests/data/registry_manifest.json``:

* the **static** view — every ``@register_*``/``@experiment`` decorator the
  linter finds in the tree — is checked by :class:`repro.lint.rules
  .RegistryDisciplineRule` (REP004) as part of ``repro lint``;
* the **live** view — what the populated registries actually expose through
  ``repro-experiments list --json`` — is :func:`live_inventory`, which the
  tier-1 tests compare with the manifest through :func:`compare_inventory`.

One module owns the manifest format and the comparison, so the two gates
cannot drift apart.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from typing import Dict, List


def load_manifest(path: str) -> Dict[str, List[str]]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def live_inventory() -> Dict[str, List[str]]:
    """The inventory the in-process ``repro-experiments list --json`` reports."""
    from repro.cli import main

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        status = main(["list", "--json"])
    if status != 0:
        raise SystemExit("repro-experiments list --json failed with status %d" % status)
    catalog = json.loads(buffer.getvalue())
    inventory = {
        key: [item["name"] for item in items] for key, items in catalog["registries"].items()
    }
    inventory["experiments"] = [item["name"] for item in catalog["experiments"]]
    return inventory


def compare_inventory(actual: Dict[str, List[str]],
                      manifest: Dict[str, List[str]]) -> List[str]:
    """Diff-style failure messages; empty when the inventory matches.

    Every key either side holds is compared, so a registry missing whole
    from one side reports each of its names.
    """
    failures = []
    for key in dict.fromkeys([*actual, *manifest]):
        if key == "schema":
            continue
        names, expected = actual.get(key, []), manifest.get(key, [])
        missing = sorted(set(expected) - set(names))
        extra = sorted(set(names) - set(expected))
        if missing:
            failures.append("%s: missing from the live registry: %s" % (key, ", ".join(missing)))
        if extra:
            failures.append("%s: not in the manifest: %s" % (key, ", ".join(extra)))
    return failures
