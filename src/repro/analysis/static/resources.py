"""RPR4xx — resource balance: shared memory and cache-backend lifecycle.

Two resource disciplines hold the fabric together:

* **Shared-memory segments** (no module in ``src/`` uses them today;
  the rules guard any future ``SharedMemory`` use): a function
  that *creates* a ``SharedMemory`` segment must close it and either
  unlink it or explicitly hand ownership over (the resource-tracker
  unregister dance); a function that *attaches* to one must close and
  unlink it. An unbalanced path leaks ``/dev/shm`` until the tracker's
  exit sweep — at million-job scale that is an outage, not a warning.
* **Cache backends**: anything that structurally implements the
  :class:`repro.engine.cache.CacheBackend` protocol (``get`` + ``put``
  + ``keys``) must also ship the lifecycle half — ``close`` plus the
  ``__enter__``/``__exit__`` context-manager pair — or long-lived
  callers (the CLI, the cache server) cannot release it
  deterministically.

Codes
-----
* ``RPR401`` — ``SharedMemory(create=True)`` without ``close`` +
  (``unlink`` or tracker unregister) in the same function;
* ``RPR402`` — ``SharedMemory(name=...)`` attach without ``close`` +
  ``unlink`` in the same function;
* ``RPR403`` — cache-backend-shaped class missing ``close`` /
  ``__enter__`` / ``__exit__``.
"""

from __future__ import annotations

import ast

from .core import Checker, Finding, SourceFile

__all__ = ["ResourceBalanceChecker"]

#: Method names whose joint presence marks a class as a cache backend.
_BACKEND_CORE = frozenset({"get", "put", "keys"})

#: The lifecycle surface every backend must carry.
_BACKEND_LIFECYCLE = ("close", "__enter__", "__exit__")

#: Calls that release a worker-side tracker registration (ownership
#: handover counts as balancing a create).
_UNTRACK_NAMES = frozenset({"unregister", "_untrack"})


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_create(node: ast.Call) -> bool:
    return any(
        kw.arg == "create"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in node.keywords
    )


def _is_attach(node: ast.Call) -> bool:
    return any(kw.arg == "name" for kw in node.keywords) and not _is_create(node)


class ResourceBalanceChecker(Checker):
    """Shared-memory and backend lifecycle balance."""

    name = "resource-balance"
    codes = {
        "RPR401": "SharedMemory create without close + unlink/ownership handover",
        "RPR402": "SharedMemory attach without close + unlink",
        "RPR403": "cache-backend class missing close/__enter__/__exit__",
    }

    def check_file(self, source: SourceFile) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(source.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_function(source, node))
            elif isinstance(node, ast.ClassDef):
                findings.extend(self._check_backend_class(source, node))
        return findings

    # -- RPR401 / RPR402 ------------------------------------------------
    def _check_function(
        self, source: SourceFile, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> list[Finding]:
        creates: list[ast.Call] = []
        attaches: list[ast.Call] = []
        released = {"close": False, "unlink": False, "untrack": False}
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name == "SharedMemory":
                if _is_create(node):
                    creates.append(node)
                elif _is_attach(node):
                    attaches.append(node)
            elif name == "close":
                released["close"] = True
            elif name == "unlink":
                released["unlink"] = True
            elif name in _UNTRACK_NAMES:
                released["untrack"] = True
        findings: list[Finding] = []
        for call in creates:
            if not (
                released["close"] and (released["unlink"] or released["untrack"])
            ):
                findings.append(
                    source.finding(
                        call,
                        "RPR401",
                        f"{fn.name} creates a SharedMemory segment but does "
                        "not close() and unlink()/hand over ownership on "
                        "every path — the segment leaks until process exit",
                    )
                )
        for call in attaches:
            if not (released["close"] and released["unlink"]):
                findings.append(
                    source.finding(
                        call,
                        "RPR402",
                        f"{fn.name} attaches to a SharedMemory segment but "
                        "does not close() and unlink() it — attach "
                        "re-registers the segment, so the consumer must "
                        "finish the lifecycle",
                    )
                )
        return findings

    # -- RPR403 ---------------------------------------------------------
    def _check_backend_class(
        self, source: SourceFile, cls: ast.ClassDef
    ) -> list[Finding]:
        if any(
            isinstance(base, ast.Name) and base.id == "Protocol"
            or isinstance(base, ast.Attribute) and base.attr == "Protocol"
            for base in cls.bases
        ):
            return []  # the protocol definition itself, not an implementation
        methods = {
            child.name
            for child in cls.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if not _BACKEND_CORE <= methods:
            return []
        missing = [name for name in _BACKEND_LIFECYCLE if name not in methods]
        if not missing:
            return []
        return [
            source.finding(
                cls,
                "RPR403",
                f"{cls.name} implements the CacheBackend surface "
                "(get/put/keys) but lacks "
                f"{', '.join(missing)} — long-lived owners cannot release "
                "it deterministically",
            )
        ]
