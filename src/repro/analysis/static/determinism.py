"""RPR1xx — determinism of everything that feeds the cache keys.

The engine's whole replay story rests on one assumption: anything
folded into :func:`repro.io.serialize.stable_hash` /
:func:`~repro.io.serialize.canonical_json` /
:func:`~repro.engine.runner.request_key` is a pure function of the
experiment's declared inputs. A wall-clock read, an unseeded RNG draw,
or an arbitrary-order set iteration anywhere in that closure silently
splinters cache keys (every run recomputes everything) or — worse —
merges cells that should differ.

Scope is computed from an approximate call graph (edges by simple
callee name, which over-approximates dispatch — a lint-appropriate
trade):

* every function that *transitively calls* a hash primitive has its
  own body scanned (its locals feed the hash's argument);
* every **key producer** — a function whose ``return`` value is a hash
  primitive call (or a call to another key producer) — additionally has
  its entire transitive *callee* closure scanned: whatever those
  callees compute IS the key material.

Codes
-----
* ``RPR101`` — nondeterministic call (``time.time``, ``datetime.now``,
  unseeded ``random``/``np.random``, ``os.urandom``, ``uuid1/4``,
  ``secrets``) in hash-reachable code;
* ``RPR102`` — iteration over a set literal/constructor in
  hash-reachable code (set order is arbitrary across processes);
* ``RPR103`` — the record payload vocabulary changed but
  ``RECORD_VERSION`` did not: stale caches would deserialize wrongly;
* ``RPR104`` — ``RECORD_VERSION`` was bumped (or the vocabulary moved)
  without re-registering the new schema fingerprint in
  :data:`KNOWN_RECORD_SCHEMAS` below.

Note the live complement: generators registered behind the workload
registry are invisible to these static edges (decorator dispatch), so
``RPR504`` builds every registered family twice and compares — the
dynamic half of the same contract.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .core import Checker, Finding, SourceFile

__all__ = ["DeterminismChecker", "KNOWN_RECORD_SCHEMAS", "record_schema_fingerprint"]

#: The functions whose arguments must be deterministic.
HASH_PRIMITIVES = frozenset({"stable_hash", "canonical_json", "request_key"})

#: Blessed record-payload schemas: ``RECORD_VERSION`` -> fingerprint of
#: the sorted payload vocabulary (:func:`record_schema_fingerprint`).
#: Changing the payload fields requires BOTH bumping ``RECORD_VERSION``
#: in :mod:`repro.engine.runner` AND registering the new fingerprint
#: here — the checker holds the door until both halves land.
KNOWN_RECORD_SCHEMAS: dict[int, str] = {
    2: "180645d38efa6ab46a04279709811152c11355219657bc7213e608e1ed1b673f",
    # Same fields as 2; bumped to cold-start caches the bisection
    # water-fill filled.
    3: "180645d38efa6ab46a04279709811152c11355219657bc7213e608e1ed1b673f",
}

#: RNG constructors that take (and therefore can carry) an explicit
#: seed — calls to these are fine; the *module-level* convenience
#: functions they replace are not.
_SEEDED_RNG_FACTORIES = frozenset(
    {"Random", "SystemRandom", "default_rng", "SeedSequence", "RandomState", "Generator"}
)


def record_schema_fingerprint(keys: Sequence[str]) -> str:
    """Stable fingerprint of a record payload vocabulary."""
    return hashlib.sha256(",".join(sorted(keys)).encode("utf-8")).hexdigest()


def _dotted(node: ast.AST) -> tuple[str, ...]:
    """``a.b.c(...)`` -> ``("a", "b", "c")``; best effort, may be empty."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return tuple(reversed(parts))


def _nondeterministic_call(chain: tuple[str, ...]) -> str | None:
    """A human-readable violation description, or ``None`` if clean."""
    if not chain:
        return None
    dotted = ".".join(chain)
    last = chain[-1]
    if chain[:2] == ("time", "time") or last == "time_ns" or dotted == "time":
        return f"wall-clock read {dotted}()"
    if last in ("now", "utcnow", "today") and (
        "datetime" in chain[:-1] or "date" in chain[:-1]
    ):
        return f"wall-clock read {dotted}()"
    if last == "urandom" or last in ("uuid1", "uuid4") or chain[0] == "secrets":
        return f"entropy source {dotted}()"
    if "random" in chain[:-1] and last not in _SEEDED_RNG_FACTORIES:
        return f"unseeded RNG call {dotted}()"
    return None


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = _dotted(node.func)
        return bool(chain) and chain[-1] in ("set", "frozenset")
    return False


@dataclass
class _FunctionFacts:
    """Everything the pass needs to know about one function body."""

    source: SourceFile
    qualname: str
    node: ast.AST
    calls: set[str] = field(default_factory=set)
    #: (node, description) nondeterministic call sites
    nondet: list[tuple[ast.AST, str]] = field(default_factory=list)
    #: nodes iterating a set expression
    set_iters: list[ast.AST] = field(default_factory=list)
    #: does any ``return`` expression call a name (candidate key producer)?
    returned_calls: set[str] = field(default_factory=set)
    #: method of a cache-backend-shaped class (get/put/keys)? Storage
    #: backends *consume* finished cache keys; nothing they compute can
    #: flow back into the key, so the callee closure stops at them —
    #: without this boundary, a key producer resolving ``dict.get`` by
    #: simple name would drag every backend's aging timestamps
    #: (``time.time`` on ``put``) into scope as false positives.
    is_storage: bool = False


def _scan_function(body: Sequence[ast.stmt], facts: _FunctionFacts) -> None:
    """Collect facts from one function body, skipping nested defs
    (they are indexed as functions of their own)."""

    def walk(node: ast.AST, in_return: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(node, ast.Call):
            chain = _dotted(node.func)
            if chain:
                facts.calls.add(chain[-1])
                if in_return:
                    facts.returned_calls.add(chain[-1])
                description = _nondeterministic_call(chain)
                if description is not None:
                    facts.nondet.append((node, description))
        if isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expr(node.iter):
            facts.set_iters.append(node.iter)
        if isinstance(node, ast.comprehension) and _is_set_expr(node.iter):
            facts.set_iters.append(node.iter)
        if isinstance(node, ast.Return):
            in_return = True
        for child in ast.iter_child_nodes(node):
            walk(child, in_return)

    for stmt in body:
        walk(stmt, in_return=False)


def _is_storage_class(cls: ast.ClassDef) -> bool:
    """Does the class implement the CacheBackend storage surface?"""
    methods = {
        child.name
        for child in cls.body
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return {"get", "put", "keys"} <= methods


def _index_functions(sources: Sequence[SourceFile]) -> list[_FunctionFacts]:
    functions: list[_FunctionFacts] = []

    def visit(
        node: ast.AST, source: SourceFile, prefix: str, storage: bool
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                facts = _FunctionFacts(source, qual, child, is_storage=storage)
                _scan_function(child.body, facts)
                functions.append(facts)
                visit(child, source, f"{qual}.", storage)
            elif isinstance(child, ast.ClassDef):
                visit(
                    child,
                    source,
                    f"{prefix}{child.name}.",
                    storage or _is_storage_class(child),
                )
    for source in sources:
        visit(source.tree, source, "", False)
    return functions


class DeterminismChecker(Checker):
    """Everything folded into a cache key must be deterministic."""

    name = "determinism"
    codes = {
        "RPR101": "nondeterministic call reachable from cache-key hashing",
        "RPR102": "set iteration reachable from cache-key hashing",
        "RPR103": "record payload fields changed without a RECORD_VERSION bump",
        "RPR104": "RECORD_VERSION/schema fingerprint not registered with the linter",
    }

    def check_repo(
        self, sources: Sequence[SourceFile], root: Path
    ) -> list[Finding]:
        findings = self._hash_reachability(sources)
        findings.extend(self._record_schema(sources))
        return findings

    # -- RPR101/RPR102 --------------------------------------------------
    def _hash_reachability(
        self, sources: Sequence[SourceFile]
    ) -> list[Finding]:
        functions = _index_functions(sources)
        by_simple: dict[str, list[_FunctionFacts]] = {}
        for facts in functions:
            by_simple.setdefault(facts.qualname.rsplit(".", 1)[-1], []).append(
                facts
            )

        # Transitive callers of the hash primitives (name-level fixed
        # point): their bodies assemble hash arguments.
        reachable_names: set[str] = set(HASH_PRIMITIVES)
        via: dict[str, str] = {name: name for name in HASH_PRIMITIVES}
        callers: set[int] = set()
        changed = True
        while changed:
            changed = False
            for facts in functions:
                if id(facts.node) in callers:
                    continue
                hit = next(
                    (c for c in facts.calls if c in reachable_names), None
                )
                if hit is None:
                    continue
                callers.add(id(facts.node))
                simple = facts.qualname.rsplit(".", 1)[-1]
                chain = f"{facts.qualname} -> {via[hit]}"
                if simple not in via:
                    via[simple] = chain
                    reachable_names.add(simple)
                facts.chain = chain  # type: ignore[attr-defined]
                changed = True

        # Key producers: return a hash-primitive call (directly or
        # through another key producer) — their callee closure IS the
        # key material.
        producer_names: set[str] = set(HASH_PRIMITIVES)
        producers: list[_FunctionFacts] = []
        changed = True
        while changed:
            changed = False
            for facts in functions:
                simple = facts.qualname.rsplit(".", 1)[-1]
                if simple in producer_names:
                    continue
                if facts.returned_calls & producer_names:
                    producer_names.add(simple)
                    producers.append(facts)
                    changed = True

        # Callee closure of the key producers.
        scanned: dict[int, str] = {}
        stack: list[tuple[_FunctionFacts, str]] = [
            (facts, facts.qualname) for facts in producers
        ]
        while stack:
            facts, origin = stack.pop()
            if id(facts.node) in scanned:
                continue
            scanned[id(facts.node)] = origin
            for callee in facts.calls:
                for target in by_simple.get(callee, []):
                    if target.is_storage or id(target.node) in scanned:
                        continue
                    stack.append((target, f"{origin} -> {target.qualname}"))

        findings: list[Finding] = []
        for facts in functions:
            origin = scanned.get(id(facts.node))
            if origin is None and id(facts.node) not in callers:
                continue
            context = origin or getattr(facts, "chain", facts.qualname)
            for node, description in facts.nondet:
                findings.append(
                    facts.source.finding(
                        node,
                        "RPR101",
                        f"{description} in {facts.qualname} feeds cache-key "
                        f"hashing (via {context})",
                    )
                )
            for node in facts.set_iters:
                findings.append(
                    facts.source.finding(
                        node,
                        "RPR102",
                        f"iteration over a set in {facts.qualname} feeds "
                        f"cache-key hashing with arbitrary order (via "
                        f"{context}); sort it first",
                    )
                )
        return findings

    # -- RPR103/RPR104 --------------------------------------------------
    def _record_schema(self, sources: Sequence[SourceFile]) -> list[Finding]:
        for source in sources:
            version, version_node = _int_assign(source.tree, "RECORD_VERSION")
            keys, keys_node = _str_collection_assign(
                source.tree, "_RECORD_PAYLOAD_KEYS"
            )
            if version is None or keys is None:
                continue
            fingerprint = record_schema_fingerprint(keys)
            registered = KNOWN_RECORD_SCHEMAS.get(version)
            if registered == fingerprint:
                return []
            if registered is not None:
                return [
                    source.finding(
                        keys_node,
                        "RPR103",
                        f"record payload fields changed (fingerprint "
                        f"{fingerprint[:12]}..., registered "
                        f"{registered[:12]}...) but RECORD_VERSION is still "
                        f"{version}; stale caches would deserialize wrongly "
                        "— bump RECORD_VERSION and register the new schema "
                        "in repro.analysis.static.determinism",
                    )
                ]
            return [
                source.finding(
                    version_node,
                    "RPR104",
                    f"RECORD_VERSION {version} has no registered schema "
                    f"fingerprint; add {{{version}: "
                    f"{fingerprint!r}}} to KNOWN_RECORD_SCHEMAS in "
                    "repro.analysis.static.determinism after auditing the "
                    "payload change",
                )
            ]
        return []


def _int_assign(
    tree: ast.Module, name: str
) -> tuple[int | None, ast.AST | None]:
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets
            )
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, int)
        ):
            return node.value.value, node
    return None, None


def _str_collection_assign(
    tree: ast.Module, name: str
) -> tuple[list[str] | None, ast.AST | None]:
    for node in tree.body:
        if not isinstance(node, ast.Assign) or not any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            continue
        value = node.value
        if isinstance(value, ast.Call) and _dotted(value.func)[-1:] == (
            "frozenset",
        ):
            if value.args and isinstance(value.args[0], (ast.Set, ast.List, ast.Tuple)):
                value = value.args[0]
        if isinstance(value, (ast.Set, ast.List, ast.Tuple)):
            elements = []
            for element in value.elts:
                if not (
                    isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ):
                    return None, node
                elements.append(element.value)
            return elements, node
    return None, None
