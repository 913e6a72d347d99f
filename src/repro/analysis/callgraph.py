"""A receiver-aware interprocedural call graph over the scanned modules.

Python's dynamism makes fully precise call resolution impossible
statically, so the graph is layered:

* **Resolved edges.**  Calls whose receiver class is statically known
  are resolved to the method *on that class* (walking the scanned base
  classes, so ``self.stop()`` inside ``ShardServer`` resolves to
  ``RpcServerBase.stop`` when the subclass does not override it).
  Receivers are known for

  - ``self.f(...)`` inside a method body,
  - ``self.<attr>.f(...)`` where ``__init__`` (or any method) assigns
    ``self.<attr> = SomeScannedClass(...)``,
  - ``x.f(...)`` where the enclosing function assigns
    ``x = SomeScannedClass(...)``,
  - ``SomeScannedClass(...)`` itself (an edge to ``__init__``), and
  - bare ``f(...)`` where ``f`` is a function of the same module.

* **Name-based fallback edges.**  Every other call ``x.f(...)`` /
  ``f(...)`` is an edge to *every* scanned function named ``f``.  That
  over-approximation is the right direction for the lock and race
  rules -- reachability is used to prove the *absence* of unguarded
  mutations, so false edges can only make the checker stricter, never
  blind.

Rules that only need "can this call reach that function" keep using
:meth:`CallGraph.reachable_from_names`; rules that need per-call-site
precision (the RACE001 lockset propagation, the LOCK002 order graph)
walk :meth:`CallGraph.callees_at` call site by call site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.engine import AnalysisContext, FunctionRecord, ModuleInfo

#: Walking a base-class chain deeper than this means a cycle in the
#: (name-approximated) hierarchy; stop rather than loop.
_MRO_DEPTH_CAP = 16

#: Builtin/stdlib constructors whose instances carry no scanned
#: methods.  ``self.x = deque(...)`` makes ``self.x.clear()`` a call
#: on an *opaque* receiver: resolving it to nothing beats the
#: name-based fallback, which would connect it to every scanned
#: ``clear`` method (and fabricate lock-order edges out of thin air).
_OPAQUE_CONSTRUCTORS = frozenset(
    {
        "dict", "list", "set", "frozenset", "tuple", "bytearray",
        "deque", "OrderedDict", "defaultdict", "Counter",
        "Lock", "RLock", "Event", "Condition", "Semaphore",
        "BoundedSemaphore", "Barrier", "Queue", "LifoQueue",
        "PriorityQueue", "SimpleQueue", "Thread", "Timer",
    }
)


def called_names(node: ast.AST) -> Set[str]:
    """Bare names of every call target syntactically inside ``node``."""
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


@dataclass
class ClassInfo:
    """One scanned class: its methods, bases, and inferred field types."""

    module: "ModuleInfo"
    node: ast.ClassDef
    methods: Dict[str, "FunctionRecord"] = field(default_factory=dict)
    base_names: List[str] = field(default_factory=list)
    #: ``self.<attr>`` -> names of scanned classes ever assigned to it
    #: (via ``self.attr = ClassName(...)``).
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)
    #: Attributes only ever assigned opaque builtins/literals (dicts,
    #: deques, locks, ...): method calls on them get no edges at all.
    opaque_attrs: Set[str] = field(default_factory=set)

    @property
    def name(self) -> str:
        return self.node.name


def _constructed_class_name(
    value: ast.expr, classes: Dict[str, List["ClassInfo"]]
) -> Optional[str]:
    """Scanned class name when ``value`` is ``ClassName(...)``."""
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in classes
    ):
        return value.func.id
    return None


def _is_opaque_value(value: ast.expr) -> bool:
    """Whether ``value`` constructs a known method-less-for-us type:
    a container/lock builtin (by bare or dotted name) or a display
    literal (``[]``, ``{}``, ``set()``...)."""
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.Tuple, ast.Constant)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        if isinstance(func, ast.Name):
            return func.id in _OPAQUE_CONSTRUCTORS
        if isinstance(func, ast.Attribute):
            return func.attr in _OPAQUE_CONSTRUCTORS
    return False


def _base_names(node: ast.ClassDef) -> List[str]:
    names: List[str] = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


@dataclass
class CallGraph:
    """Function-name index plus resolved/name-based call edges."""

    by_name: Dict[str, List["FunctionRecord"]] = field(default_factory=dict)
    #: Class name -> every scanned class with that name (collisions are
    #: kept: resolution over-approximates across same-named classes).
    classes: Dict[str, List[ClassInfo]] = field(default_factory=dict)
    #: Function key -> keys of receiver-resolved callees.
    resolved: Dict[str, Set[str]] = field(default_factory=dict)
    #: Function key -> bare names left to the name-based fallback.
    unresolved: Dict[str, Set[str]] = field(default_factory=dict)
    _by_key: Dict[str, "FunctionRecord"] = field(default_factory=dict)
    _module_functions: Dict[str, Dict[str, "FunctionRecord"]] = field(
        default_factory=dict
    )
    _local_types: Dict[str, Dict[str, Set[str]]] = field(default_factory=dict)
    _local_opaque: Dict[str, Set[str]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, context: "AnalysisContext") -> "CallGraph":
        graph = cls()
        for module, class_node in context.each_class():
            info = ClassInfo(module, class_node, base_names=_base_names(class_node))
            graph.classes.setdefault(class_node.name, []).append(info)
        for record in context.each_function():
            graph.by_name.setdefault(record.name, []).append(record)
            graph._by_key[record.qualkey] = record
            if record.class_name is None and not record.nested:
                graph._module_functions.setdefault(record.module.name, {})[
                    record.name
                ] = record
            elif record.class_name is not None:
                for info in graph.classes.get(record.class_name, []):
                    if info.module is record.module:
                        info.methods.setdefault(record.name, record)
        graph._infer_attr_types(context)
        for record in context.each_function():
            graph._index_calls(record)
        return graph

    def _infer_attr_types(self, context: "AnalysisContext") -> None:
        """``self.<attr> = ScannedClass(...)`` assignments, class-wide."""
        for record in context.each_function():
            if record.class_name is None:
                continue
            infos = [
                info
                for info in self.classes.get(record.class_name, [])
                if info.module is record.module
            ]
            if not infos:
                continue
            for node in ast.walk(record.node):
                if isinstance(node, ast.Assign):
                    targets_, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets_, value = [node.target], node.value
                else:
                    continue
                class_name = _constructed_class_name(value, self.classes)
                opaque = class_name is None and _is_opaque_value(value)
                if class_name is None and not opaque:
                    continue
                for target in targets_:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        for info in infos:
                            if class_name is not None:
                                info.attr_types.setdefault(
                                    target.attr, set()
                                ).add(class_name)
                            else:
                                info.opaque_attrs.add(target.attr)
        for infos in self.classes.values():
            for info in infos:
                info.opaque_attrs -= set(info.attr_types)

    def _index_calls(self, record: "FunctionRecord") -> None:
        resolved: Set[str] = set()
        unresolved: Set[str] = set()
        for call, targets, fallback in self._call_sites(record):
            if targets:
                resolved.update(t.qualkey for t in targets)
            elif fallback is not None:
                unresolved.add(fallback)
        self.resolved[record.qualkey] = resolved
        self.unresolved[record.qualkey] = unresolved

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def key_of(self, record: "FunctionRecord") -> str:
        return record.qualkey

    def record_for(self, key: str) -> Optional["FunctionRecord"]:
        return self._by_key.get(key)

    def lookup_method(
        self, class_name: str, method: str
    ) -> List["FunctionRecord"]:
        """Resolve ``class_name.method`` through the scanned bases
        (every same-named class contributes; first hit per chain)."""
        results: List["FunctionRecord"] = []
        seen_classes: Set[int] = set()

        def walk(name: str, depth: int) -> bool:
            if depth > _MRO_DEPTH_CAP:
                return False
            found = False
            for info in self.classes.get(name, []):
                if id(info) in seen_classes:
                    continue
                seen_classes.add(id(info))
                hit = info.methods.get(method)
                if hit is not None:
                    results.append(hit)
                    found = True
                    continue
                for base in info.base_names:
                    found = walk(base, depth + 1) or found
            return found

        walk(class_name, 0)
        return results

    def _receiver_classes(
        self, record: "FunctionRecord", receiver: ast.expr
    ) -> Set[str]:
        """Class names the receiver expression may denote, or empty."""
        if (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Name)
            and receiver.func.id == "super"
            and record.class_name is not None
        ):
            # ``super().m(...)``: the defining class is one of the
            # scanned bases.  Without this, ``super().__init__()``
            # would fall back to *every* ``__init__`` in the tree and
            # connect unrelated constructors into one blob.
            bases: Set[str] = set()
            for info in self.classes.get(record.class_name, []):
                if info.module is record.module:
                    bases.update(info.base_names)
            return bases
        if isinstance(receiver, ast.Name):
            if receiver.id == "self" and record.class_name is not None:
                return {record.class_name}
            return self._local_var_types(record).get(receiver.id, set())
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
            and record.class_name is not None
        ):
            found: Set[str] = set()
            for info in self.classes.get(record.class_name, []):
                if info.module is record.module:
                    found.update(info.attr_types.get(receiver.attr, set()))
                    for base in info.base_names:
                        for base_info in self.classes.get(base, []):
                            found.update(
                                base_info.attr_types.get(receiver.attr, set())
                            )
            return found
        return set()

    def _is_opaque_receiver(
        self, record: "FunctionRecord", receiver: ast.expr
    ) -> bool:
        """``self.<attr>`` receivers (or locals, or direct constructor
        calls) only ever assigned opaque values (checked after
        :meth:`_receiver_classes` found nothing)."""
        if isinstance(receiver, ast.Call):
            # threading.Thread(...).start() and friends
            return _is_opaque_value(receiver)
        if isinstance(receiver, ast.Name) and receiver.id != "self":
            return receiver.id in self._local_opaque_vars(record)
        if not (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
            and record.class_name is not None
        ):
            return False
        opaque = False
        for info in self.classes.get(record.class_name, []):
            if info.module is not record.module:
                continue
            if receiver.attr in info.attr_types:
                return False
            opaque = opaque or receiver.attr in info.opaque_attrs
        return opaque

    def _local_var_types(self, record: "FunctionRecord") -> Dict[str, Set[str]]:
        """``x = ScannedClass(...)`` locals of one function (cached
        per graph)."""
        cached = self._local_types.get(record.qualkey)
        if cached is not None:
            return cached
        types: Dict[str, Set[str]] = {}
        opaque: Set[str] = set()
        for node in ast.walk(record.node):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in self.classes
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        types.setdefault(target.id, set()).add(value.func.id)
            elif _is_opaque_value(value):
                # thread = threading.Thread(...): thread.start() must
                # not alias to every scanned 'start' method.
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        opaque.add(target.id)
        opaque -= set(types)
        self._local_types[record.qualkey] = types
        self._local_opaque[record.qualkey] = opaque
        return types

    def _local_opaque_vars(self, record: "FunctionRecord") -> Set[str]:
        if record.qualkey not in self._local_opaque:
            self._local_var_types(record)
        return self._local_opaque[record.qualkey]

    def _call_sites(
        self, record: "FunctionRecord"
    ) -> Iterable[Tuple[ast.Call, List["FunctionRecord"], Optional[str]]]:
        """Every call in ``record``: ``(call, resolved_targets,
        fallback_name)``.  ``resolved_targets`` is empty when only the
        name-based fallback applies (``fallback_name``); both are empty
        for calls with no identifiable target name."""
        for node in ast.walk(record.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in self.classes:
                    # Constructor: edges to __init__ up the chain.
                    yield node, self.lookup_method(func.id, "__init__"), None
                    continue
                local = self._module_functions.get(record.module.name, {})
                if func.id in local:
                    yield node, [local[func.id]], None
                else:
                    yield node, [], func.id
                continue
            if isinstance(func, ast.Attribute):
                is_super = (
                    isinstance(func.value, ast.Call)
                    and isinstance(func.value.func, ast.Name)
                    and func.value.func.id == "super"
                )
                classes = self._receiver_classes(record, func.value)
                targets: List["FunctionRecord"] = []
                for class_name in sorted(classes):
                    targets.extend(self.lookup_method(class_name, func.attr))
                if targets:
                    yield node, targets, None
                elif is_super or self._is_opaque_receiver(record, func.value):
                    # Unresolved super() (base outside the scanned
                    # set: Exception, Thread, ...) or a receiver only
                    # ever assigned opaque builtins: no edge is better
                    # than an edge to every same-named method.
                    yield node, [], None
                else:
                    yield node, [], func.attr
                continue
            yield node, [], None

    def callees_at(
        self, record: "FunctionRecord"
    ) -> Iterable[Tuple[ast.Call, List["FunctionRecord"]]]:
        """Per-call-site targets: receiver-resolved where possible,
        every same-named scanned function otherwise."""
        for call, targets, fallback in self._call_sites(record):
            if targets:
                yield call, targets
            elif fallback is not None:
                yield call, list(self.by_name.get(fallback, []))

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------

    def _expand(self, record: "FunctionRecord") -> Iterable["FunctionRecord"]:
        for key in self.resolved.get(record.qualkey, ()):
            target = self._by_key.get(key)
            if target is not None:
                yield target
        for name in self.unresolved.get(record.qualkey, ()):
            yield from self.by_name.get(name, [])

    def reachable_from_names(
        self, seed_names: Iterable[str]
    ) -> List["FunctionRecord"]:
        """Every scanned function reachable (transitively) from a call
        to any of ``seed_names`` (seeds resolve name-based; edges past
        the seeds use receiver resolution where available)."""
        seeds: List["FunctionRecord"] = []
        for name in dict.fromkeys(seed_names):
            seeds.extend(self.by_name.get(name, []))
        return self.reachable_from(seeds)

    def reachable_from(
        self, seeds: Iterable["FunctionRecord"]
    ) -> List["FunctionRecord"]:
        """Every scanned function reachable from ``seeds`` (inclusive)."""
        seen: Set[str] = set()
        result: List["FunctionRecord"] = []
        worklist = list(seeds)
        while worklist:
            record = worklist.pop()
            if record.qualkey in seen:
                continue
            seen.add(record.qualkey)
            result.append(record)
            worklist.extend(self._expand(record))
        return result
