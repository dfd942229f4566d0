"""Declarative interface authoring: :class:`InterfaceSpec`.

§4 of the paper argues that scalability is decided at the *interface*, so
authoring a new interface should be a declaration, not a module of ad-hoc
callables.  An :class:`InterfaceSpec` names an interface's typed **state
components** (bounded counters, uninterpreted references, symbolic maps,
bounded FIFOs and bags), its **operations** (the usual :func:`defop`
``OpDef`` lists, with typed ``Param``\\ s) and its **kernel bindings**
(named factories from the kernel-binding registry) — and *derives* the
rest: the symbolic state constructor, the state-equivalence predicate and
the generic TESTGEN concretization hooks that previously had to be
hand-written per interface (``repro.testgen.sockets`` style).

``spec.compile()`` produces the :class:`~repro.model.registry.Interface`
the pipeline already consumes — the ``Interface`` dataclass is the
*compiled artifact* of a spec — and ``spec.register()`` puts both the
spec and its compiled interface in the registries.  The derived hooks are
small picklable proxies that resolve the spec by name, so spec-authored
interfaces shard across the parallel driver exactly like the bespoke
ones, and each proxy contributes the spec's content fingerprint to the
pipeline cache (see :data:`SPEC_SCHEMA_VERSION`).

Component vocabulary:

=================== ====================================================
component           derived state / equivalence
=================== ====================================================
:class:`Scalar`     bounded symbolic integer; equality of values
:class:`Ref`        uninterpreted value of a sort; equality of values
:class:`Table`      unconstrained symbolic map (``SymMap.any``) with a
                    per-key value constructor; slot-wise equality
:class:`EmptyTable` born-empty symbolic map (``SymMap.empty``)
:class:`Fifo`       bounded FIFO (head/tail positions over a buffer
                    map); position-by-position equality of the live
                    region — the ordered-socket shape
:class:`Bag`        bounded multiset (total + per-value counts);
                    bag equality with absent-as-zero — the
                    unordered-socket shape
:class:`Opaque`     escape hatch wrapping a bespoke state class and
                    equality (the POSIX model); must be the sole
                    component
=================== ====================================================
"""

from __future__ import annotations

import hashlib
import inspect
import threading
from typing import Callable, Optional, Sequence, Union

from repro.model.base import OpDef
from repro.symbolic import terms as T
from repro.symbolic.engine import Executor
from repro.symbolic.symtypes import SValue, SymMap, VarFactory, values_equal

#: Version of the spec/registry schema.  Part of every spec-derived hook's
#: cache fingerprint (and of :func:`repro.pipeline.cache.job_fingerprint`
#: directly), so editing the spec machinery — or bumping this when the
#: derivation rules change — invalidates stale cached pair results
#: instead of silently reusing them.
SPEC_SCHEMA_VERSION = 1

_GROUP_CAP = 8  # per-group isomorphism cap, matching TESTGEN's default


class SpecError(ValueError):
    """A malformed :class:`InterfaceSpec` (caught at construction)."""


#: ``inspect.getsource`` ends in ``ast.parse``, which on CPython 3.11
#: raises ``SystemError: AST constructor recursion depth mismatch`` when
#: two threads run it at once; the service fingerprints from several.
_SOURCE_LOCK = threading.Lock()


def fingerprint_source(obj) -> str:
    """Canonical content text of a callable/class for fingerprinting.

    Objects exposing ``__fingerprint_source__`` (the spec-derived hooks)
    stand in their owning spec's content hash; everything else hashes by
    source text, falling back to bytecode so dynamically built callables
    still get a stable hash.  The pipeline cache uses this same helper
    for every callable entering a job fingerprint.
    """
    fingerprint = getattr(obj, "__fingerprint_source__", None)
    if isinstance(fingerprint, str):
        return fingerprint
    try:
        with _SOURCE_LOCK:
            return inspect.getsource(obj)
    except (OSError, TypeError):
        code = getattr(obj, "__code__", None)
        if code is not None:
            return code.co_code.hex() + repr(code.co_consts)
        return repr(obj)


_source_of = fingerprint_source


# ----------------------------------------------------------------------
# Kernel bindings: named kernel factories specs refer to by name.

_KERNEL_BINDINGS: dict[str, Callable] = {}


class UnknownKernelBindingError(KeyError):
    """A kernel name no spec binding exists for."""


def register_kernel_binding(name: str, factory: Callable) -> Callable:
    """Name a kernel factory for specs to bind; returns the factory."""
    _KERNEL_BINDINGS[name] = factory
    return factory


def kernel_binding_names() -> list[str]:
    _ensure_builtin_kernels()
    return sorted(_KERNEL_BINDINGS)


def kernel_binding(name: str) -> Callable:
    _ensure_builtin_kernels()
    try:
        return _KERNEL_BINDINGS[name]
    except KeyError:
        raise UnknownKernelBindingError(
            f"no kernel binding named {name!r}; registered bindings: "
            f"{', '.join(sorted(_KERNEL_BINDINGS))}"
        ) from None


_builtin_kernels_loaded = False


def _ensure_builtin_kernels() -> None:
    # Lazy so importing the model layer never drags the kernels in.
    # Guarded by a did-load flag, not key presence: a user-registered
    # binding reusing a builtin name must not suppress the others.
    global _builtin_kernels_loaded
    if not _builtin_kernels_loaded:
        from repro.mtrace.runner import mono_factory, scalefs_factory

        _KERNEL_BINDINGS.setdefault("mono", mono_factory)
        _KERNEL_BINDINGS.setdefault("scalefs", scalefs_factory)
        _builtin_kernels_loaded = True


# ----------------------------------------------------------------------
# Value constructors for Table components.


class RefValue:
    """Per-key value: an uninterpreted reference of ``sort``."""

    def __init__(self, sort: T.Sort):
        self.sort = sort

    def make(self, factory: VarFactory, name: str):
        return factory.fresh_ref(name, self.sort)

    def describe(self) -> str:
        return f"ref[{self.sort.name}]"


class IntValue:
    """Per-key value: a bounded symbolic integer in ``[lo, hi]``."""

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi

    def make(self, factory: VarFactory, name: str):
        ex = Executor.current()
        value = factory.fresh_int(name)
        ex.assume(T.le(T.const(self.lo), value.term))
        ex.assume(T.le(value.term, T.const(self.hi)))
        return value

    def describe(self) -> str:
        return f"int[{self.lo},{self.hi}]"


# ----------------------------------------------------------------------
# State components.


class Component:
    """One named piece of an interface's symbolic state.

    ``attr`` is the Python attribute the compiled state exposes the
    component under; ``prefix`` namespaces the symbolic variables it
    creates (defaults to ``attr``).  ``standalone`` components can *be*
    the whole state when they are a spec's only component (their value
    carries its own ``copy()``), which is how the single-socket
    interfaces keep their historical flat state shape.
    """

    standalone = False

    def __init__(self, attr: str, prefix: Optional[str] = None):
        if not attr.isidentifier():
            raise SpecError(
                f"component attr {attr!r} must be a Python identifier"
            )
        self.attr = attr
        self.prefix = prefix if prefix is not None else attr

    # -- derivation hooks ------------------------------------------------
    def construct(self, factory: VarFactory):
        raise NotImplementedError

    def copy_value(self, value):
        return value.copy() if hasattr(value, "copy") else value

    def equal(self, a, b) -> bool:
        return values_equal(a, b)

    def concretize(self, value, model, names, setup) -> None:
        """Contribute this component's concrete initial state to a
        :class:`~repro.testgen.casegen.ConcreteSetup` (default: none —
        state invisible to the kernels, like pid counters)."""

    def collect_group_terms(self, value, refs: dict, ints: list) -> None:
        """Contribute initial-state terms to the isomorphism groups."""

    def describe(self) -> dict:
        return {"kind": type(self).__name__, "attr": self.attr,
                "prefix": self.prefix}


class Scalar(Component):
    """A bounded symbolic integer (a counter, a position, a total)."""

    def __init__(self, attr: str, lo: int, hi: int,
                 prefix: Optional[str] = None):
        super().__init__(attr, prefix)
        self.lo = lo
        self.hi = hi

    def construct(self, factory: VarFactory):
        ex = Executor.current()
        value = factory.fresh_int(self.prefix)
        ex.assume(T.le(T.const(self.lo), value.term))
        ex.assume(T.le(value.term, T.const(self.hi)))
        return value

    def collect_group_terms(self, value, refs, ints):
        ints.append(value.term)

    def describe(self) -> dict:
        return {**super().describe(), "lo": self.lo, "hi": self.hi}


class Ref(Component):
    """An uninterpreted value of a sort (an opaque token: a process
    image, a message payload)."""

    def __init__(self, attr: str, sort: T.Sort, prefix: Optional[str] = None):
        super().__init__(attr, prefix)
        self.sort = sort

    def construct(self, factory: VarFactory):
        return factory.fresh_ref(self.prefix, self.sort)

    def collect_group_terms(self, value, refs, ints):
        refs.setdefault(self.sort, []).append(value.term)

    def describe(self) -> dict:
        return {**super().describe(), "sort": self.sort.name}


class Table(Component):
    """An unconstrained symbolic map (``SymMap.any``): arbitrary initial
    contents discovered lazily, one ``value`` constructed per key.

    State invisible to the kernels by default — an interface whose
    tables must be installed concretely supplies its own
    ``setup_builder`` override on the spec.
    """

    standalone = True

    def __init__(self, attr: str, key_sort: T.Sort,
                 value: Union[RefValue, IntValue],
                 prefix: Optional[str] = None):
        super().__init__(attr, prefix)
        self.key_sort = key_sort
        self.value = value

    def construct(self, factory: VarFactory):
        return SymMap.any(
            factory, self.prefix, self.key_sort,
            lambda n: self.value.make(factory, n),
        )

    def collect_group_terms(self, value, refs, ints):
        _map_group_terms(value, self.key_sort, refs, ints)

    def describe(self) -> dict:
        return {**super().describe(), "key_sort": self.key_sort.name,
                "value": self.value.describe()}


class EmptyTable(Component):
    """A born-empty symbolic map (``SymMap.empty``): records only what
    the operations themselves insert (e.g. processes created during the
    trial)."""

    standalone = True

    def __init__(self, attr: str, key_sort: T.Sort,
                 prefix: Optional[str] = None):
        super().__init__(attr, prefix)
        self.key_sort = key_sort

    def construct(self, factory: VarFactory):
        return SymMap.empty(factory, self.prefix, self.key_sort)

    def collect_group_terms(self, value, refs, ints):
        _map_group_terms(value, self.key_sort, refs, ints)

    def describe(self) -> dict:
        return {**super().describe(), "key_sort": self.key_sort.name}


def _map_group_terms(value: SymMap, key_sort: T.Sort, refs, ints) -> None:
    for slot in value.base.slots:
        if key_sort is T.INT:
            ints.append(slot.key)
        elif key_sort is not T.BOOL:
            refs.setdefault(key_sort, []).append(slot.key)
        initial = slot.initial_value
        if isinstance(initial, SValue):
            if initial.term.sort is T.INT:
                ints.append(initial.term)
            elif initial.term.sort is not T.BOOL:
                refs.setdefault(initial.term.sort, []).append(initial.term)


class FifoState:
    """A bounded FIFO over an unbounded position stream.

    ``head`` and ``tail`` are absolute positions; the live region
    ``[head, tail)`` holds the queued values, capped at ``capacity``
    (``max_position`` additionally bounds ``tail`` for finitization).
    """

    def __init__(self, factory: VarFactory, name: str, sort: T.Sort,
                 capacity: int, max_position: Optional[int] = None):
        ex = Executor.current()
        self.head = factory.fresh_int(f"{name}.head")
        self.tail = factory.fresh_int(f"{name}.tail")
        ex.assume(T.le(T.const(0), self.head.term))
        ex.assume(T.le(self.head.term, self.tail.term))
        ex.assume(T.le(self.tail.term,
                       T.add(self.head.term, T.const(capacity))))
        if max_position is not None:
            ex.assume(T.le(self.tail.term, T.const(max_position)))
        self.buffer = SymMap.any(
            factory, f"{name}.buf", T.INT,
            lambda n: factory.fresh_ref(n, sort),
        )

    def copy(self) -> "FifoState":
        new = object.__new__(type(self))
        new.head = self.head
        new.tail = self.tail
        new.buffer = self.buffer.copy()
        return new


class BagState:
    """A bounded multiset: per-value counts plus a total."""

    def __init__(self, factory: VarFactory, name: str, sort: T.Sort,
                 capacity: int):
        ex = Executor.current()
        self.total = factory.fresh_int(f"{name}.total")
        ex.assume(T.le(T.const(0), self.total.term))
        ex.assume(T.le(self.total.term, T.const(capacity)))
        self.counts = SymMap.any(
            factory, f"{name}.counts", sort,
            lambda n: self._make_count(factory, n, capacity),
        )

    @staticmethod
    def _make_count(factory: VarFactory, name: str, capacity: int):
        ex = Executor.current()
        count = factory.fresh_int(name)
        ex.assume(T.le(T.const(1), count.term))
        ex.assume(T.le(count.term, T.const(capacity)))
        return count

    def copy(self) -> "BagState":
        new = object.__new__(type(self))
        new.total = self.total
        new.counts = self.counts.copy()
        return new


class Fifo(Component):
    """A bounded FIFO of ``sort`` values (the ordered-socket shape).

    Equality compares the live region position by position; TESTGEN
    concretization installs one ordered kernel socket per FIFO
    component, in declaration order.  ``state_type`` optionally names a
    :class:`FifoState` subclass to construct (it must forward the same
    configuration), so historical state classes keep their identity.
    """

    standalone = True

    def __init__(self, attr: str, sort: T.Sort, capacity: int,
                 max_position: Optional[int] = None,
                 prefix: Optional[str] = None,
                 state_type: Optional[type] = None):
        super().__init__(attr, prefix)
        self.sort = sort
        self.capacity = capacity
        self.max_position = max_position
        self.state_type = state_type

    def construct(self, factory: VarFactory):
        if self.state_type is not None:
            return self.state_type(factory)
        return FifoState(factory, self.prefix, self.sort, self.capacity,
                         self.max_position)

    def equal(self, a: FifoState, b: FifoState) -> bool:
        """FIFO equivalence: same value at every live position."""
        ex = Executor.current()
        if not values_equal(a.head, b.head) \
                or not values_equal(a.tail, b.tail):
            return False
        head = _int_term(a.head)
        tail = _int_term(a.tail)
        for i in range(a.buffer.slot_count()):
            key = a.buffer.base.slots[i].key
            ea = _effective_ref(a.buffer, i, self.sort)
            eb = _effective_ref(b.buffer, i, self.sort)
            outside = T.or_(T.lt(key, head), T.le(tail, key))
            if not ex.fork_bool(T.or_(outside, T.eq(ea, eb))):
                return False
        return True

    def concretize(self, value: FifoState, model, names, setup) -> None:
        from repro.testgen.casegen import SocketSpec, concrete_value

        head = model.eval(value.head.term)
        tail = model.eval(value.tail.term)
        by_pos: dict[int, str] = {}
        for slot in value.buffer.base.slots:
            if _slot_present(slot, model):
                by_pos[model.eval(slot.key)] = concrete_value(
                    slot.initial_value, model, names
                )
        # Positions the path never inspected are unconstrained; any
        # payload distinct from the named ones preserves the assignment.
        messages = [by_pos.get(pos, f"_fill{pos}")
                    for pos in range(head, tail)]
        setup.sockets[len(setup.sockets)] = SocketSpec(
            ordered=True, messages=messages, capacity=self.capacity
        )

    def collect_group_terms(self, value: FifoState, refs, ints):
        ints.append(value.head.term)
        ints.append(value.tail.term)
        for slot in value.buffer.base.slots:
            ints.append(slot.key)
            if slot.initial_value is not None:
                refs.setdefault(self.sort, []).append(
                    slot.initial_value.term
                )

    def describe(self) -> dict:
        out = {**super().describe(), "sort": self.sort.name,
               "capacity": self.capacity,
               "max_position": self.max_position}
        if self.state_type is not None:
            out["state_type"] = _source_of(self.state_type)
        return out


class Bag(Component):
    """A bounded multiset of ``sort`` values (the unordered-socket
    shape): delivery order unspecified, equality as a bag."""

    standalone = True

    def __init__(self, attr: str, sort: T.Sort, capacity: int,
                 prefix: Optional[str] = None,
                 state_type: Optional[type] = None):
        super().__init__(attr, prefix)
        self.sort = sort
        self.capacity = capacity
        self.state_type = state_type

    def construct(self, factory: VarFactory):
        if self.state_type is not None:
            return self.state_type(factory)
        return BagState(factory, self.prefix, self.sort, self.capacity)

    def equal(self, a: BagState, b: BagState) -> bool:
        """Bag equivalence: same total, same count for every value."""
        if not values_equal(a.total, b.total):
            return False
        for i in range(a.counts.slot_count()):
            pa, va = a.counts.slot_state(i)
            pb, vb = b.counts.slot_state(i)
            ea = va if pa else 0
            eb = vb if pb else 0
            if not values_equal(ea, eb):
                return False
        return True

    def concretize(self, value: BagState, model, names, setup) -> None:
        from repro.testgen.casegen import (
            SocketSpec,
            concrete_value,
            ev_key,
        )

        total = model.eval(value.total.term)
        pending: list[str] = []
        for slot in value.counts.base.slots:
            if _slot_present(slot, model):
                token = ev_key(slot.key, model, names)
                count = concrete_value(slot.initial_value, model, names)
                pending.extend([token] * max(int(count), 0))
        # The model constrains the total and each present count
        # separately; the bag installed in the kernel carries exactly
        # ``total`` values so capacity behavior matches the model.
        messages = pending[:total]
        while len(messages) < total:
            messages.append(f"_fill{len(messages)}")
        setup.sockets[len(setup.sockets)] = SocketSpec(
            ordered=False, messages=messages, capacity=self.capacity
        )

    def collect_group_terms(self, value: BagState, refs, ints):
        ints.append(value.total.term)
        for slot in value.counts.base.slots:
            refs.setdefault(self.sort, []).append(slot.key)
            if slot.initial_value is not None:
                ints.append(slot.initial_value.term)

    def describe(self) -> dict:
        out = {**super().describe(), "sort": self.sort.name,
               "capacity": self.capacity}
        if self.state_type is not None:
            out["state_type"] = _source_of(self.state_type)
        return out


class Opaque(Component):
    """Escape hatch: a bespoke state class with a bespoke equality.

    Must be a spec's *only* component; the compiled interface passes the
    wrapped callables straight through (so migrating an existing
    interface to a spec changes neither fingerprints nor artifacts).
    """

    standalone = True

    def __init__(self, build: Callable, equal: Callable,
                 setup_builder: Optional[Callable] = None,
                 groups_builder: Optional[Callable] = None):
        super().__init__("state")
        self.build = build
        self._equal = equal
        self.setup_builder = setup_builder
        self.groups_builder = groups_builder

    def construct(self, factory: VarFactory):
        return self.build(factory)

    def equal(self, a, b) -> bool:
        return self._equal(a, b)

    def describe(self) -> dict:
        out = {**super().describe(), "build": _source_of(self.build),
               "equal": _source_of(self._equal)}
        if self.setup_builder is not None:
            out["setup"] = _source_of(self.setup_builder)
        if self.groups_builder is not None:
            out["groups"] = _source_of(self.groups_builder)
        return out


def _slot_present(slot, model) -> bool:
    if slot.initial_present is False:
        return False
    return bool(model.eval(slot.initial_present))


def _effective_ref(buffer: SymMap, i: int, sort: T.Sort):
    present, value = buffer.slot_state(i)
    return value.term if present else T.uval(sort, 0)


def _int_term(x):
    return T.const(x) if isinstance(x, int) else x.term


# ----------------------------------------------------------------------
# The compiled multi-component state.


class SpecState:
    """Compiled state of a multi-component spec: one attribute per
    component, constructed (and copied) in declaration order."""

    def __init__(self, spec: "InterfaceSpec", factory: VarFactory):
        object.__setattr__(self, "_spec", spec)
        for comp in spec.components:
            setattr(self, comp.attr, comp.construct(factory))

    def copy(self) -> "SpecState":
        new = object.__new__(SpecState)
        object.__setattr__(new, "_spec", self._spec)
        for comp in self._spec.components:
            setattr(new, comp.attr, comp.copy_value(getattr(self, comp.attr)))
        return new

    def __repr__(self) -> str:
        return f"SpecState({self._spec.name})"


# ----------------------------------------------------------------------
# Picklable derived hooks.  Jobs carry these across process boundaries;
# they resolve the spec by registered name on the far side, and stand in
# for source text in cache fingerprints via ``__fingerprint_source__``.


class _SpecHook:
    def __init__(self, spec: "InterfaceSpec"):
        self.spec = spec

    @property
    def __fingerprint_source__(self) -> str:
        return (f"{type(self).__name__}:{self.spec.name}:"
                f"{self.spec.fingerprint()}")

    def __reduce__(self):
        return (_resolve_hook, (type(self).__name__, self.spec.name))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec.name!r})"


class SpecStateBuilder(_SpecHook):
    """Derived ``build_state``: the spec's components, in order."""

    def __call__(self, factory: VarFactory):
        components = self.spec.components
        if len(components) == 1 and components[0].standalone:
            return components[0].construct(factory)
        return SpecState(self.spec, factory)


class SpecStateEqual(_SpecHook):
    """Derived ``state_equal``: component-wise equivalence."""

    def __call__(self, a, b) -> bool:
        components = self.spec.components
        if len(components) == 1 and components[0].standalone:
            return components[0].equal(a, b)
        for comp in components:
            if not comp.equal(getattr(a, comp.attr), getattr(b, comp.attr)):
                return False
        return True


class SpecSetupBuilder(_SpecHook):
    """Derived TESTGEN ``setup_builder``: each component concretizes its
    initial state into the shared :class:`ConcreteSetup`."""

    def __call__(self, state, model, names=None):
        from repro.testgen.casegen import ConcreteSetup, _Names

        if names is None:
            names = _Names()
        setup = ConcreteSetup()
        for comp, value in self.spec.component_values(state):
            comp.concretize(value, model, names, setup)
        return setup


class SpecGroupsBuilder(_SpecHook):
    """Derived TESTGEN ``groups_builder``: operation arguments grouped by
    sort, then each component's initial-state terms."""

    def __call__(self, path):
        from repro.symbolic.enumerate import IsomorphismGroups

        refs: dict[T.Sort, list] = {}
        ints: list = []
        for args in path.args:
            for value in args.values():
                if not isinstance(value, SValue):
                    continue
                sort = value.term.sort
                if sort is T.INT:
                    ints.append(value.term)
                elif sort is not T.BOOL:
                    refs.setdefault(sort, []).append(value.term)
        for comp, value in self.spec.component_values(path.initial_state):
            comp.collect_group_terms(value, refs, ints)
        groups = IsomorphismGroups()
        for sort, members in refs.items():
            groups.add(sort.name.lower() + "s", members[:_GROUP_CAP])
        groups.add("ints", ints[:_GROUP_CAP])
        return groups


def _resolve_hook(hook_class: str, spec_name: str):
    # Unpickling may happen in a worker process whose import chain never
    # touched the registry module (spawn/forkserver start methods start
    # from a fresh interpreter); importing it populates the builtin
    # specs before the lookup.
    import repro.model.registry  # noqa: F401

    cls = {
        "SpecStateBuilder": SpecStateBuilder,
        "SpecStateEqual": SpecStateEqual,
        "SpecSetupBuilder": SpecSetupBuilder,
        "SpecGroupsBuilder": SpecGroupsBuilder,
    }[hook_class]
    return cls(get_spec(spec_name))


# ----------------------------------------------------------------------
# The spec itself.


class InterfaceSpec:
    """One declaratively authored interface.

    ``state`` is a component or sequence of components; ``ops`` the
    operation definitions (a :func:`repro.model.base.defop` registry
    list); ``kernels`` binding names (resolved through the kernel-binding
    registry) or explicit ``(name, factory)`` pairs.  ``setup_builder``
    and ``groups_builder`` override the derived TESTGEN hooks for
    interfaces whose concretization the components cannot express.
    """

    def __init__(
        self,
        name: str,
        description: str,
        state: Union[Component, Sequence[Component]],
        ops: Sequence[OpDef],
        kernels: Sequence[Union[str, tuple]] = ("mono", "scalefs"),
        setup_builder: Optional[Callable] = None,
        groups_builder: Optional[Callable] = None,
    ):
        self.name = name
        self.description = description
        self.components: tuple[Component, ...] = (
            (state,) if isinstance(state, Component) else tuple(state)
        )
        if not self.components:
            raise SpecError(f"spec {name!r} declares no state components")
        attrs = [c.attr for c in self.components]
        if len(set(attrs)) != len(attrs):
            raise SpecError(
                f"spec {name!r} has duplicate component attrs: {attrs}"
            )
        if any(isinstance(c, Opaque) for c in self.components) \
                and len(self.components) > 1:
            raise SpecError(
                f"spec {name!r}: an Opaque component must be the sole "
                f"state component"
            )
        self.ops = tuple(ops)
        if not self.ops:
            raise SpecError(f"spec {name!r} declares no operations")
        self.kernels = tuple(kernels)
        self.setup_builder = setup_builder
        self.groups_builder = groups_builder
        self._compiled = None

    # -- helpers ---------------------------------------------------------

    @property
    def opaque(self) -> Optional[Opaque]:
        only = self.components[0]
        return only if isinstance(only, Opaque) else None

    def component_values(self, state):
        """(component, value) pairs for a state this spec built."""
        components = self.components
        if len(components) == 1 and components[0].standalone:
            yield components[0], state
            return
        for comp in components:
            yield comp, getattr(state, comp.attr)

    def fingerprint(self) -> str:
        """Content hash over the spec's state/hook definitions (ops are
        fingerprinted per-op by the pipeline cache)."""
        h = hashlib.sha256()
        h.update(f"spec-schema:{SPEC_SCHEMA_VERSION}".encode())
        h.update(self.name.encode())
        for comp in self.components:
            h.update(repr(sorted(comp.describe().items())).encode())
        for override in (self.setup_builder, self.groups_builder):
            h.update(b"|")
            if override is not None:
                h.update(_source_of(override).encode())
        return h.hexdigest()

    # -- compilation -----------------------------------------------------

    def compile(self):
        """The :class:`~repro.model.registry.Interface` this spec
        denotes (cached; registries hold the compiled artifact)."""
        if self._compiled is None:
            from repro.model.registry import Interface

            self._compiled = Interface(
                name=self.name,
                description=self.description,
                ops=self.ops,
                build_state=self._build_state(),
                state_equal=self._state_equal(),
                kernels=self._resolve_kernels(),
                setup_builder=self._setup_builder(),
                groups_builder=self._groups_builder(),
            )
        return self._compiled

    def register(self):
        """Register the spec and its compiled interface; returns the
        compiled :class:`Interface`."""
        from repro.model.registry import register_interface

        register_spec(self)
        return register_interface(self.compile())

    def _resolve_kernels(self) -> tuple:
        resolved = []
        for entry in self.kernels:
            if isinstance(entry, str):
                resolved.append((entry, kernel_binding(entry)))
            else:
                name, factory = entry
                resolved.append((name, factory))
        return tuple(resolved)

    def _build_state(self) -> Callable:
        opaque = self.opaque
        if opaque is not None:
            return opaque.build
        return SpecStateBuilder(self)

    def _state_equal(self) -> Callable:
        opaque = self.opaque
        if opaque is not None:
            return opaque._equal
        return SpecStateEqual(self)

    def _setup_builder(self) -> Callable:
        if self.setup_builder is not None:
            return self.setup_builder
        opaque = self.opaque
        if opaque is not None:
            if opaque.setup_builder is None:
                raise SpecError(
                    f"spec {self.name!r}: an Opaque state needs an "
                    f"explicit setup_builder"
                )
            return opaque.setup_builder
        return SpecSetupBuilder(self)

    def _groups_builder(self) -> Optional[Callable]:
        if self.groups_builder is not None:
            return self.groups_builder
        opaque = self.opaque
        if opaque is not None:
            return opaque.groups_builder
        return SpecGroupsBuilder(self)

    def __repr__(self) -> str:
        return (f"InterfaceSpec({self.name}: "
                f"{len(self.components)} components, "
                f"{len(self.ops)} ops)")


# ----------------------------------------------------------------------
# Spec registry (parallel to the interface registry; holds the sources
# the compiled interfaces were derived from).

_SPECS: dict[str, InterfaceSpec] = {}


class UnknownSpecError(KeyError):
    """A spec name that is not registered."""


def register_spec(spec: InterfaceSpec) -> InterfaceSpec:
    _SPECS[spec.name] = spec
    return spec


def spec_names() -> list[str]:
    return sorted(_SPECS)


def get_spec(name: str) -> InterfaceSpec:
    try:
        return _SPECS[name]
    except KeyError:
        raise UnknownSpecError(
            f"no interface spec named {name!r}; registered specs: "
            f"{', '.join(spec_names())}"
        ) from None
