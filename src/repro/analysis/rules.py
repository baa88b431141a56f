"""The determinism & simulation-safety rule catalogue.

Each rule encodes one way nondeterminism (or a blocking hazard) has been
observed to leak into simulation results. The catalogue is tuned to this
codebase: messages point at the sanctioned alternative
(``Environment.now``, ``RandomStreams``, ``zlib.crc32``, ``sorted``,
``env.timeout``) rather than just naming the sin.
"""

from __future__ import annotations

import ast
import typing

from repro.analysis.core import Finding, ModuleContext, Rule, make_rules, register


def all_rules() -> list[Rule]:
    """Instances of every registered rule, sorted by name."""
    return make_rules()


def _call_name(node: ast.Call) -> str | None:
    """The plain builtin-style name a call targets (``open``, ``hash``)."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


# ---------------------------------------------------------------------------
# wall-clock
# ---------------------------------------------------------------------------

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.sleep",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@register
class WallClockRule(Rule):
    """Real time read inside simulated code corrupts reproducibility."""

    name = "wall-clock"
    description = (
        "no wall-clock reads (time.time/perf_counter/datetime.now/"
        "time.sleep); simulated components use Environment.now"
    )

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            # Only flag the outermost chain: `time.time` once, not also
            # its inner `time` Name.
            if isinstance(module.parent(node), ast.Attribute):
                continue
            qualified = module.qualified(node)
            if qualified in _WALL_CLOCK:
                yield self.finding(
                    module,
                    node,
                    f"wall-clock access {qualified!r}: simulated code must "
                    "use Environment.now / env.timeout; allowlist true "
                    "CLI/dashboard boundaries with a pragma",
                )


# ---------------------------------------------------------------------------
# global-random
# ---------------------------------------------------------------------------

#: Legacy module-level numpy draws share one hidden global RandomState.
_NP_GLOBAL_DRAWS = frozenset(
    {
        "seed",
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "ranf",
        "sample",
        "bytes",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "standard_normal",
        "lognormal",
        "exponential",
        "poisson",
        "binomial",
        "get_state",
        "set_state",
    }
)


@register
class GlobalRandomRule(Rule):
    """All randomness must route through repro.simul.rng.RandomStreams."""

    name = "global-random"
    description = (
        "no global random.* / np.random.* state and no ad-hoc "
        "np.random.default_rng(); draw from RandomStreams"
    )

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            if isinstance(module.parent(node), ast.Attribute):
                continue
            qualified = module.qualified(node)
            if qualified is None:
                continue
            if qualified.startswith("random."):
                yield self.finding(
                    module,
                    node,
                    f"global stdlib RNG {qualified!r}: draws depend on "
                    "import-order-wide hidden state; use a named "
                    "RandomStreams stream instead",
                )
            elif qualified.startswith("numpy.random."):
                leaf = qualified.rsplit(".", 1)[1]
                if leaf == "default_rng":
                    yield self.finding(
                        module,
                        node,
                        "ad-hoc np.random.default_rng(): route randomness "
                        "through repro.simul.rng.RandomStreams so streams "
                        "stay named, seeded, and independent",
                    )
                elif leaf in _NP_GLOBAL_DRAWS:
                    yield self.finding(
                        module,
                        node,
                        f"global numpy RNG {qualified!r} shares one hidden "
                        "RandomState across the process; use a named "
                        "RandomStreams stream instead",
                    )


# ---------------------------------------------------------------------------
# hash-randomization
# ---------------------------------------------------------------------------


@register
class HashRandomizationRule(Rule):
    """hash() of str/bytes is salted per process by PYTHONHASHSEED."""

    name = "hash-randomization"
    description = (
        "no hash() for seeding or keying; use the stable zlib.crc32 "
        "pattern from repro.simul.rng"
    )

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and _call_name(node) == "hash":
                yield self.finding(
                    module,
                    node,
                    "hash() is salted by PYTHONHASHSEED and differs across "
                    "processes; derive stable keys/seeds with zlib.crc32 as "
                    "repro.simul.rng does",
                )


# ---------------------------------------------------------------------------
# unsorted-iteration
# ---------------------------------------------------------------------------

#: Consumers whose result is insensitive to iteration order.
_ORDER_INSENSITIVE = frozenset(
    {"sum", "min", "max", "any", "all", "len", "set", "frozenset", "sorted"}
)


def _is_set_display(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and _call_name(node) in ("set", "frozenset"):
        return True
    return False


def _is_set_annotation(node: ast.AST | None) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset")
    if isinstance(node, ast.Attribute):
        return node.attr in ("Set", "FrozenSet", "AbstractSet", "MutableSet")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.split("[", 1)[0].strip()
        return text in ("set", "frozenset")
    return False


class _SetNames:
    """Names (and ``self.x`` attributes) bound to set values in a module."""

    def __init__(self, tree: ast.Module) -> None:
        self.names: set[str] = set()
        self.self_attrs: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and _is_set_display(node.value):
                for target in node.targets:
                    self._bind(target)
            elif isinstance(node, ast.AnnAssign):
                if _is_set_annotation(node.annotation) or (
                    node.value is not None and _is_set_display(node.value)
                ):
                    self._bind(node.target)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in args.args + args.posonlyargs + args.kwonlyargs:
                    if _is_set_annotation(arg.annotation):
                        self.names.add(arg.arg)

    def _bind(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.names.add(target.id)
        elif (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self.self_attrs.add(target.attr)

    def is_set(self, node: ast.AST) -> bool:
        if _is_set_display(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.names
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr in self.self_attrs
        return False


def _is_keys_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
        and not node.args
        and not node.keywords
    )


def _is_values_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "values"
        and not node.args
        and not node.keywords
    )


#: Calls that enqueue simulation work: the order members reach these in
#: IS event order, so the feeding iteration must be explicitly ordered.
_SCHEDULING_CALLS = frozenset({"process", "spawn", "_spawn"})


def _schedules_work(nodes: typing.Iterable[ast.AST]) -> bool:
    """True when any node (sub)tree calls into event scheduling."""
    for root in nodes:
        for node in ast.walk(root):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node) in _SCHEDULING_CALLS:
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SCHEDULING_CALLS
            ):
                return True
    return False


@register
class UnsortedIterationRule(Rule):
    """Set/keys iteration order must not escape into ordered output."""

    name = "unsorted-iteration"
    description = (
        "no iterating sets or .keys() views into ordered output without "
        "an explicit sorted(...)"
    )

    _MESSAGE = (
        "iteration order of {what} can leak arbitrary ordering into "
        "results, exports, or event scheduling; wrap it in sorted(...) "
        "(or restructure so order cannot escape)"
    )

    #: ``.values()`` views are insertion-ordered, so they are exempt from
    #: the generic check — but when the loop body *schedules events*
    #: (env.process / env.spawn), spawn order silently inherits whatever
    #: built the dict; that dependency must be made explicit.
    _VALUES_MESSAGE = (
        "iterating a .values() view into event scheduling makes spawn "
        "order an accident of dict build order; iterate "
        "sorted(d.items()) (or another explicit order) instead"
    )

    def _flag(
        self, module: ModuleContext, iterable: ast.AST
    ) -> Finding | None:
        names: _SetNames = self._names
        if names.is_set(iterable):
            return self.finding(
                module, iterable, self._MESSAGE.format(what="a set")
            )
        if _is_keys_call(iterable):
            return self.finding(
                module, iterable, self._MESSAGE.format(what="a .keys() view")
            )
        return None

    def _order_insensitive_context(
        self, module: ModuleContext, node: ast.AST
    ) -> bool:
        parent = module.parent(node)
        return (
            isinstance(parent, ast.Call)
            and _call_name(parent) in _ORDER_INSENSITIVE
            and node in parent.args
        )

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        self._names = _SetNames(module.tree)
        for node in ast.walk(module.tree):
            iterables: list[ast.AST] = []
            if isinstance(node, ast.For):
                iterables.append(node.iter)
                if _is_values_call(node.iter) and _schedules_work(node.body):
                    yield self.finding(module, node.iter, self._VALUES_MESSAGE)
            elif isinstance(
                node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)
            ):
                if self._order_insensitive_context(module, node):
                    continue
                iterables.extend(g.iter for g in node.generators)
                if any(
                    _is_values_call(g.iter) for g in node.generators
                ) and _schedules_work([node]):
                    yield self.finding(module, node, self._VALUES_MESSAGE)
            elif isinstance(node, ast.Call):
                name = _call_name(node)
                if name in ("list", "tuple", "enumerate", "iter"):
                    iterables.extend(node.args[:1])
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                ):
                    iterables.extend(node.args[:1])
            for iterable in iterables:
                found = self._flag(module, iterable)
                if found is not None:
                    yield found


# ---------------------------------------------------------------------------
# id-ordering
# ---------------------------------------------------------------------------


@register
class IdOrderingRule(Rule):
    """id() values are addresses: they differ run to run (ASLR, allocator)."""

    name = "id-ordering"
    description = (
        "no id()-based ordering, keying, tie-breaking, or reprs; "
        "addresses differ across runs"
    )

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and _call_name(node) == "id":
                yield self.finding(
                    module,
                    node,
                    "id() yields a memory address that changes between "
                    "runs; use a stable sequence number or key instead",
                )


# ---------------------------------------------------------------------------
# blocking-io
# ---------------------------------------------------------------------------

_BLOCKING_MODULES = ("socket", "subprocess", "requests", "urllib", "http")


def _generator_functions(
    tree: ast.Module,
) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Functions that are generators (contain a yield in their own body)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack: list[ast.AST] = list(ast.iter_child_nodes(node))
        is_generator = False
        while stack:
            child = stack.pop()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # nested scope: its yields are not ours
            if isinstance(child, (ast.Yield, ast.YieldFrom)):
                is_generator = True
                break
            stack.extend(ast.iter_child_nodes(child))
        if is_generator:
            found.append(node)
    return found


@register
class BlockingIoRule(Rule):
    """Simulation process generators must never block the real world."""

    name = "blocking-io"
    description = (
        "no open()/socket/subprocess/input()/time.sleep inside simulation "
        "process generators; block on env.timeout instead"
    )

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        for function in _generator_functions(module.tree):
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                plain = _call_name(node)
                if plain in ("open", "input"):
                    yield self.finding(
                        module,
                        node,
                        f"blocking {plain}() inside generator "
                        f"{function.name!r}: a simulation process must not "
                        "touch the real world; do I/O at the boundary",
                    )
                    continue
                qualified = module.qualified(node.func)
                if qualified is None:
                    continue
                root = qualified.split(".", 1)[0]
                if root in _BLOCKING_MODULES:
                    yield self.finding(
                        module,
                        node,
                        f"blocking call {qualified!r} inside generator "
                        f"{function.name!r}: simulation processes cannot "
                        "wait on real sockets/processes",
                    )
                elif qualified == "time.sleep":
                    yield self.finding(
                        module,
                        node,
                        f"time.sleep inside generator {function.name!r} "
                        "stalls the whole event loop; yield env.timeout(...) "
                        "instead",
                    )


# ---------------------------------------------------------------------------
# mutable-default
# ---------------------------------------------------------------------------

_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict",
     "Counter", "deque"}
)


@register
class MutableDefaultRule(Rule):
    """Mutable default arguments are shared across calls (and runs)."""

    name = "mutable-default"
    description = "no mutable default arguments (list/dict/set literals)"

    def _is_mutable(self, node: ast.AST | None) -> bool:
        if node is None:
            return False
        if isinstance(
            node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                   ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name is None and isinstance(node.func, ast.Attribute):
                name = node.func.attr
            return name in _MUTABLE_CALLS
        return False

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        module,
                        default,
                        f"mutable default argument in {node.name!r} is "
                        "evaluated once and shared by every call; default "
                        "to None and build inside",
                    )


# ---------------------------------------------------------------------------
# silent-except
# ---------------------------------------------------------------------------


def _is_broad(node: ast.AST | None) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("Exception", "BaseException")
    if isinstance(node, ast.Tuple):
        return any(_is_broad(e) for e in node.elts)
    return False


def _swallows(body: typing.Sequence[ast.stmt]) -> bool:
    for statement in body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ):
            continue  # docstring or `...`
        return False
    return True


@register
class SilentExceptRule(Rule):
    """Bare/broad except-pass hides crashed processes and corrupt state."""

    name = "silent-except"
    description = (
        "no bare `except:` and no `except Exception: pass`; failures in "
        "engine hot paths must surface"
    )

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare `except:` catches KeyboardInterrupt and hides "
                    "real failures; name the exception",
                )
            elif _is_broad(node.type) and _swallows(node.body):
                yield self.finding(
                    module,
                    node,
                    "broad exception handler silently swallows failures; "
                    "narrow the type or handle the error",
                )
