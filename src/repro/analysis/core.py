"""Lint framework core: module context, rule registry, lint drivers.

A :class:`Rule` inspects one parsed module and yields
:class:`Finding`\\ s. The drivers (:func:`lint_source`,
:func:`lint_file`, :func:`lint_paths`) parse, run every registered rule,
apply pragma suppressions (:mod:`repro.analysis.pragmas`), and validate
the pragmas themselves — a pragma without a reason, naming an unknown
rule, or suppressing nothing is reported as a finding of the built-in
``pragma`` meta-rule (which is itself never suppressible).
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import typing

from repro.analysis.pragmas import Pragma, match_pragma, parse_pragmas

#: Rule name reserved for pragma-hygiene findings.
PRAGMA_RULE = "pragma"


@dataclasses.dataclass(frozen=True)
class Finding:
    """One lint violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class Suppressed:
    """A finding silenced by a pragma (kept for the inventory)."""

    finding: Finding
    pragma: Pragma


@dataclasses.dataclass(frozen=True)
class FileReport:
    """Everything the linter decided about one file."""

    path: str
    findings: tuple[Finding, ...]
    suppressed: tuple[Suppressed, ...]
    pragmas: tuple[Pragma, ...]

    @property
    def clean(self) -> bool:
        return not self.findings


class ModuleContext:
    """A parsed module plus the shared lookups rules need."""

    def __init__(self, source: str, path: str, tree: ast.Module) -> None:
        self.source = source
        self.path = path
        self.tree = tree
        self.parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
        #: name -> fully qualified import target. ``import numpy as np``
        #: maps ``np -> numpy``; ``from time import sleep as zzz`` maps
        #: ``zzz -> time.sleep``.
        self.imports: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self.parents.get(node)

    def qualified(self, node: ast.AST) -> str | None:
        """Resolve a Name/Attribute chain to its imported dotted path.

        Returns None when the chain is not rooted at an imported name —
        ``self.time.time`` never resolves to the ``time`` module.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.imports.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


class Rule:
    """Base class for lint rules. Subclasses register themselves."""

    #: Kebab-case identifier used in reports and pragmas.
    name: typing.ClassVar[str] = ""
    #: One-line summary for ``crayfish lint --rules``.
    description: typing.ClassVar[str] = ""

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.name,
            path=module.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.name:
        raise ValueError(f"rule {cls.__name__} has no name")
    if cls.name in _REGISTRY or cls.name == PRAGMA_RULE:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def rule_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def make_rules(names: typing.Sequence[str] | None = None) -> list[Rule]:
    """Instantiate the requested rules (all registered ones by default)."""
    if names is None:
        names = rule_names()
    unknown = [n for n in names if n not in _REGISTRY]
    if unknown:
        raise ValueError(f"unknown lint rule(s): {', '.join(sorted(unknown))}")
    return [_REGISTRY[name]() for name in sorted(names)]


def _pragma_findings(
    pragmas: typing.Sequence[Pragma],
    used: typing.Collection[Pragma],
    path: str,
    active: typing.Collection[str] | None = None,
) -> list[Finding]:
    """Pragma hygiene: reasons are mandatory, dead pragmas are errors.

    A pragma can only be proven dead when every rule it names actually
    ran: under ``--select``/``--ignore`` the unselected rules' pragmas
    are left alone rather than reported as suppressing nothing.
    """
    findings = []
    known = set(rule_names())
    if active is None:
        active = known
    for pragma in pragmas:
        for rule in pragma.rules:
            if rule not in known:
                findings.append(
                    Finding(
                        PRAGMA_RULE, path, pragma.line, 0,
                        f"pragma names unknown rule {rule!r}",
                    )
                )
        if not pragma.reason:
            findings.append(
                Finding(
                    PRAGMA_RULE, path, pragma.line, 0,
                    "pragma has no reason; write "
                    "'# crayfish: allow[rule]: why this is safe'",
                )
            )
        elif (
            pragma not in used
            and all(r in known for r in pragma.rules)
            and all(r in active for r in pragma.rules)
        ):
            findings.append(
                Finding(
                    PRAGMA_RULE, path, pragma.line, 0,
                    f"pragma allow[{', '.join(pragma.rules)}] suppresses "
                    "nothing; remove it",
                )
            )
    return findings


def lint_source(
    source: str,
    path: str = "<string>",
    rules: typing.Sequence[Rule] | None = None,
) -> FileReport:
    """Lint one module given as text."""
    if rules is None:
        rules = make_rules()
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        finding = Finding(
            PRAGMA_RULE, path, error.lineno or 0, error.offset or 0,
            f"file does not parse: {error.msg}",
        )
        return FileReport(path, (finding,), (), ())
    module = ModuleContext(source, path, tree)
    pragmas = parse_pragmas(source)
    raw: list[Finding] = []
    for rule in rules:
        raw.extend(rule.check(module))
    raw.sort(key=lambda f: (f.line, f.col, f.rule))
    kept: list[Finding] = []
    suppressed: list[Suppressed] = []
    used: list[Pragma] = []
    for finding in raw:
        pragma = match_pragma(pragmas, finding.rule, finding.line)
        if pragma is None:
            kept.append(finding)
        else:
            suppressed.append(Suppressed(finding, pragma))
            if pragma not in used:
                used.append(pragma)
    kept.extend(
        _pragma_findings(pragmas, used, path, {rule.name for rule in rules})
    )
    kept.sort(key=lambda f: (f.line, f.col, f.rule))
    return FileReport(path, tuple(kept), tuple(suppressed), tuple(pragmas))


def lint_file(
    path: str | pathlib.Path, rules: typing.Sequence[Rule] | None = None
) -> FileReport:
    target = pathlib.Path(path)
    return lint_source(target.read_text(), str(target), rules)


def iter_python_files(
    paths: typing.Sequence[str | pathlib.Path],
) -> list[pathlib.Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: list[pathlib.Path] = []
    for entry in paths:
        target = pathlib.Path(entry)
        if target.is_dir():
            files.extend(sorted(target.rglob("*.py")))
        elif target.suffix == ".py":
            files.append(target)
        else:
            raise FileNotFoundError(f"not a python file or directory: {target}")
    return files


def lint_paths(
    paths: typing.Sequence[str | pathlib.Path],
    rules: typing.Sequence[Rule] | None = None,
) -> list[FileReport]:
    """Lint every ``.py`` file under the given files/directories."""
    if rules is None:
        rules = make_rules()
    return [lint_file(f, rules) for f in iter_python_files(paths)]
