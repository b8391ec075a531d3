"""``detlint`` configuration, driven by ``[tool.detlint]`` in pyproject.toml.

The shipped defaults below mirror the repository's own pyproject so the
linter behaves identically on interpreters without a TOML parser
(``tomllib`` is 3.11+; on 3.10 install ``tomli`` or rely on the defaults).

Keys (all optional):

``paths``
    Directories/files linted when the CLI is given none.
``src-roots``
    Roots stripped to derive dotted module names (``src/repro/pdm/disk.py``
    under root ``src`` is module ``repro.pdm.disk``).  Only files under a
    src root carry a module name; ARCH rules need one.
``strict``
    Path patterns (``prefix/**`` or fnmatch) for *deterministic modules*:
    the code whose behaviour must be a pure function of its inputs.  All
    rule families apply here.  Everywhere else (tests, benchmarks,
    examples) only rules with ``scope = "all"`` apply — a benchmark may
    read the clock; the §4 dictionaries may not.
``exclude``
    Path patterns never linted.
``ignore``
    Rule codes disabled globally.
``baseline``
    Baseline file path, relative to the project root.
``arch-base``
    Packages importable from anywhere (the bottom layer).
``race-scope``
    Dotted package prefixes whose classes face the pluggable executors
    (the thread-per-disk file backend): the RACE2xx shared-state rules apply
    to state defined here.  Module-level state (RACE201) is checked in
    every deterministic module regardless.
``span-scope``
    Dotted package prefixes whose :class:`repro.core.interface.Dictionary`
    subclasses must open cost spans on every public operation (COST102).
    Defaults to ``repro.core`` — the randomized baselines are measured
    externally via ``measure()``.
``[tool.detlint.layers]``
    Map of package -> list of packages it may import (``"*"`` = any).
    Packages absent from the map are unconstrained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

try:  # Python 3.11+
    import tomllib as _toml
except ImportError:  # pragma: no cover - 3.10 fallback
    try:
        import tomli as _toml  # type: ignore[import-not-found]
    except ImportError:
        _toml = None

DEFAULT_PATHS = ["src", "tests", "benchmarks"]
DEFAULT_SRC_ROOTS = ["src"]
DEFAULT_STRICT = ["src/repro/**"]
DEFAULT_EXCLUDE = [
    "**/__pycache__/**",
    "**/.*/**",
    "**/*.egg-info/**",
]
DEFAULT_BASELINE = ".detlint-baseline.json"
DEFAULT_ARCH_BASE = ["repro.bits", "repro.bounds"]
DEFAULT_RACE_SCOPE = [
    "repro.pdm",
    "repro.core",
    "repro.expanders",
    "repro.extsort",
    "repro.hashing",
    "repro.btree",
    "repro.recovery",
]
DEFAULT_SPAN_SCOPE = ["repro.core"]
DEFAULT_LAYERS: Dict[str, List[str]] = {
    "repro.pdm": [],
    "repro.expanders": ["repro.pdm"],
    "repro.extsort": ["repro.pdm"],
    "repro.hashing": ["repro.pdm", "repro.core"],
    "repro.btree": ["repro.pdm", "repro.core"],
    "repro.core": ["repro.pdm", "repro.expanders", "repro.extsort"],
    "repro.workloads": ["repro.core"],
    "repro.fs": ["repro.pdm", "repro.core", "repro.workloads"],
    "repro.recovery": ["repro.pdm", "repro.core"],
    "repro.analysis": ["*"],
    "repro.lint": [],
}


def match_path(rel_path: str, pattern: str) -> bool:
    """``prefix/**`` matches the whole subtree; otherwise fnmatch.

    ``rel_path`` is POSIX-style relative to the project root.
    """
    import fnmatch

    if pattern.endswith("/**"):
        prefix = pattern[:-3]
        return rel_path == prefix or rel_path.startswith(prefix + "/")
    if pattern.endswith("/"):
        return rel_path.startswith(pattern)
    # fnmatch's "*" crosses "/" which is what we want for **/x patterns
    return fnmatch.fnmatch(rel_path, pattern)


@dataclass
class Config:
    root: Path
    paths: List[str] = field(default_factory=lambda: list(DEFAULT_PATHS))
    src_roots: List[str] = field(default_factory=lambda: list(DEFAULT_SRC_ROOTS))
    strict: List[str] = field(default_factory=lambda: list(DEFAULT_STRICT))
    exclude: List[str] = field(default_factory=lambda: list(DEFAULT_EXCLUDE))
    ignore: Set[str] = field(default_factory=set)
    select: Optional[Set[str]] = None  # None = all registered rules
    baseline: Optional[str] = DEFAULT_BASELINE
    arch_base: List[str] = field(default_factory=lambda: list(DEFAULT_ARCH_BASE))
    race_scope: List[str] = field(default_factory=lambda: list(DEFAULT_RACE_SCOPE))
    span_scope: List[str] = field(default_factory=lambda: list(DEFAULT_SPAN_SCOPE))
    layers: Dict[str, List[str]] = field(
        default_factory=lambda: {k: list(v) for k, v in DEFAULT_LAYERS.items()}
    )

    # -- path classification ------------------------------------------------

    def is_excluded(self, rel_path: str) -> bool:
        return any(match_path(rel_path, p) for p in self.exclude)

    def is_strict(self, rel_path: str) -> bool:
        return any(match_path(rel_path, p) for p in self.strict)

    def module_name(self, rel_path: str) -> Optional[str]:
        """Dotted module name if ``rel_path`` lies under a src root."""
        if not rel_path.endswith(".py"):
            return None
        for root in self.src_roots:
            prefix = root.rstrip("/") + "/"
            if rel_path.startswith(prefix):
                parts = rel_path[len(prefix) : -3].split("/")
                if parts and parts[-1] == "__init__":
                    parts = parts[:-1]
                return ".".join(parts) if parts else None
        return None

    def rule_enabled(self, code: str) -> bool:
        if code in self.ignore:
            return False
        return self.select is None or code in self.select

    @property
    def baseline_path(self) -> Optional[Path]:
        return self.root / self.baseline if self.baseline else None


def find_project_root(start: Path) -> Path:
    """Nearest ancestor (inclusive) holding a pyproject.toml, else ``start``."""
    start = start.resolve()
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return start


def load_config(root: Optional[Path] = None) -> Config:
    """Read ``[tool.detlint]`` from the project root's pyproject.toml,
    falling back to the shipped defaults (also when no TOML parser is
    available on this interpreter)."""
    root = find_project_root(root or Path.cwd())
    cfg = Config(root=root)
    pyproject = root / "pyproject.toml"
    if _toml is None or not pyproject.is_file():
        return cfg
    with pyproject.open("rb") as fh:
        data = _toml.load(fh)
    table = data.get("tool", {}).get("detlint", {})
    if not isinstance(table, dict):
        return cfg

    def _strlist(key: str, default: Sequence[str]) -> List[str]:
        raw = table.get(key, None)
        if raw is None:
            return list(default)
        if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
            raise ValueError(f"[tool.detlint] {key} must be a list of strings")
        return list(raw)

    cfg.paths = _strlist("paths", cfg.paths)
    cfg.src_roots = _strlist("src-roots", cfg.src_roots)
    cfg.strict = _strlist("strict", cfg.strict)
    cfg.exclude = _strlist("exclude", cfg.exclude)
    cfg.ignore = {c.upper() for c in _strlist("ignore", [])}
    cfg.arch_base = _strlist("arch-base", cfg.arch_base)
    cfg.race_scope = _strlist("race-scope", cfg.race_scope)
    cfg.span_scope = _strlist("span-scope", cfg.span_scope)
    if "baseline" in table:
        raw_baseline = table["baseline"]
        if raw_baseline is not None and not isinstance(raw_baseline, str):
            raise ValueError("[tool.detlint] baseline must be a string")
        cfg.baseline = raw_baseline
    layers = table.get("layers", None)
    if layers is not None:
        if not isinstance(layers, dict):
            raise ValueError("[tool.detlint.layers] must be a table")
        cfg.layers = {
            str(pkg): [str(dep) for dep in deps] for pkg, deps in layers.items()
        }
    return cfg
