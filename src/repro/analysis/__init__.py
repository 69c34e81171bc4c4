"""The static checker behind ``python -m repro.tools.lint``.

The package builds per-function control-flow graphs from Python AST
(:mod:`repro.analysis.cfg`), runs a worklist dataflow over an abstract
lock/lease state (:mod:`repro.analysis.dataflow`), and checks, over one
set of CFGs per file, both the repo-invariant lint rules (L001-L004)
and the protocol invariants that the runtime layers (DMSan, the
recovery oracle) can only observe on executed paths (S001-S006,
:mod:`repro.analysis.rules`).  :func:`analyze_paths` is the one driver;
see DESIGN.md section 10 for the rule catalog and the abstract-state
semantics, and :mod:`repro.tools.lint` for the CLI and the pragma.
"""

from .cfg import CFG, Node, build_cfgs, build_function_cfg
from .driver import Report, analyze_paths
from .findings import Finding, Suppressions

__all__ = [
    "CFG",
    "Finding",
    "Node",
    "Report",
    "Suppressions",
    "analyze_paths",
    "build_cfgs",
    "build_function_cfg",
]
