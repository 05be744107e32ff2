"""Compiled-ruleset fast path: one alternation, dispatched by branch.

The per-record tagger historically ran a combined alternation as a
*reject* filter and, on a hit, re-scanned every rule in order to find the
winner (first-rule-wins, logsurfer semantics — an alternation alone
implements earliest-*position* match, a different priority rule).  This
module compiles a ruleset once into a form where the alternation itself
reports *which branch* matched, so the ordered re-scan shrinks from "all
rules" to "the rules ahead of the branch the regex engine already found":

* each rule becomes a named wrapper branch ``(?P<_cK>...)`` carrying its
  scoped inline flags (:func:`scoped_pattern`), so one ``search`` both
  rejects chaff and names a candidate rule;
* the candidate is the branch matching at the *leftmost position*; rules
  ``0..K-1`` are then tested individually — only they could outrank it
  under first-rule-wins — and the first hit (or the candidate) wins;
* an optional literal prefilter — one alternation of plain literals
  required by the rules (the cheap gate of the semi-supervised
  log-processing fast path; see PAPERS.md) — runs before the dispatch
  when every rule contributes a usable literal.

Rules whose pattern text could interfere with the combined compile
(named groups, backreferences, conditionals) drop the whole ruleset to a
fallback mode that is exactly the historical behavior: anonymous-group
alternation as a reject filter plus the full ordered scan.  All five
system rulesets compile in dispatch mode.

Compiled state is cached per process for the registered system rulesets
(:func:`compiled_ruleset`), which is what makes
:meth:`~repro.core.tagging.RulesetHandle.compiled` cheap to call from
worker initializers and batch paths alike.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Pattern, Sequence, Tuple

from ..categories import CategoryDef, Ruleset

#: Global inline-flag groups a pattern may open with, e.g. ``(?i)``.
_GLOBAL_FLAG_GROUP = re.compile(r"\(\?([aiLmsux]+)\)")

#: Flags expressible as scoped inline-flag letters (``(?i:...)``).
#: ``re.L`` needs a bytes pattern and ``re.U`` is the str default, so
#: neither can reach a str-pattern ruleset; both are dropped if present.
_FLAG_LETTERS = (
    (re.ASCII, "a"),
    (re.IGNORECASE, "i"),
    (re.MULTILINE, "m"),
    (re.DOTALL, "s"),
    (re.VERBOSE, "x"),
)

#: Pattern constructs that make combining rules into one alternation
#: unsafe: named groups collide with the ``_cK`` wrappers, and numeric or
#: named backreferences/conditionals break when group numbering shifts
#: inside the combined pattern.
_UNSAFE_CONSTRUCT = re.compile(r"\(\?P[<=]|\\[1-9]|\\g<|\(\?\(")

#: A literal shorter than this filters nothing worth the extra pass.
_MIN_LITERAL = 4


def _lift_global_flags(pattern: str, flags: int) -> Tuple[str, int]:
    """Strip leading ``(?i)``-style global flag groups into ``flags``."""
    while True:
        head = _GLOBAL_FLAG_GROUP.match(pattern)
        if head is None:
            return pattern, flags
        for flag, letter in _FLAG_LETTERS:
            if letter in head.group(1):
                flags |= flag
        pattern = pattern[head.end():]


def scoped_pattern(category: CategoryDef) -> str:
    """The category's pattern as a self-contained alternation branch.

    Joining raw patterns with ``|`` loses per-rule flags: ``(?i)`` inside
    a branch is a *global* flag (an error since Python 3.11, silently
    applied to every branch before that), and ``CategoryDef.flags`` never
    reached the combined regex at all.  Scoped inline-flag groups
    (``(?i:...)``) carry each rule's flags without leaking them to the
    other branches.
    """
    pattern, flags = _lift_global_flags(category.pattern, category.flags)
    letters = "".join(
        letter for flag, letter in _FLAG_LETTERS if flags & flag
    )
    if letters:
        return f"(?{letters}:{pattern})"
    return f"(?:{pattern})"


def required_literal(pattern: str, flags: int = 0) -> Optional[str]:
    """A plain substring every match of ``pattern`` must contain.

    Walks the parsed pattern's top-level concatenation: a maximal run of
    LITERAL nodes there is required in every match (each concatenation
    element must be consumed).  Returns the longest such run, or ``None``
    when the pattern yields nothing usable (pure alternation, too-short
    literals, unparsable text) — callers must treat ``None`` as "cannot
    prefilter", never as "matches nothing".
    """
    pattern, flags = _lift_global_flags(pattern, flags)
    try:
        parsed = re._parser.parse(pattern, flags & ~re.VERBOSE)
    except Exception:
        return None
    best: List[int] = []
    run: List[int] = []
    for op, arg in parsed:
        if str(op) == "LITERAL":
            run.append(arg)
        else:
            if len(run) > len(best):
                best = run
            run = []
    if len(run) > len(best):
        best = run
    if len(best) < _MIN_LITERAL:
        return None
    return "".join(map(chr, best))


class CompiledRuleset:
    """One ruleset compiled for batch tagging.

    :meth:`match_index` / :meth:`match_text` preserve first-rule-wins
    semantics exactly (the hypothesis differential suite in
    ``tests/core/test_compiled_rules.py`` pins this against the naive
    ordered scan for all five system rulesets).
    """

    def __init__(self, ruleset: Ruleset):
        self.ruleset = ruleset
        categories = tuple(ruleset)
        self.categories = categories
        self._ordered: Tuple[Tuple[Pattern[str], CategoryDef], ...] = tuple(
            (cat.compiled(), cat) for cat in categories
        )
        self.prefilter: Optional[Pattern[str]] = None
        self.dispatch: Optional[Pattern[str]] = None
        self.literal_gate: Optional[Pattern[str]] = None
        self._branch_of: Dict[int, int] = {}
        if not categories:
            return

        self.prefilter = re.compile(
            "|".join(scoped_pattern(cat) for cat in categories)
        )
        if any(_UNSAFE_CONSTRUCT.search(cat.pattern) for cat in categories):
            return  # fallback mode: prefilter + full ordered scan

        dispatch = re.compile("|".join(
            f"(?P<_c{k}>{scoped_pattern(cat)})"
            for k, cat in enumerate(categories)
        ))
        self.dispatch = dispatch
        self._branch_of = {
            dispatch.groupindex[f"_c{k}"]: k for k in range(len(categories))
        }

        literals = []
        for cat in categories:
            literal = required_literal(cat.pattern, cat.flags)
            if literal is None:
                return  # one rule without a cheap gate disables the gate
            branch = re.escape(literal)
            if (cat.flags | _lift_global_flags(cat.pattern, 0)[1]) & re.IGNORECASE:
                branch = f"(?i:{branch})"
            literals.append(branch)
        self.literal_gate = re.compile("|".join(literals))

    # -- matching ----------------------------------------------------------

    def match_index(self, text: str) -> Optional[int]:
        """Index of the first rule matching ``text``, or ``None``."""
        dispatch = self.dispatch
        if dispatch is None:
            return self._scan_index(text)
        gate = self.literal_gate
        if gate is not None and gate.search(text) is None:
            return None
        found = dispatch.search(text)
        if found is None:
            return None
        return self._resolve(found, text)

    def _resolve(self, found: "re.Match[str]", text: str) -> int:
        """The winning rule index for a dispatch hit ``found`` on ``text``.

        The dispatch found the leftmost-position winner; under
        first-rule-wins only the rules *ahead* of that branch can outrank
        it, so test exactly those.
        """
        candidate = self._branch_of.get(found.lastindex)
        if candidate is None:  # defensive: resolve by wrapper group scan
            for gid, k in self._branch_of.items():
                if found.group(gid) is not None:
                    candidate = k
                    break
            else:  # pragma: no cover - a branch always owns the match
                return self._scan_index(text)
        ordered = self._ordered
        for k in range(candidate):
            if ordered[k][0].search(text):
                return k
        return candidate

    def _scan_index(self, text: str) -> Optional[int]:
        """Fallback: historical prefilter + ordered scan."""
        if self.prefilter is None or self.prefilter.search(text) is None:
            return None
        for k, (pattern, _cat) in enumerate(self._ordered):
            if pattern.search(text):
                return k
        return None

    def match_text(self, text: str) -> Optional[CategoryDef]:
        """The first rule matching ``text``, or ``None``."""
        index = self.match_index(text)
        if index is None:
            return None
        return self.categories[index]

    def match_texts(self, texts: Sequence[str]) -> List[Tuple[int, CategoryDef]]:
        """``(position, category)`` for every matching text, in order.

        The strict batch form: a non-string element raises exactly as the
        per-record path would (``re`` rejects it), at the same position —
        everything before it has already been resolved.
        """
        hits: List[Tuple[int, CategoryDef]] = []
        match_index = self.match_index
        categories = self.categories
        dispatch = self.dispatch
        gate = self.literal_gate
        if dispatch is not None and gate is None:
            # Common shape (no literal gate): inline the reject test so
            # the ~no-alert majority costs one C call per text.
            search = dispatch.search
            resolve = self._resolve
            for i, text in enumerate(texts):
                found = search(text)
                if found is not None:
                    hits.append((i, categories[resolve(found, text)]))
            return hits
        for i, text in enumerate(texts):
            index = match_index(text)
            if index is not None:
                hits.append((i, categories[index]))
        return hits


#: Per-process compiled cache for the *registered* system rulesets (the
#: only ones that cross process boundaries via RulesetHandle).  Ad-hoc
#: rulesets compile fresh per Tagger, as they always have.
_COMPILED_CACHE: Dict[str, CompiledRuleset] = {}


def compiled_ruleset(ruleset: Ruleset) -> CompiledRuleset:
    """The :class:`CompiledRuleset` for ``ruleset``, cached per process
    when the ruleset is a registered system ruleset."""
    from . import RULESETS

    cached = _COMPILED_CACHE.get(ruleset.system)
    if cached is not None and cached.ruleset is ruleset:
        return cached
    compiled = CompiledRuleset(ruleset)
    if RULESETS.get(ruleset.system) is ruleset:
        _COMPILED_CACHE[ruleset.system] = compiled
    return compiled


__all__ = [
    "CompiledRuleset",
    "compiled_ruleset",
    "required_literal",
    "scoped_pattern",
]
