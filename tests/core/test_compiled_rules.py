"""Compiled-alternation tagger: differential equivalence with the scan.

The compiled fast path (:mod:`repro.core.rules.compiled`) must be
*invisible*: for every text, the branch-dispatched alternation plus the
bounded ordered re-scan must pick exactly the rule the naive per-rule
ordered loop picks (first-rule-wins, logsurfer semantics).  These tests
pin that equivalence three ways — hypothesis-generated adversarial texts
over all five system rulesets, the frozen golden corpus, and handwritten
rulesets engineered so leftmost-position and first-rule-wins disagree —
plus the scoped inline-flag edge cases from the PR 4 prefilter fix.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.categories import AlertType, CategoryDef, Ruleset
from repro.core.rules import RULESETS
from repro.core.rules.compiled import (
    CompiledRuleset,
    compiled_ruleset,
    required_literal,
    scoped_pattern,
)
from repro.core.tagging import RulesetHandle, Tagger

ALL_SYSTEMS = sorted(RULESETS)


def naive_index(compiled: CompiledRuleset, text: str):
    """The reference semantics: test every rule in order, first wins."""
    for k, (pattern, _cat) in enumerate(compiled._ordered):
        if pattern.search(text):
            return k
    return None


def _categories(*patterns, **common):
    return tuple(
        CategoryDef(
            name=f"R{k}", system="test", alert_type=AlertType.SOFTWARE,
            pattern=pattern, **common,
        )
        for k, pattern in enumerate(patterns)
    )


def _ruleset(*patterns, **common):
    return Ruleset(system="test", categories=_categories(*patterns, **common))


# ---------------------------------------------------------------------------
# The five system rulesets compile in dispatch mode and agree with the
# naive scan on adversarial generated texts.
# ---------------------------------------------------------------------------


class TestSystemRulesets:
    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_dispatch_mode_compiles(self, system):
        """All five shipped rulesets support branch dispatch (no unsafe
        constructs); fallback mode is for ad-hoc rulesets only."""
        compiled = compiled_ruleset(RULESETS[system])
        assert compiled.dispatch is not None
        assert compiled.prefilter is not None
        assert len(compiled._branch_of) == len(compiled.categories)

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_cache_returns_same_object(self, system):
        handle = RulesetHandle(system)
        assert handle.compiled() is handle.compiled()
        assert handle.compiled() is compiled_ruleset(RULESETS[system])

    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_examples_agree_with_naive_scan(self, system):
        compiled = compiled_ruleset(RULESETS[system])
        for cat in compiled.categories:
            if not cat.example:
                continue
            for text in (
                cat.example,
                f"{cat.facility}: {cat.example}" if cat.facility
                else cat.example,
                cat.example.upper(),
                cat.example[: max(4, len(cat.example) // 2)],
                f"prefix noise {cat.example} suffix noise",
            ):
                assert compiled.match_index(text) == \
                    naive_index(compiled, text), (system, cat.name, text)


def _example_fragments():
    fragments = set()
    for ruleset in RULESETS.values():
        for cat in ruleset:
            if cat.example:
                fragments.add(cat.example)
                fragments.update(cat.example.split())
    return sorted(fragments)


FRAGMENTS = _example_fragments()


@st.composite
def adversarial_texts(draw):
    """Concatenations of rule-example fragments, junk, and mutations —
    texts engineered to tickle more than one branch of an alternation."""
    parts = draw(st.lists(
        st.one_of(
            st.sampled_from(FRAGMENTS),
            st.text(max_size=12),
        ),
        min_size=0, max_size=5,
    ))
    text = draw(st.sampled_from([" ", ": ", ""])).join(parts)
    mutation = draw(st.sampled_from(["none", "upper", "lower", "truncate"]))
    if mutation == "upper":
        text = text.upper()
    elif mutation == "lower":
        text = text.lower()
    elif mutation == "truncate" and text:
        text = text[: draw(st.integers(0, len(text)))]
    return text


class TestHypothesisDifferential:
    @settings(max_examples=300, deadline=None)
    @given(text=adversarial_texts(), system=st.sampled_from(ALL_SYSTEMS))
    def test_match_index_equals_naive_scan(self, text, system):
        compiled = compiled_ruleset(RULESETS[system])
        assert compiled.match_index(text) == naive_index(compiled, text)

    @settings(max_examples=100, deadline=None)
    @given(
        texts=st.lists(adversarial_texts(), max_size=12),
        system=st.sampled_from(ALL_SYSTEMS),
    )
    def test_match_texts_equals_per_text(self, texts, system):
        compiled = compiled_ruleset(RULESETS[system])
        expected = []
        for i, text in enumerate(texts):
            k = naive_index(compiled, text)
            if k is not None:
                expected.append((i, compiled.categories[k]))
        assert compiled.match_texts(texts) == expected

    @settings(max_examples=150, deadline=None)
    @given(text=adversarial_texts(), system=st.sampled_from(ALL_SYSTEMS))
    def test_tagger_fast_path_equals_disabled_fast_path(self, text, system):
        """The Tagger-level differential: ``_prefilter = None`` drops to
        the naive ordered scan, the PR 4 reference semantics."""
        fast = Tagger(RULESETS[system])
        slow = Tagger(RULESETS[system])
        slow._prefilter = None
        a = fast.match_text(text)
        b = slow.match_text(text)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.name == b.name


# ---------------------------------------------------------------------------
# First-rule-wins vs leftmost-position: engineered disagreements.
# ---------------------------------------------------------------------------


class TestFirstRuleWins:
    def test_later_rule_matching_earlier_position_loses(self):
        """Dispatch finds the leftmost-position branch; the ordered
        re-scan must still hand the win to the earlier *rule*."""
        compiled = CompiledRuleset(_ruleset(r"tail error", r"head fault"))
        assert compiled.dispatch is not None
        # Rule 1 matches at position 0, rule 0 at position 11 — the
        # leftmost-position candidate is rule 1, the winner is rule 0.
        assert compiled.match_index("head fault tail error") == 0

    def test_overlapping_prefix_rules(self):
        compiled = CompiledRuleset(
            _ruleset(r"disk error on sda", r"disk error")
        )
        assert compiled.match_index("disk error on sda") == 0
        assert compiled.match_index("disk error on sdb") == 1
        assert compiled.match_index("all quiet") is None

    def test_anchored_rule_vs_floating_rule(self):
        compiled = CompiledRuleset(_ruleset(r"^kernel: panic", r"panic"))
        assert compiled.match_index("kernel: panic now") == 0
        assert compiled.match_index("user: panic now") == 1

    @settings(max_examples=200, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(["alpha beta", "beta gamma",
                                        "gamma alpha", "alpha", "beta",
                                        "gamma", "delta"]),
                       min_size=0, max_size=4),
    )
    def test_random_fragment_soups(self, kinds):
        compiled = CompiledRuleset(
            _ruleset(r"alpha beta", r"gamma", r"beta")
        )
        text = " ".join(kinds)
        assert compiled.match_index(text) == naive_index(compiled, text)


# ---------------------------------------------------------------------------
# Scoped inline flags (the PR 4 edge cases) through the compiled path.
# ---------------------------------------------------------------------------


class TestScopedFlags:
    def test_ignorecase_stays_scoped_in_dispatch(self):
        ruleset = Ruleset(system="test", categories=(
            CategoryDef(name="CASED", system="test",
                        alert_type=AlertType.HARDWARE,
                        pattern=r"ECC error"),
            CategoryDef(name="LOOSE", system="test",
                        alert_type=AlertType.SOFTWARE,
                        pattern=r"link failure", flags=re.IGNORECASE),
        ))
        compiled = CompiledRuleset(ruleset)
        assert compiled.dispatch is not None
        assert compiled.match_index("LINK FAILURE on port 3") == 1
        assert compiled.match_index("ecc ERROR") is None
        assert compiled.match_index("ECC error") == 0

    def test_inline_global_flag_prefix_lifts_into_branch(self):
        compiled = CompiledRuleset(_ruleset(r"panic", r"(?i)fatal error"))
        assert compiled.dispatch is not None
        assert compiled.match_index("FATAL ERROR in ciod") == 1
        assert compiled.match_index("PANIC") is None
        assert compiled.match_index("panic") == 0

    def test_case_insensitive_rule_keeps_literal_gate_permissive(self):
        """A ``(?i)`` rule's literal-gate branch must be case-blind, or
        the gate would reject texts the rule matches."""
        compiled = CompiledRuleset(
            _ruleset(r"(?i)fatal error", r"disk fault")
        )
        if compiled.literal_gate is not None:
            assert compiled.match_index("FATAL ERROR") == 0

    def test_scoped_pattern_shapes(self):
        plain = CategoryDef(name="A", system="t",
                            alert_type=AlertType.HARDWARE, pattern=r"x+")
        flagged = CategoryDef(name="B", system="t",
                              alert_type=AlertType.HARDWARE, pattern=r"x+",
                              flags=re.IGNORECASE | re.DOTALL)
        inlined = CategoryDef(name="C", system="t",
                              alert_type=AlertType.HARDWARE,
                              pattern=r"(?im)x+")
        assert scoped_pattern(plain) == "(?:x+)"
        assert scoped_pattern(flagged) == "(?is:x+)"
        assert scoped_pattern(inlined) == "(?im:x+)"


# ---------------------------------------------------------------------------
# Fallback mode: unsafe constructs keep the historical behavior.
# ---------------------------------------------------------------------------


class TestFallbackMode:
    @pytest.mark.parametrize("pattern", [
        r"(?P<name>abc)def",          # named group collides with _cK
        r"(abc) \1",                  # numeric backreference
        r"(?P<g>a)(?P=g)",            # named backreference
        r"(a)(?(1)b|c)",              # conditional
    ])
    def test_unsafe_construct_disables_dispatch(self, pattern):
        compiled = CompiledRuleset(_ruleset(r"plain error", pattern))
        assert compiled.dispatch is None
        assert compiled.prefilter is not None
        assert compiled.match_index("plain error here") == 0

    def test_fallback_agrees_with_naive_scan(self):
        compiled = CompiledRuleset(
            _ruleset(r"(abc) \1 tail", r"abc")
        )
        assert compiled.dispatch is None
        for text in ["abc abc tail", "abc", "nothing", "xabcx"]:
            assert compiled.match_index(text) == naive_index(compiled, text)

    def test_empty_ruleset(self):
        compiled = CompiledRuleset(Ruleset(system="test", categories=()))
        assert compiled.match_index("anything") is None
        assert compiled.match_texts(["a", "b"]) == []


class TestMatchTextsBranches:
    """``match_texts`` has a literal-gated loop and a no-gate loop that
    resolves each dispatch hit from its match object; both must agree
    with the per-text path and raise on a non-string where it would."""

    NO_GATE = _ruleset(r"(?:ab|cd)+e", r"(x|y)z", r"ab")

    @pytest.mark.parametrize("system", [None] + ALL_SYSTEMS)
    def test_non_string_raises_at_its_position(self, system):
        ruleset = self.NO_GATE if system is None else RULESETS[system]
        compiled = compiled_ruleset(ruleset)
        assert (compiled.literal_gate is None) == (system is None)
        hit = "abe" if system is None else next(
            cat.example for cat in compiled.categories if cat.example
        )
        texts = ["chaff", hit, "zz", None, hit]
        consumed = []

        def stream():
            for text in texts:
                consumed.append(text)
                yield text

        with pytest.raises(TypeError):
            compiled.match_index(None)
        with pytest.raises(TypeError):
            compiled.match_texts(stream())
        assert len(consumed) == 4
        assert compiled.match_texts(texts[:3]) == [
            (i, compiled.categories[k])
            for i, k in enumerate(map(compiled.match_index, texts[:3]))
            if k is not None
        ]

    @settings(max_examples=100, deadline=None)
    @given(texts=st.lists(st.text(alphabet="abcdexyz ", max_size=12), max_size=8))
    def test_no_gate_branch_equals_naive_scan(self, texts):
        compiled = compiled_ruleset(self.NO_GATE)
        expected = []
        for i, text in enumerate(texts):
            k = naive_index(compiled, text)
            if k is not None:
                expected.append((i, compiled.categories[k]))
        assert compiled.match_texts(texts) == expected


# ---------------------------------------------------------------------------
# required_literal units.
# ---------------------------------------------------------------------------


class TestRequiredLiteral:
    def test_plain_literal(self):
        assert required_literal(r"machine check interrupt") == \
            "machine check interrupt"

    def test_longest_run_wins(self):
        assert required_literal(r"ab.*parity_interrupt") == \
            "parity_interrupt"

    def test_escaped_metacharacters_count_as_literals(self):
        assert required_literal(r"gm_parity\.c") == "gm_parity.c"

    def test_top_level_alternation_has_no_required_literal(self):
        assert required_literal(r"abcdef|ghijkl") is None

    def test_quantified_tail_is_not_required(self):
        # The quantifier detaches its operand from the literal run.
        assert required_literal(r"warning(s)?") == "warning"

    def test_short_literal_rejected(self):
        assert required_literal(r"ab.*cd") is None

    def test_unparsable_pattern_is_none(self):
        assert required_literal(r"(unclosed") is None

    def test_inline_flag_prefix_is_lifted(self):
        assert required_literal(r"(?i)fatal error") == "fatal error"

    def test_literal_is_actually_required(self):
        """Semantic check: every match of the pattern contains the
        extracted literal."""
        cases = [
            (r"data TLB error interrupt", "data TLB error interrupt"),
            (r"\d+ double-hummer exceptions?", " double-hummer exception"),
            (r"NMI: +received", None),  # run broken by quantified space
        ]
        for pattern, expected in cases:
            literal = required_literal(pattern)
            if expected is None:
                continue
            assert literal is not None and len(literal) >= 4, pattern
            compiled = re.compile(pattern)
            probe = "zz 12 double-hummer exceptions zz"
            found = compiled.search(probe)
            if found:
                assert literal in probe
