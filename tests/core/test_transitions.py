"""Unit tests for the TwigM transition functions (push / bookkeep / pop)."""

from __future__ import annotations

from repro.core.builder import build_machine
from repro.core.results import ResultCollector
from repro.core.statistics import EngineStatistics
from repro.core.transitions import (
    process_characters,
    process_end_element,
    process_start_element,
)
from repro.xmlstream.events import Characters, EndElement, StartElement


class Driver:
    """Small helper that drives a machine with hand-built events."""

    def __init__(self, query):
        self.machine = build_machine(query)
        self.statistics = EngineStatistics()
        self.collector = ResultCollector()
        self._order = 0
        self._position = 0
        self._level = 0
        self._open = []

    def start(self, tag, **attributes):
        self._level += 1
        event = StartElement(
            position=self._position,
            name=tag,
            level=self._level,
            attributes=tuple(attributes.items()),
        )
        self._position += 1
        self._open.append(tag)
        process_start_element(
            self.machine,
            event.name,
            event.level,
            event.attributes,
            event.line,
            self._order,
            self.statistics,
        )
        self._order += 1
        return event

    def text(self, content):
        event = Characters(position=self._position, text=content, level=self._level)
        self._position += 1
        process_characters(self.machine, event.text, event.level)

    def end(self):
        tag = self._open.pop()
        event = EndElement(position=self._position, name=tag, level=self._level)
        self._position += 1
        emitted = process_end_element(
            self.machine, event.name, event.level, self.statistics, self.collector
        )
        self._level -= 1
        return emitted

    def node(self, label):
        return next(node for node in self.machine.nodes if node.label == label)


class TestStartElementTransitions:
    def test_descendant_root_pushes_at_any_level(self):
        driver = Driver("//b")
        driver.start("a")
        driver.start("b")
        assert len(driver.node("b").stack) == 1
        assert driver.node("b").stack.top.level == 2

    def test_child_root_only_pushes_document_element(self):
        driver = Driver("/b")
        driver.start("a")
        driver.start("b")
        assert len(driver.node("b").stack) == 0

    def test_child_axis_requires_parent_on_top(self):
        driver = Driver("//a/b")
        driver.start("a")
        driver.start("x")
        driver.start("b")  # parent of b is x, not a
        assert len(driver.node("b").stack) == 0

    def test_child_axis_pushes_when_parent_matches(self):
        driver = Driver("//a/b")
        driver.start("a")
        driver.start("b")
        assert len(driver.node("b").stack) == 1

    def test_descendant_axis_requires_proper_ancestor(self):
        driver = Driver("//a//a")
        driver.start("a")
        # The same element must not satisfy its own descendant edge.
        assert len(driver.node("a").stack) == 1  # machine root 'a'
        inner = driver.machine.nodes[1]
        assert inner.label == "a"
        assert len(inner.stack) == 0
        driver.start("a")
        assert len(inner.stack) == 1

    def test_same_element_can_sit_on_multiple_stacks(self):
        driver = Driver("//a//a")
        driver.start("a")
        driver.start("a")
        total = sum(len(node.stack) for node in driver.machine.nodes)
        assert total == 3  # outer on root, inner on both root and child

    def test_attribute_predicate_resolved_at_push(self):
        driver = Driver("//a[@id]")
        driver.start("a", id="7")
        entry = driver.node("a").stack.top
        assert entry.satisfied
        driver2 = Driver("//a[@id]")
        driver2.start("a")
        assert not driver2.node("a").stack.top.satisfied

    def test_attribute_output_candidate_created_at_push(self):
        driver = Driver("//a/@id")
        driver.start("a", id="7")
        entry = driver.node("a").stack.top
        assert entry.candidate_count == 1
        assert list(entry.candidates.values())[0].value == "7"

    def test_wildcard_pushes_for_every_tag(self):
        driver = Driver("//*")
        driver.start("anything")
        driver.start("other")
        assert len(driver.node("*").stack) == 2


class TestEndElementTransitions:
    def test_pop_only_at_matching_level(self):
        driver = Driver("//a")
        driver.start("a")
        driver.start("a")
        driver.end()
        assert len(driver.node("a").stack) == 1
        assert driver.node("a").stack.top.level == 1

    def test_predicate_flag_propagates_to_ancestor_entries(self):
        driver = Driver("//a[.//b]")
        driver.start("a")
        driver.start("a")
        driver.start("b")
        driver.end()  # close b → both open 'a' entries gain the flag (descendant axis)
        stack = driver.node("a").stack
        assert len(stack.entries) == 2
        assert all(entry.satisfied for entry in stack.entries)

    def test_child_axis_flag_only_reaches_direct_parent(self):
        driver = Driver("//a[b]")
        # Query predicate uses the child axis: only the immediate parent
        # 'a' entry may be satisfied by closing b.
        driver.start("a")          # level 1
        driver.start("a")          # level 2
        driver.start("b")          # level 3, child of the level-2 a
        driver.end()               # </b>
        entries = driver.node("a").stack.entries
        assert not entries[0].satisfied   # level-1 entry: b is not its child
        assert entries[1].satisfied       # level-2 entry: direct parent

    def test_failed_predicate_discards_candidates(self):
        driver = Driver("//a[flag]//c")
        driver.start("a")
        driver.start("c")
        emitted = driver.end()    # </c> — candidate propagates to the open a entry
        assert emitted == []
        emitted = driver.end()    # </a> — no flag was ever seen, candidate dies
        assert emitted == []
        assert len(driver.collector) == 0

    def test_candidates_emitted_when_root_satisfied(self):
        driver = Driver("//a[flag]//c")
        driver.start("a")
        driver.start("c")
        driver.end()              # </c>
        driver.start("flag")
        driver.end()              # </flag>
        emitted = driver.end()    # </a> — flag satisfied, candidate emitted
        assert len(emitted) == 1
        assert emitted[0].node.tag == "c"

    def test_value_test_checked_at_pop(self):
        driver = Driver("//a[b='yes']")
        driver.start("a")
        driver.start("b")
        driver.text("no")
        driver.end()
        emitted = driver.end()
        assert emitted == []

        driver = Driver("//a[b='yes']")
        driver.start("a")
        driver.start("b")
        driver.text("yes")
        driver.end()
        emitted = driver.end()
        assert len(emitted) == 1

    def test_text_output_candidate(self):
        driver = Driver("//a/text()")
        driver.start("a")
        driver.text("hello ")
        driver.start("b")
        driver.text("nested")
        driver.end()
        driver.text("world")
        emitted = driver.end()
        assert len(emitted) == 1
        # Only the direct text of <a> is the text() result, not <b>'s.
        assert emitted[0].value == "hello world"


class TestCharactersTransitions:
    def test_text_ignored_without_collecting_nodes(self):
        driver = Driver("//a")
        driver.start("a")
        driver.text("irrelevant")
        entry = driver.node("a").stack.top
        assert entry.string_parts is None

    def test_string_value_includes_descendant_text(self):
        driver = Driver("//a[.='xy']")
        driver.start("a")
        driver.text("x")
        driver.start("b")
        driver.text("y")
        driver.end()
        emitted = driver.end()
        assert len(emitted) == 1

    def test_statistics_counters(self):
        driver = Driver("//a[b]")
        driver.start("a")
        driver.start("b")
        driver.end()
        driver.end()
        stats = driver.statistics
        assert stats.pushes == 2
        assert stats.pops == 2
        assert stats.flags_set == 1
        assert stats.live_entries == 0
