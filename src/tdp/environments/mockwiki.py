"""Deterministic lookup-encyclopedia mock: search pages, scan sentences, answer."""

from __future__ import annotations

import re
from typing import Any

from .base import BRACKET_CALL_RE, Command, Environment, FixtureError, StepResult, TaskInstance

_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])\s+")


def _normalize(text: str) -> str:
    return text.strip().casefold()


class MockWiki(Environment):
    name = "mockwiki"

    @staticmethod
    def validate_instance(instance: TaskInstance) -> None:
        articles = instance.payload.get("articles")
        if not isinstance(articles, dict) or not articles:
            raise FixtureError(f"fixture {instance.id}: payload.articles must be a nonempty map")
        for title, text in articles.items():
            if not str(title).strip() or not str(text).strip():
                raise FixtureError(f"fixture {instance.id}: empty article title or body")
        gold_answer = instance.gold.get("answer")
        if gold_answer is not None:
            haystack = " ".join(str(t) for t in articles.values()).casefold()
            if str(gold_answer).casefold() not in haystack:
                raise FixtureError(
                    f"fixture {instance.id}: gold answer {gold_answer!r} "
                    "does not occur in any article"
                )

    def _start(self, instance: TaskInstance) -> str:
        self._articles = {str(k): str(v) for k, v in instance.payload["articles"].items()}
        self._active_page: str | None = None
        self._cursors: dict[str, int] = {}
        self._answer: str | None = None
        return instance.query

    def _metrics(self) -> dict[str, Any]:
        return {"answer": self._answer, "delivered": self._answer is not None}

    # -- action semantics ---------------------------------------------------

    def _search(self, keyword: str) -> str:
        target = _normalize(keyword)
        for title, text in self._articles.items():
            if _normalize(title) == target:
                self._active_page = title
                self._cursors = {}
                first_paragraph = text.split("\n\n")[0].strip()
                return first_paragraph
        similar = [
            title for title in self._articles if target and target in _normalize(title)
        ]
        similar.sort(key=lambda t: (len(t), t))
        if similar:
            return (
                f"Could not find an exact page for '{keyword}'. "
                f"Similar titles: {', '.join(similar[:5])}."
            )
        return f"Could not find '{keyword}'. No similar titles."

    def _lookup(self, keyword: str) -> str:
        if self._active_page is None:
            return "No page is active. Use Search[keyword] first."
        text = self._articles[self._active_page]
        sentences = [s.strip() for s in _SENTENCE_SPLIT_RE.split(text) if s.strip()]
        matches = [s for s in sentences if _normalize(keyword) in s.casefold()]
        if not matches:
            return f"No results for '{keyword}' on the current page."
        cursor = self._cursors.get(_normalize(keyword), 0)
        if cursor >= len(matches):
            return f"No more results for '{keyword}'."
        self._cursors[_normalize(keyword)] = cursor + 1
        return f"(Result {cursor + 1} / {len(matches)}) {matches[cursor]}"

    def _finish(self, answer: str) -> str:
        self._answer = answer
        self._done = True
        return f"Final answer recorded: {answer}"

    commands = {
        "Search": Command(
            "Search[keyword] - look a page up by title; an exact match returns its "
            "first paragraph, otherwise similar titles are listed",
            _search,
        ),
        "Lookup": Command(
            "Lookup[keyword] - return the next sentence containing the keyword in "
            "the page found by the last Search",
            _lookup,
        ),
        "Finish": Command("Finish[answer] - submit the final answer and finish the task", _finish),
    }

    def _act(self, action: str) -> StepResult:
        match = BRACKET_CALL_RE.match(action.strip())
        command = self.commands.get(match.group(1)) if match else None
        if command is None:
            valid = ", ".join(c.syntax for c in self.commands.values())
            return StepResult(observation=f"Invalid action. Valid actions: {valid}.")
        return StepResult(observation=command.handler(self, match.group(2)), done=self._done)
