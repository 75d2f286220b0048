"""Dashboards: named collections of panels — the single pane of glass."""

from __future__ import annotations

from typing import Protocol

from repro.common.errors import NotFoundError, ValidationError


class Panel(Protocol):
    title: str

    def render(self, start_ns: int, end_ns: int, step_ns: int) -> str: ...


class Dashboard:
    """One dashboard: ordered panels rendered over a shared time window."""

    def __init__(self, name: str, uid: str | None = None) -> None:
        if not name:
            raise ValidationError("dashboard needs a name")
        self.name = name
        self.uid = uid or name.lower().replace(" ", "-")
        self._panels: list[Panel] = []

    def add_panel(self, panel: Panel) -> None:
        if any(p.title == panel.title for p in self._panels):
            raise ValidationError(f"duplicate panel title: {panel.title}")
        self._panels.append(panel)

    def add_rows(self, datasource, rows) -> "Dashboard":
        """Add one panel per ``(panel type, title, query[, options])`` row,
        all over ``datasource`` (a query engine); returns the dashboard so
        a whole board reads as one table."""
        for panel_type, title, query, *options in rows:
            self.add_panel(
                panel_type(title=title, datasource=datasource, query=query, **dict(*options))
            )
        return self

    def panels(self) -> list[Panel]:
        return list(self._panels)

    def panel(self, title: str) -> Panel:
        for p in self._panels:
            if p.title == title:
                return p
        raise NotFoundError(f"no panel titled {title!r}")

    def render(self, start_ns: int, end_ns: int, step_ns: int) -> str:
        """Render every panel over ``[start, end]`` with ``step`` sampling."""
        if end_ns <= start_ns:
            raise ValidationError("dashboard window must be non-empty")
        header = f"═══ {self.name} ═══"
        body = [
            panel.render(start_ns, end_ns, step_ns) for panel in self._panels
        ]
        return "\n\n".join([header, *body])

    def url(self, base: str = "https://grafana.local") -> str:
        """The deep link Slack messages embed (future-work enrichment)."""
        return f"{base}/d/{self.uid}"
