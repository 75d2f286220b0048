"""What a feature plane is to the framework (DESIGN §16).

One :class:`Plane` object holds *all* of a plane's wiring.
``MonitoringFramework`` calls the hooks below, in the order of
:mod:`repro.core.planes`, on every plane its config switches on, and
never names one.  A hook gets the framework and reads what the base stack
and earlier planes have built; every default is "nothing to add".
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable

from repro.common.simclock import Job

if TYPE_CHECKING:
    from repro.alerting.alertmanager import Route
    from repro.alerting.receivers import Receiver
    from repro.core.framework import FrameworkConfig, MonitoringFramework


def env_flag(name: str) -> Callable[[], bool]:
    """Default factory for an ``enable_*`` field: each CI ``planes`` leg
    flips the framework default through its ``REPRO_*`` variable, so the
    whole suite runs with that plane switched on, unmodified."""
    return lambda: os.environ.get(name, "") not in ("", "0")


class Plane:
    """One feature plane's wiring.  Stateless: what it builds lives on
    the framework, under the attribute names in :attr:`components`."""

    #: Short name (README table, test ids).
    name: str = ""
    #: The ``FrameworkConfig`` field that switches the plane on.
    flag: str = ""
    #: ``fw.<attr>`` names this plane provides; the framework presets
    #: them to ``None``, so a disabled plane's components read ``None``.
    components: tuple[str, ...] = ()
    #: ``(job, instance, component)`` per exporter vmagent should scrape;
    #: ``component`` names the ``fw.<attr>`` holding the exporter.
    scrape_targets: tuple[tuple[str, str, str], ...] = ()

    def enabled(self, cfg: FrameworkConfig) -> bool:
        return bool(getattr(cfg, self.flag))

    def validate(self, cfg: FrameworkConfig) -> None:
        """This plane's slice of ``FrameworkConfig.validate``."""

    # -- construction phases, in the order the data flow forces ---------
    def build_stores(self, fw: MonitoringFramework) -> None:
        """Before the warehouse exists: ``OmniWarehouse`` takes the log
        backend (``fw.log_backend`` — replace it or wrap it), admission
        and the pattern tee as constructor arguments."""

    def wrap_receivers(
        self, fw: MonitoringFramework, receivers: list[Receiver]
    ) -> list[Receiver]:
        """Just before ``Alertmanager.register_receiver``, which refuses
        a second receiver of the same name: wrap now or never."""
        return receivers

    def build_alerting(self, fw: MonitoringFramework) -> None:
        """After Alertmanager, ``fw.ruler`` and ``fw.vmalert``: whatever
        notifies, evaluates, or reads the finished pipeline (tenancy's
        query frontend and scheduler, over ``fw.queryx`` or ``fw.logql``)."""

    # -- contributions, each made in plane order -------------------------
    def routes(self, fw: MonitoringFramework) -> list[Route]:
        return []

    def install_rules(self, fw: MonitoringFramework) -> None:
        """Add the plane's default alerting rules to whichever evaluator
        runs them; called after the base rules."""

    def dashboards(self, fw: MonitoringFramework) -> list[tuple]:
        """``(key, title, rows)`` per dashboard over the metrics
        datasource; rows as :meth:`Dashboard.add_rows` takes them."""
        return []

    def jobs(self, fw: MonitoringFramework) -> list[Job]:
        """The plane's rows of ``fw.jobs``, in the order they run on a
        shared instant."""
        return []

    def health(self, fw: MonitoringFramework) -> dict[str, float]:
        """The plane's ``health_summary()`` keys."""
        return {}
