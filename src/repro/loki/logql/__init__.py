"""LogQL: Grafana Loki's PromQL-inspired query language.

Implemented subset (everything the paper's queries use, plus the common
neighbours):

* stream selectors — ``{cluster="perlmutter", data_type=~"redfish.*"}``
* line filters — ``|= "needle"``, ``!= "needle"``, ``|~ "regex"``, ``!~ "regex"``
* parser stages — ``| json``, ``| logfmt``,
  ``| pattern "[<severity>] problem:<problem>, xname:<xname>, state:<state>"``
* label filters after a parser — ``| severity="Warning"``, ``| value > 10``
* ``| line_format``, ``| label_format dst=src``, ``| unwrap <label>``
* range aggregations — ``count_over_time``, ``rate``, ``bytes_over_time``,
  ``bytes_rate`` over ``[5m]``-style windows, and over an unwrapped label
  ``sum/avg/min/max_over_time``

A range aggregation is the one leaf of a metric query.  Everything above
it — ``sum/min/max/avg/count`` with ``by``/``without``, arithmetic and
comparisons against a scalar (``> 0`` filters, as in the Ruler rules) or
between two vectors (the error ratio ``errors / total``), ``and``/``or``/
``unless``, ``topk``/``bottomk``, operator precedence — is the vector
language shared with PromQL: :mod:`repro.common.vectorlang`, evaluated by
:class:`repro.common.vector.Evaluation`.

Entry points: :func:`parse` and :class:`LogQLEngine`.
"""

from repro.loki.logql.parser import parse
from repro.loki.logql.engine import LogQLEngine

__all__ = ["parse", "LogQLEngine"]
