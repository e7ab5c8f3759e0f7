"""One code path for the CLI's ``[tag] message`` status lines.

``run-looppoint`` historically sprinkled ``print(..., flush=True)`` calls;
this helper gives the ``[cache]``/``[obs]``/``[predicted]``/``[live]``
lines a single format and a single suppression point (``--quiet``), and
routes diagnostics to stderr where they belong.

Stream resolution happens at call time (not construction) so pytest's
capture and callers that rebind ``sys.stdout`` see every line.
"""

from __future__ import annotations

import sys
from typing import Optional, TextIO


class Console:
    """Status/diagnostic line writer for the CLI entry points.

    * :meth:`status` — progress and grep-able metric lines, stdout,
      suppressed by ``quiet``;
    * :meth:`error` — diagnostics, stderr, never suppressed;
    * :meth:`result` — final deliverables (tables), stdout, never
      suppressed.
    """

    def __init__(
        self,
        quiet: bool = False,
        out: Optional[TextIO] = None,
        err: Optional[TextIO] = None,
    ) -> None:
        self.quiet = quiet
        self._out = out
        self._err = err

    @property
    def out(self) -> TextIO:
        return self._out if self._out is not None else sys.stdout

    @property
    def err(self) -> TextIO:
        return self._err if self._err is not None else sys.stderr

    @staticmethod
    def format(tag: str, message: str) -> str:
        return f"[{tag}] {message}"

    def status(self, tag: str, message: str) -> None:
        if not self.quiet:
            print(self.format(tag, message), file=self.out, flush=True)

    def error(self, tag: str, message: str) -> None:
        print(self.format(tag, message), file=self.err, flush=True)

    def result(self, text: str = "") -> None:
        print(text, file=self.out, flush=True)
