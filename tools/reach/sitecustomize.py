"""Call recorder of the reach probe (see ``reach.py``).

Python imports this module at start-up when ``tools/reach`` is on
``PYTHONPATH``, which ``reach.py run`` arranges, so every interpreter a
gate starts records too: pytest, ``python -m repro serve`` children,
example scripts.  While ``out/ACTIVE`` names a directory, each process
appends the ``(file, first line)`` of every code object under
``src/repro`` it calls, the first time it calls it, to its own file
there.  Without ``out/ACTIVE`` it records nothing.

Only call events are traced (the trace function returns ``None``, so
no line events), in every thread.  A process killed with SIGKILL keeps
what it had written: each pair is written when it is first seen.
"""

import os
import sys
import threading

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src",
                    "repro") + os.sep


def _start() -> None:
    try:
        with open(os.path.join(_HERE, "out", "ACTIVE"),
                  encoding="utf-8") as handle:
            out_dir = handle.read().strip()
    except OSError:
        return
    path = os.path.join(out_dir, "calls-{}.txt".format(os.getpid()))
    sink = open(path, "a", encoding="utf-8", buffering=1)
    seen = set()

    def tracer(frame, event, _arg):
        code = frame.f_code
        key = (code.co_filename, code.co_firstlineno)
        if key not in seen:
            seen.add(key)
            filename = os.path.realpath(code.co_filename)
            if filename.startswith(_SRC):
                sink.write("{}\t{}\n".format(filename[len(_SRC):],
                                             code.co_firstlineno))
        return None

    sys.settrace(tracer)
    threading.settrace(tracer)


_start()
