"""``run`` with its trace streamed into memory, for tests that read the trace."""

import io

from gathersim.simulator import run


def traced_run(*args, **kwargs):
    """``run`` with an ``io.StringIO`` sink: the outcome and the trace's lines.

    Also checks that the count ``run`` returns is the number of lines it wrote.
    """
    sink = io.StringIO()
    outcome, written = run(*args, trace=sink, **kwargs)
    text = sink.getvalue()
    lines = text.splitlines()
    assert written == len(lines) and text == "".join(line + "\n" for line in lines)
    return outcome, lines
