"""Serve csilab commands, each run in a forked process of its own.

Usage: python3 child.py SRC [--config NAME]

Set-up happens once: interpreter start, ``import csilab`` and the
scenario build.  The server then prints ``ready <CLOCK_MONOTONIC>`` and
reads one JSON request a line from standard input,
``{"argv": [...], "spans": FILE or null}``.  For each request it forks;
the fork installs the tracer when ``spans`` is given, runs
``csilab.cli.main(argv)`` with its output discarded and exits.  The
server answers with one JSON line: the CLOCK_MONOTONIC readings around
the command, its return code and error, and the fork's peak RSS from
``wait4``.  ``ru_maxrss`` is a per-process high-water mark, which is why
every command gets a process of its own; forking from a process that has
already imported csilab leaves interpreter start and imports out of the
command's time without counting them twice.  The server exits at the
end of its input.
"""

import io
import json
import os
import sys
import time
import traceback


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _command(csilab_cli, np, request) -> dict:
    """Body of the fork: run one command and describe how it ended."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, 1)
    sys.stdout = io.StringIO()
    tracer = None
    if request["spans"]:
        from tracer import Tracer

        tracer = Tracer(run_id=os.path.basename(request["spans"]))
        tracer.install(np.fft)
    result = {"t_start": _clock(), "error": None}
    try:
        rc = csilab_cli.main(request["argv"])
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        rc = 1
        result["error"] = traceback.format_exc(limit=4)
    result["t_end"] = _clock()
    result["rc"] = rc
    if tracer is not None:
        tracer.dump(request["spans"])
    return result


def serve(csilab_cli, np) -> None:
    for line in sys.stdin:
        request = json.loads(line)
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_end)
            code = 0
            try:
                result = _command(csilab_cli, np, request)
            except BaseException:
                result, code = {"rc": None, "error": traceback.format_exc(limit=4)}, 1
            with os.fdopen(write_end, "w") as fh:
                json.dump(result, fh)
            os._exit(code)
        os.close(write_end)
        with os.fdopen(read_end) as fh:
            text = fh.read()
        _, status, usage = os.wait4(pid, 0)
        try:
            result = json.loads(text)
        except ValueError:
            result = {"rc": None, "error": f"fork ended with status {status} and no result"}
        result["maxrss_kib"] = usage.ru_maxrss
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()


def main(argv) -> int:
    src = argv[0]
    config = argv[argv.index("--config") + 1] if "--config" in argv else None
    sys.path.insert(0, src)
    import numpy as np

    import csilab
    import csilab.cli

    if not os.path.abspath(csilab.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"csilab imported from {csilab.__file__}, not {src}", file=sys.stderr)
        return 2
    if config:
        csilab.preset(config)
    import tracer  # noqa: F401  (imported here so a traced fork does not pay for it)

    sys.stdout.write(f"ready {_clock()!r}\n")
    sys.stdout.flush()
    serve(csilab.cli, np)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
