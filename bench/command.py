"""Run one absieve CLI command in this fresh interpreter and record its timings.

Usage: ``python command.py SPEC.json``, where the spec holds ``args`` (the
argument list for ``absieve.cli.main``), ``trace`` (wrap the public
functions and dump spans) and ``result`` (where to write the record). The
record holds the exit code, the command's wall time and set-up time (both
measured from before ``import absieve.cli``), and the process's peak RSS.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _peak_rss_kb() -> int:
    """This process's own peak resident set.

    ``ru_maxrss`` would do, except that it carries the spawning process's
    peak across fork and exec; ``VmHWM`` belongs to this process's memory
    map alone.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()

    import absieve.cli
    import click
    from absieve import llm

    if tracer is not None:
        tracer.install()

    # Set-up ends at the first call into a backend's ``complete``.
    first_call: list[float] = []
    for backend in (llm.HttpBackend, llm.MockBackend):
        original = backend.complete

        def complete(self, request, _original=original):
            if not first_call:
                first_call.append(time.perf_counter())
            return _original(self, request)

        backend.complete = complete

    try:
        absieve.cli.main(spec["args"], standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        exc.show()
        code = exc.exit_code
    ended = time.perf_counter()

    record = {
        "exit_code": code,
        "wall_s": ended - _STARTED,
        "setup_s": first_call[0] - _STARTED if first_call else None,
        "max_rss_kb": _peak_rss_kb(),
    }
    if tracer is not None:
        record["spans"] = spec["result"] + ".spans.json"
        tracer.dump(record["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
