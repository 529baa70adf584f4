"""One benchmark child: verify one set of generated inputs, then exit.

    python3 child.py MARKS.json TRACE manifest MANIFEST
    python3 child.py MARKS.json TRACE smooth PERMFILE ARGS...
    python3 child.py MARKS.json TRACE cli ARGS...

`manifest` drives cli.RunManifest, Context and run_checks the way
`circlesys run` does, printing the report; `smooth` runs
`circlesys smooth realize ARGS --perm <PERMFILE contents>`; `cli` runs
`circlesys ARGS` unchanged.  The exit code is the program's.  MARKS.json
receives the CLOCK_MONOTONIC time at which the inputs were built
(`setup_done`) and, when TRACE is 1, the span summary.  The parent puts
the checkout's `src` on PYTHONPATH.
"""

import json
import sys
import time


def main(argv):
    out, traced, mode, args = argv[0], argv[1] == "1", argv[2], argv[3:]

    from circlesys import cli
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    if mode == "manifest":
        manifest = cli.RunManifest(args[0])
        ctx = manifest.context()
        # build the lazy construction sequence and processes now, so
        # that set-up ends before the first check
        if manifest.preword_paths:
            ctx.cs
        if manifest.hword_paths:
            ctx.procs
        setup_done = time.monotonic()
        checks = manifest.checks or manifest.default_checks()
        lines, ok = cli.run_checks(ctx, checks, jobs=manifest.jobs)
        sys.stdout.write("\n".join(lines) + "\n")
        code = 0 if ok else 1
    elif mode == "smooth":
        with open(args[0]) as fh:
            perm = fh.read().strip()
        setup_done = time.monotonic()
        code = cli.main(["smooth", "realize"] + args[1:] + ["--perm", perm])
    else:
        setup_done = time.monotonic()
        code = cli.main(args)

    marks = {"setup_done": setup_done}
    if tracer is not None:
        marks["trace"] = tracer.summary()
    with open(out, "w") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
