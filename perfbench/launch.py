"""Run one platemem CLI command in this process, as the `platemem` entry point does.

    python3 launch.py MARKS_JSON MODE -- CLI_ARGS...

MODE is `run` (plain), `trace` (spans recorded by tracer.Tracer) or `setup`
(stop once the configuration is parsed, to time set-up alone).  The
monotonic clock readings at interpreter start, after `import platemem.cli`
and once the configuration is parsed are written to MARKS_JSON when the
process ends, with the spans of a traced run.  `platemem` is imported from
PYTHONPATH, which the benchmark points at the checkout's `src`.
"""
import json
import sys
import time

STARTED = time.monotonic()


def main() -> int:
    marks_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("run", "trace", "setup"):
        raise SystemExit(f"usage: {sys.argv[0]} MARKS_JSON run|trace|setup -- CLI_ARGS...")
    marks = {"started": STARTED}
    record: dict = {"marks": marks}

    import platemem.cli as cli
    marks["imported"] = time.monotonic()
    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    load_config = cli.load_config

    def timed_load_config(path):
        cfg = load_config(path)
        marks["config_loaded"] = time.monotonic()
        if mode == "setup":
            raise SystemExit(0)
        return cfg

    cli.load_config = timed_load_config
    try:
        return cli.main(argv)
    finally:
        marks["ended"] = time.monotonic()
        if tracer is not None:
            record["spans"] = tracer.spans
            record["sites"] = tracer.sites
        with open(marks_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
