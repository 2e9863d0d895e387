"""Run one ``cdtube`` command with the layer hooks installed.

Usage: python cli_shim.py SPANS_PATH ARG...

Behaves like ``python -m cdtube ARG...`` (same output and exit code) and
writes the process's spans, and the hook targets it could not find, to
SPANS_PATH as JSON.
"""

import sys

import layertrace


def main():
    spans_path, args = sys.argv[1], sys.argv[2:]
    import cdtube.cli

    tracer = layertrace.Tracer()
    hooks = layertrace.Installed(tracer)
    code = 0
    try:
        cdtube.cli.main(args=args, prog_name="cdtube")
    except SystemExit as exc:
        code = exc.code
    finally:
        hooks.remove()
        layertrace.write_spans(spans_path, tracer.spans, hooks)
    sys.exit(code)


if __name__ == "__main__":
    main()
