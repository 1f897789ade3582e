"""Run one ensembleseed CLI command in this fresh interpreter.

    python3 child.py [--spans FILE] <subcommand> [flags...]

With ``--spans`` the import of ``ensembleseed.cli`` and every layer listed in
``tracer.LAYERS`` are recorded as spans and written to FILE when the command
ends. Without it the command runs exactly as the installed entry point would.
"""

import sys


def main(argv: list[str]) -> int:
    if argv[:1] != ["--spans"]:
        from ensembleseed.cli import main as cli_main

        return cli_main(argv)

    from tracer import Tracer

    spans_path, argv = argv[1], argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import ensembleseed.cli
    tracer.install()
    try:
        return ensembleseed.cli.main(argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
