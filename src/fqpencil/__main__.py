"""``python -m fqpencil``: the fqpencil command line."""

from .cli import main

raise SystemExit(main())
