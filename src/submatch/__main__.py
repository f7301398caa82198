"""`python -m submatch`: the same command line as the `submatch` script."""

from .cli import main

raise SystemExit(main())
