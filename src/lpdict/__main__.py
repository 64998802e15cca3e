"""``python -m lpdict ...`` runs the `lpdict` command line."""

from .cli import main

main()
