from .cli import entry

# entry, not main: it spares the process the collections at shutdown
raise SystemExit(entry())
