"""The router benchmark harness (see ``bench/README.md``).

Everything here observes the program from outside: it generates seeded
inputs, drives the public API, checks outputs against the reference
interpreter and reports named metrics.  Nothing under ``src/`` imports
it, and it imports nothing from ``benchmarks/`` or ``repro.tune``."""
