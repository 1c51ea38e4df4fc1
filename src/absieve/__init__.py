"""absieve: batch title/abstract screening with an LLM, and its evaluation suite.

Import each name from the module that defines it: ``absieve.runner.run_screening``,
``absieve.corpus.load_dataset``, ``absieve.llm.HttpBackend`` and so on.

Immutable records are NamedTuples: use ``_replace``/``_asdict``, not ``dataclasses.replace``/``asdict``."""

__version__ = "0.1.0"
