"""testtrim: stuck-at fault diagnosis corpora and learned test-termination policies."""

__version__ = "0.1.0"
