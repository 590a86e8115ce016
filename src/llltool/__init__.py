"""Exact tooling for variable-setting constraint problems: generators,
table-driven resampling, witness-digraph verification, locality search,
and derandomized solving."""

__version__ = "0.1.0"
