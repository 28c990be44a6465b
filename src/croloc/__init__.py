"""croloc: cross-lingual IR-based bug localization.

Loads a source tree whose comments and string literals may be Japanese,
unifies everything into English through pluggable translation, indexes with
tf-idf, ranks files against bug reports, and evaluates the rankings against
relevance judgments.

The Python API is imported from its modules: ``croloc.corpus``,
``croloc.extract``, ``croloc.translate``, ``croloc.index``, ``croloc.rank``
and ``croloc.evalharness``.
"""

__version__ = "0.1.0"

# The scoring techniques of ``croloc.rank`` and the evaluation modes of
# ``croloc.evalharness``, named here so that building the command line parser
# loads neither module.
TECHNIQUES = ("vsm", "rvsm", "buglocator")
MODES = ("direct", "direct+indirect")
