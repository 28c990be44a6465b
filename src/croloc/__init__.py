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

# The scoring techniques of ``croloc.rank``, its default history weight and
# number of ranked files kept per query, and the evaluation modes of
# ``croloc.evalharness``, named here so that building the command line parser,
# and checking locate's options, loads neither module.
TECHNIQUES = ("vsm", "rvsm", "buglocator")
DEFAULT_ALPHA = 0.2
DEFAULT_TOP_K = 100
MODES = ("direct", "direct+indirect")
