"""Codec for q-ary arrays that corrects one row plus one column deletion.

The package is layered bottom-up:

  * vt_core -- the differential VT code DVT_0: the diff transform, the
    syndrome, membership, and the single-deletion decoder for words with
    no two equal adjacent symbols.
  * rll_suffix -- the run-length-limited codes RLL_DVT_0 with a fixed
    suffix, whose single deletions can be located exactly; encoder,
    decoder and data recovery.
  * crisscross -- the n x n array code built from a protected first row,
    a protected last column and parity conditions; encode, corrupt,
    decode and recover operations.
  * fileio / analysis / selftest / cli -- the JSON file format,
    redundancy and code-size analysis, the property suite and the
    command line front end.

Importing the package loads the codec alone (vt_core, rll_suffix,
crisscross and errors), and neither inspect nor the data class module:
its records are NamedTuples.  Import the other modules by name, e.g.
``from crisscodec import analysis``.  No module, the cli included,
needs numpy or any other runtime dependency.
"""

from .crisscross import CodeParams, MessageLengths
from .errors import CodecError, DecodingError, EncodingError
from .rll_suffix import RllSuffixParams

__version__ = "0.1.0"

__all__ = [
    "CodecError",
    "CodeParams",
    "DecodingError",
    "EncodingError",
    "MessageLengths",
    "RllSuffixParams",
]
