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
  * fileio / analysis / fixtures / selftest / cli -- the JSON file
    format, redundancy and code-size analysis, embedded reference
    fixtures, the property suite and the command line front end.

Importing the package loads only the codec (vt_core, rll_suffix,
crisscross and errors); import the other modules by name, e.g.
``from crisscodec import analysis``.  The package has no runtime
dependency: no module, the cli included, needs numpy.
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
