"""Codec for q-ary arrays that corrects one row plus one column deletion.

The package is layered bottom-up:

  * vt_core -- differential VT sequence codes: the diff transform, the
    syndrome, membership, and the single-deletion decoder for words with
    no two equal adjacent symbols.
  * rll_suffix -- run-length-limited VT codes with a fixed suffix, whose
    single deletions can be located exactly; encoder and data recovery.
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
from .errors import (
    AmbiguousCodewordError,
    CodecError,
    DecodingError,
    EncodingError,
    NoCandidateError,
    NotDecodableError,
)
from .rll_suffix import RllSuffixParams
from .vt_core import DvtParams

__version__ = "0.1.0"

__all__ = [
    "AmbiguousCodewordError",
    "CodecError",
    "CodeParams",
    "DecodingError",
    "DvtParams",
    "EncodingError",
    "MessageLengths",
    "NoCandidateError",
    "NotDecodableError",
    "RllSuffixParams",
]
