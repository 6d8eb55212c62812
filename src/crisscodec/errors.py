"""Exception types shared across the codec."""


class CodecError(Exception):
    """Base class for all codec-specific failures."""


class DecodingError(CodecError):
    """A received word could not be decoded back to a codeword."""


class EncodingError(CodecError):
    """The encoder cannot encode at these parameters, or never writes this codeword.

    Raised by crisscross.message_lengths where rll_suffix.encodable
    cannot certify that every syndrome residue fits the power positions
    of the protected row and column, by rll_suffix.encode when the
    residue of one call overflows them or its output fails the membership
    check, by crisscross.encode when its output fails the codeword
    check, and by rll_suffix.recover_data for a codeword that the 1-D
    encoder never writes.
    """
