"""Stand-in decode vocabulary at the canonical module path."""

DECODE_ERRORS = (ValueError,)
