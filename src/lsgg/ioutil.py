"""The format rules every file shares: data lines, float text, integer
fields, and the bit-exact ``array`` record of saved state."""

import base64

import numpy as np


def data_lines(path):
    """(1-based line number, stripped text) of each line of ``path`` that is
    neither blank nor a ``#`` comment, read as a stream."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if text and not text.startswith("#"):
                yield lineno, text


def pack_floats(arr) -> str:
    """Base64 of the little-endian float64 bytes; round-trips bit-exactly."""
    a = np.ascontiguousarray(arr, dtype="<f8")
    return base64.b64encode(a.tobytes()).decode("ascii")


def parse_int64(tok: str) -> int:
    """An integer field that must fit a signed 64-bit column; ValueError else."""
    v = int(tok)
    if not -2**63 <= v < 2**63:
        raise ValueError(f"{tok} does not fit in 64 bits")
    return v


def format_float(x) -> str:
    """Shortest decimal text that reads back as the same float64."""
    return repr(float(x))


# base64 characters decoded at a time: a multiple of 4, so each run but the
# last decodes on its own, and small, so no full-size copy of the bytes exists
UNPACK_RUN = 1 << 16


def unpack_floats(text: str, shape: tuple) -> np.ndarray:
    """The array of ``pack_floats`` text, decoded a run at a time straight
    into the result; ValueError for text that is not base64 of exactly
    ``prod(shape)`` float64 values."""
    out = np.empty(int(np.prod(shape)), dtype="<f8")
    dest, size = out.view(np.uint8), 0
    for start in range(0, len(text), UNPACK_RUN):
        run = text[start:start + UNPACK_RUN]
        try:
            if "=" in run and start + UNPACK_RUN < len(text):  # a whole decode refuses it
                raise ValueError("padding before the end of the payload")
            raw = base64.b64decode(run, validate=True)
        except ValueError as exc:
            raise ValueError(f"bad base64 array payload: {exc}") from None
        if size + len(raw) <= dest.size:
            dest[size:size + len(raw)] = np.frombuffer(raw, dtype=np.uint8)
        size += len(raw)
    if size != dest.size:
        raise ValueError(f"array payload has {size} bytes, expected {dest.size}")
    return out.reshape(shape).astype(np.float64, copy=False)


# float64 values packed at a time: a multiple of 3, so each slice's base64 is
# whole quanta and the slices concatenate to the text of the whole array
WRITE_SLICE = 3 << 12


def write_array(fh, name: str, arr) -> None:
    """Write the line ``array <name> <shape> <base64>`` that ``read_array`` reads
    back bit-exactly: comma-separated sizes, then float64 values
    (``pack_floats``), packed a slice at a time so no full-size copy of the
    text exists; an empty array's line ends at its shape. Integers must lie
    below 2**53 in magnitude, where float64 holds them exactly.
    A 0-d array has no shape to write (store a scalar with shape ``(1,)``)."""
    if np.ndim(arr) == 0:
        raise ValueError(f"array {name!r} is 0-d; write it with shape (1,)")
    if np.asarray(arr).dtype.kind in "iu" and np.size(arr) and not (
            -2**53 < np.min(arr) and np.max(arr) < 2**53):  # np.abs wraps at -2**63
        raise ValueError(f"array {name!r} holds an integer of magnitude 2**53 or more")
    shape = ",".join(str(n) for n in np.shape(arr))
    flat = np.ravel(arr)
    fh.write(f"array {name} {shape}" + (" " if flat.size else ""))
    for start in range(0, flat.size, WRITE_SLICE):
        fh.write(pack_floats(flat[start:start + WRITE_SLICE]))
    fh.write("\n")


def put_once(records: dict, key, value, lineno: int) -> None:
    """``records[key] = value``; ValueError naming line ``lineno`` for a repeated key."""
    if key in records:
        raise ValueError(f"line {lineno}: repeated record {key!r}")
    records[key] = value


def read_array(arrays: dict, lineno: int, fields: str) -> str:
    """Read the fields after ``array`` of line ``lineno``'s record into ``arrays``
    and return its name; ValueError naming the line for a repeated name or a
    bad shape or payload."""
    try:
        name, shape_text, *payload = fields.split()
        shape = tuple(int(n) for n in shape_text.split(","))
        if min(shape) < 0 or len(payload) > 1:
            raise ValueError(f"bad shape {shape_text!r} or extra fields")
        arr = unpack_floats("".join(payload), shape)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: malformed array record: {exc}") from None
    put_once(arrays, name, arr, lineno)
    return name


def exact_ints(arr: np.ndarray) -> np.ndarray:
    """int64 copy of a float64 array of integers below 2**53 in magnitude,
    the ones an ``array`` record holds exactly; ValueError for any other."""
    if not (np.all(np.abs(arr) < 2**53) and np.array_equal(arr, np.trunc(arr))):
        raise ValueError("integer field holds a value that is not an integer below 2**53")
    return arr.astype(np.int64)
