"""Compact binary encoding for results crossing process boundaries.

The warm worker pool (:mod:`repro.parallel`) moves work-unit results
between processes.
Pickling every result row is what the old dispatch layer did, and on
small units the pickle traffic dominated the dispatch cost. This module
is the replacement: a small msgpack-style tagged binary format for the
payload shapes results actually take — ``None``/bool/int/float/str/
bytes, tuples/lists/dicts of those, and numpy arrays (shipped as raw
dtype+shape+buffer, no pickle machinery) — with an explicit pickle
fallback tag for anything else, so arbitrary objects still round-trip.

The encoding is **not** a persistence format (no version negotiation,
no cross-version guarantees); both ends of a connection always run the
same source tree. It exists to make the hot path cheap and the fallback
explicit.

>>> decode(encode((1, 2.5, "three", None)))
(1, 2.5, 'three', None)
>>> decode(encode({"rows": [(0, 0), (1, 1)]}))
{'rows': [(0, 0), (1, 1)]}
"""

from __future__ import annotations

import io
import pickle
import struct
from typing import Any

#: Single-byte type tags.
_NONE = b"N"
_TRUE = b"T"
_FALSE = b"F"
_INT = b"i"      # fits in a signed 64-bit struct
_BIGINT = b"I"   # arbitrary precision, decimal text
_FLOAT = b"f"
_STR = b"s"
_BYTES = b"b"
_LIST = b"l"
_TUPLE = b"t"
_DICT = b"d"
_ARRAY = b"a"    # numpy ndarray: dtype str, shape, raw buffer
_PICKLE = b"P"   # anything else

_I64_MIN = -(2 ** 63)
_I64_MAX = 2 ** 63 - 1


def _encode_into(obj: Any, out: io.BytesIO) -> None:
    if obj is None:
        out.write(_NONE)
    elif obj is True:
        out.write(_TRUE)
    elif obj is False:
        out.write(_FALSE)
    elif type(obj) is int:
        if _I64_MIN <= obj <= _I64_MAX:
            out.write(_INT)
            out.write(struct.pack("<q", obj))
        else:
            text = str(obj).encode()
            out.write(_BIGINT)
            out.write(struct.pack("<I", len(text)))
            out.write(text)
    elif type(obj) is float:
        out.write(_FLOAT)
        out.write(struct.pack("<d", obj))
    elif type(obj) is str:
        data = obj.encode()
        out.write(_STR)
        out.write(struct.pack("<I", len(data)))
        out.write(data)
    elif type(obj) is bytes:
        out.write(_BYTES)
        out.write(struct.pack("<I", len(obj)))
        out.write(obj)
    elif type(obj) is list or type(obj) is tuple:
        out.write(_LIST if type(obj) is list else _TUPLE)
        out.write(struct.pack("<I", len(obj)))
        for item in obj:
            _encode_into(item, out)
    elif type(obj) is dict:
        out.write(_DICT)
        out.write(struct.pack("<I", len(obj)))
        for key, value in obj.items():
            _encode_into(key, out)
            _encode_into(value, out)
    elif _is_plain_ndarray(obj):
        data = obj.tobytes()
        dtype = obj.dtype.str.encode()
        out.write(_ARRAY)
        out.write(struct.pack("<I", len(dtype)))
        out.write(dtype)
        out.write(struct.pack("<I", len(obj.shape)))
        for dim in obj.shape:
            out.write(struct.pack("<q", dim))
        out.write(struct.pack("<Q", len(data)))
        out.write(data)
    else:
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        out.write(_PICKLE)
        out.write(struct.pack("<Q", len(data)))
        out.write(data)


def _is_plain_ndarray(obj: Any) -> bool:
    import sys

    np = sys.modules.get("numpy")
    if np is None:
        return False
    return type(obj) is np.ndarray and obj.dtype.hasobject is False


def encode(obj: Any) -> bytes:
    """Encode ``obj`` to the compact wire format.

    >>> encode(None)
    b'N'
    >>> len(encode(7)) == 9  # tag + 8-byte little-endian int
    True
    """
    out = io.BytesIO()
    _encode_into(obj, out)
    return out.getvalue()


def _decode_from(buf: memoryview, pos: int):
    tag = bytes(buf[pos:pos + 1])
    pos += 1
    if tag == _NONE:
        return None, pos
    if tag == _TRUE:
        return True, pos
    if tag == _FALSE:
        return False, pos
    if tag == _INT:
        return struct.unpack_from("<q", buf, pos)[0], pos + 8
    if tag == _BIGINT:
        (size,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        return int(bytes(buf[pos:pos + size])), pos + size
    if tag == _FLOAT:
        return struct.unpack_from("<d", buf, pos)[0], pos + 8
    if tag == _STR:
        (size,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        return str(buf[pos:pos + size], "utf-8"), pos + size
    if tag == _BYTES:
        (size,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        return bytes(buf[pos:pos + size]), pos + size
    if tag in (_LIST, _TUPLE):
        (count,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _decode_from(buf, pos)
            items.append(item)
        return (items if tag == _LIST else tuple(items)), pos
    if tag == _DICT:
        (count,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        result = {}
        for _ in range(count):
            key, pos = _decode_from(buf, pos)
            value, pos = _decode_from(buf, pos)
            result[key] = value
        return result, pos
    if tag == _ARRAY:
        import numpy as np

        (dtype_len,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        dtype = str(buf[pos:pos + dtype_len], "ascii")
        pos += dtype_len
        (ndim,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        shape = []
        for _ in range(ndim):
            (dim,) = struct.unpack_from("<q", buf, pos)
            shape.append(dim)
            pos += 8
        (size,) = struct.unpack_from("<Q", buf, pos)
        pos += 8
        array = np.frombuffer(
            bytes(buf[pos:pos + size]), dtype=np.dtype(dtype)
        ).reshape(shape)
        return array.copy(), pos + size
    if tag == _PICKLE:
        (size,) = struct.unpack_from("<Q", buf, pos)
        pos += 8
        return pickle.loads(bytes(buf[pos:pos + size])), pos + size
    raise ValueError(f"corrupt wire payload: unknown tag {tag!r}")


def decode(payload: bytes) -> Any:
    """Decode a payload produced by :func:`encode`.

    >>> decode(encode([1, [2, (3,)], {"k": b"v"}]))
    [1, [2, (3,)], {'k': b'v'}]
    """
    value, pos = _decode_from(memoryview(payload), 0)
    if pos != len(payload):
        raise ValueError(
            f"corrupt wire payload: {len(payload) - pos} trailing byte(s)"
        )
    return value
