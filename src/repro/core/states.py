"""State alphabets for the paper's processes.

All engines store per-vertex states in compact numpy ``int8`` arrays; the
constants here fix the encodings shared between the vectorized engines,
the pure-python references, and the communication-model simulations.

Encodings
---------
2-state process (Definition 4): boolean array, ``True`` = black.

3-state process (Definition 5): ``WHITE = 0``, ``BLACK0 = 1``,
``BLACK1 = 2``.  A vertex is *black* when its state is BLACK0 or BLACK1.

3-color process (Definition 28): ``WHITE = 0``, ``GRAY = 1``,
``BLACK = 2``.  The gray state is treated by neighbours like non-active
white.

Randomized logarithmic switch (Definition 26): levels ``0..5`` stored in
``int8``; the on/off mapping is ``on ⇔ level <= 2``.

Bit-plane codec
---------------
:func:`pack_state` / :func:`unpack_state` bit-pack any of these vectors
into ``k`` planes of one bit per vertex: the churn service's snapshot
blobs and the fleet's :class:`~repro.core.replica.ReplicaState` records
share it.
"""

from __future__ import annotations

from typing import Any

import numpy as np

# --- 3-color process (and generic color names) ---
WHITE: int = 0
GRAY: int = 1
BLACK: int = 2

# --- 3-state process ---
# WHITE shares the value 0; the two black sub-states:
BLACK0: int = 1
BLACK1: int = 2

TWO_STATE_NAMES: dict[bool, str] = {False: "white", True: "black"}
THREE_STATE_NAMES: dict[int, str] = {
    WHITE: "white",
    BLACK0: "black0",
    BLACK1: "black1",
}
THREE_COLOR_NAMES: dict[int, str] = {
    WHITE: "white",
    GRAY: "gray",
    BLACK: "black",
}

# --- logarithmic switch ---
SWITCH_LEVELS: int = 6  # levels 0..5
SWITCH_ON_MAX_LEVEL: int = 2  # on ⇔ level <= 2


def validate_two_state(states: np.ndarray, n: int) -> np.ndarray:
    """Validate/coerce a 2-state vector (boolean, length n)."""
    arr = np.asarray(states)
    if arr.shape != (n,):
        raise ValueError(f"state vector must have shape ({n},), got {arr.shape}")
    if arr.dtype != bool:
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("2-state vector entries must be 0/1 or bool")
        arr = arr.astype(bool)
    return arr.copy()

def validate_three_state(states: np.ndarray, n: int) -> np.ndarray:
    """Validate/coerce a 3-state vector (int8 in {WHITE, BLACK0, BLACK1})."""
    arr = np.asarray(states)
    if arr.shape != (n,):
        raise ValueError(f"state vector must have shape ({n},), got {arr.shape}")
    if not np.isin(arr, (WHITE, BLACK0, BLACK1)).all():
        raise ValueError("3-state entries must be in {0, 1, 2}")
    return arr.astype(np.int8)


def validate_three_color(states: np.ndarray, n: int) -> np.ndarray:
    """Validate/coerce a 3-color vector (int8 in {WHITE, GRAY, BLACK})."""
    arr = np.asarray(states)
    if arr.shape != (n,):
        raise ValueError(f"state vector must have shape ({n},), got {arr.shape}")
    if not np.isin(arr, (WHITE, GRAY, BLACK)).all():
        raise ValueError("3-color entries must be in {0, 1, 2}")
    return arr.astype(np.int8)


def validate_switch_levels(levels: np.ndarray, n: int) -> np.ndarray:
    """Validate/coerce a switch-level vector (int8 in 0..5)."""
    arr = np.asarray(levels)
    if arr.shape != (n,):
        raise ValueError(f"level vector must have shape ({n},), got {arr.shape}")
    if not np.isin(arr, range(SWITCH_LEVELS)).all():
        raise ValueError("switch levels must be in 0..5")
    return arr.astype(np.int8)


# --- bit-plane codec (service snapshots, fleet replica records) ---
def _default_planes(dtype: np.dtype) -> int:
    return 1 if dtype == np.bool_ else 2


def pack_state(state: np.ndarray, planes: int | None = None) -> bytes:
    """Bit-pack a per-vertex state vector into ``planes`` bit-planes.

    Plane ``k`` holds bit ``k`` of every entry, one bit per vertex,
    low bits first.  ``planes`` defaults to 1 for a ``bool`` vector
    (2-state) and to 2 otherwise (3-state states, 3-color colors);
    switch levels (0–5) need 3.  Entries must fit in ``planes`` bits.
    """
    if planes is None:
        planes = _default_planes(state.dtype)
    if state.dtype == np.bool_:
        if planes != 1:
            raise ValueError("a bool vector packs to exactly 1 bit-plane")
        return np.packbits(state).tobytes()
    return b"".join(
        np.packbits((state >> k) & 1).tobytes() for k in range(planes)
    )


def unpack_state(
    blob: bytes, n: int, dtype: Any, planes: int | None = None
) -> np.ndarray:
    """Invert :func:`pack_state` for an ``n``-vertex vector of ``dtype``.

    Raises ``ValueError`` when ``blob`` is not exactly the packed size.
    """
    dtype = np.dtype(dtype)
    if planes is None:
        planes = _default_planes(dtype)
    size = planes * -(-n // 8)
    if len(blob) != size:
        raise ValueError(
            f"{len(blob)} bytes, expected {size} for {planes} bit-plane(s) "
            f"of n={n}"
        )
    bits = np.unpackbits(
        np.frombuffer(blob, np.uint8).reshape(planes, -1), axis=1, count=n
    )
    if dtype == np.bool_:
        return bits[0].astype(np.bool_)
    out = bits[0].astype(dtype)
    for k in range(1, planes):
        out |= bits[k].astype(dtype) << k
    return out
