"""Unit helpers and physical constants used throughout the simulator.

The simulator's base units are:

* time — **seconds** (floats; microsecond-scale costs are fractions)
* data size — **bytes**
* bandwidth — **bytes per second**
* compute — **Mflop** (millions of floating-point operations)

These helpers exist so that call sites read like the paper
(``mbps(100)``, ``usec(250)``) instead of raw magic numbers.
"""

from __future__ import annotations

__all__ = [
    "usec", "msec", "minutes", "to_usec",
    "KB", "MB",
    "mbps", "to_mbps",
    "PAGE_SIZE", "SECTOR_SIZE", "ETHERNET_MTU",
]

#: Bytes per memory page (i386 Linux 2.4).
PAGE_SIZE = 4096

#: Bytes per disk sector.
SECTOR_SIZE = 512

#: Ethernet maximum transmission unit in bytes.
ETHERNET_MTU = 1500


# --- time ---------------------------------------------------------------

def usec(x: float) -> float:
    """Microseconds → seconds."""
    return x * 1e-6


def msec(x: float) -> float:
    """Milliseconds → seconds."""
    return x * 1e-3


def minutes(x: float) -> float:
    """Minutes → seconds."""
    return x * 60.0


def to_usec(t: float) -> float:
    """Seconds → microseconds."""
    return t * 1e6


# --- sizes ---------------------------------------------------------------

def KB(x: float) -> float:
    """Kilobytes (2**10) → bytes."""
    return x * 1024.0


def MB(x: float) -> float:
    """Megabytes (2**20) → bytes."""
    return x * 1024.0 * 1024.0


# --- bandwidth ------------------------------------------------------------

def mbps(x: float) -> float:
    """Megabits per second → bytes per second (network convention: 10**6)."""
    return x * 1e6 / 8.0


def to_mbps(bytes_per_sec: float) -> float:
    """Bytes per second → megabits per second."""
    return bytes_per_sec * 8.0 / 1e6
