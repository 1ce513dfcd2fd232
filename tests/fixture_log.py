"""Hand-computed 10-epoch session used to pin the five metric formulas.

Ladder (1000, 2000, 4000) kbps, V = 2 s, CBR sizes (2000, 4000, 8000) kbit,
tau = 2, D = 20 s, B_max = 120 s, B_0 = 0.  The walk below was traced by hand
through the buffer law; two underflows fire (t = 1 with no buffer left and
t = 5 with 2 s left), and every expected metric value was computed on paper:

  avg bitrate   = (1000+1000+2000+2000+4000+1000+1000+2000+4000+4000)/10 = 2200
  stability     = 1 - 5/9                (switches at t = 3, 5, 6, 8, 9)
  smoothness    = 1 - 9000/(3000*9)      (amplitudes 1000+2000+3000+1000+2000)
  consistency   = 1 - ((0 + 1.0+0.5) + (-2 + 8.0+1.0))/20 = 0.575
  continuity    = 1 - 2/ceil(10/2) = 0.6
"""

import numpy as np

from abrsim import EpochRecord, Manifest, SessionLog

from conftest import session_log

BITRATES = (1000.0, 2000.0, 4000.0)
SIZES = (2000.0, 4000.0, 8000.0)
V = 2.0
TAU = 2
DURATION = 20.0

# t, x, C, download_s, buffer_before, buffer_after, stall flag, stall_s
_WALK = [
    (1, 1, 2000.0, 1.0, 0.0, 2.0, True, 1.0),
    (2, 1, 4000.0, 0.5, 2.0, 4.0, False, 0.5),
    (3, 2, 2000.0, 2.0, 4.0, 4.0, False, 0.0),
    (4, 2, 1000.0, 4.0, 4.0, 2.0, False, 0.0),
    (5, 3, 1000.0, 8.0, 2.0, 2.0, True, 6.0),
    (6, 1, 2000.0, 1.0, 2.0, 4.0, False, 1.0),
    (7, 1, 500.0, 4.0, 4.0, 2.0, False, 0.0),
    (8, 2, 4000.0, 1.0, 2.0, 3.0, False, 0.0),
    (9, 3, 8000.0, 1.0, 3.0, 4.0, False, 0.0),
    (10, 3, 8000.0, 1.0, 4.0, 5.0, False, 0.0),
]

EXPECTED = {
    "avg_bitrate_kbps": 2200.0,
    "stability": 1.0 - 5.0 / 9.0,
    "smoothness": 1.0 - 9000.0 / (3000.0 * 9.0),
    "consistency": 0.575,
    "continuity": 0.6,
}


def fixture_manifest() -> Manifest:
    return Manifest(V, BITRATES, np.tile(SIZES, (len(_WALK), 1)))


def fixture_history() -> SessionLog:
    records = []
    for t, x, rate, dl, before, after, stall, stall_s in _WALK:
        records.append(
            EpochRecord(
                t=t,
                x=x,
                bitrate_kbps=BITRATES[x - 1],
                size_kbit=SIZES[x - 1],
                rate_kbps=rate,
                download_s=dl,
                delta_s=0.0,
                buffer_before_s=before,
                buffer_after_s=after,
                stall=stall,
                stall_s=stall_s,
            )
        )
    return session_log(records)
