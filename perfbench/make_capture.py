"""Write the seeded capture pair of the ``capture_characterize`` workload.

    python3 make_capture.py OUT_DIR SEED N_SAMPLES

A 6-mode WGN capture at 60 GS/s passes through a synthesized 6x6 channel
(flat 4.0 dB MDL, 3e-10 s group-delay spread, 4096 bins) and 30 dB AWGN.
OUT_DIR receives ``tx.bin`` and ``rx.bin``.
"""

from __future__ import annotations

import os
import random
import sys

from wgnlink.channel import add_awgn, apply_channel, synthesize_mimo_channel
from wgnlink.signals import generate_wgn_mimo, write_signal

RATE = 60e9
BINS = 4096
MDL_DB = 4.0


def main() -> int:
    out_dir, seed, n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    rng = random.Random(seed)
    tx_seed, channel_seed, noise_seed = (rng.randrange(1, 2 ** 31)
                                         for _ in range(3))
    tx = generate_wgn_mimo(6, n, RATE, 1.0, tx_seed)
    truth = synthesize_mimo_channel(6, MDL_DB, 3e-10, BINS, RATE / BINS,
                                    channel_seed)
    rx = add_awgn(apply_channel(tx, truth), 30.0, noise_seed)
    for name, sig in (("tx.bin", tx), ("rx.bin", rx)):
        tmp = os.path.join(out_dir, name + ".tmp")
        with open(tmp, "wb") as f:
            write_signal(f, sig)
        os.replace(tmp, os.path.join(out_dir, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
