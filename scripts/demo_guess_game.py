#!/usr/bin/env python3
"""Play the guess-game responder by binary search.

Sends guess packets against the simulated switch until it answers OK,
printing each probe, then shows the redrawn secret. With --emit DIR the
generated P4 sources are written out as well.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from p4flowgen.builtin_examples import GUESS_PORT, guess_game_solution
from p4flowgen.codegen import generate
from p4flowgen.simulator import initial_state, make_udp_packet, simulate_packet


def probe(solution, state, guess: int):
    packet = make_udp_packet(GUESS_PORT, payload=bytes([guess]))
    result, state = simulate_packet(solution, state, packet)
    return result.packet.payload.decode("ascii"), state


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="rng seed for redraws")
    parser.add_argument("--emit", metavar="DIR", help="also write generated P4 here")
    args = parser.parse_args(argv)

    solution = guess_game_solution()
    state = initial_state(solution, seed=args.seed)
    print(f"secret starts at {state.shared[('guess', 'secret')]}")

    lo, hi, probes = 0, 255, 0
    while True:
        guess = (lo + hi) // 2
        answer, state = probe(solution, state, guess)
        probes += 1
        print(f"probe {probes}: guess {guess:3d} -> {answer}")
        if answer == "OK":
            break
        if answer == "GT":  # secret is greater than the guess
            lo = guess + 1
        else:
            hi = guess - 1
    print(f"hit in {probes} probes; secret redrawn to "
          f"{state.shared[('guess', 'secret')]}")

    if args.emit:
        for path in sorted(generate(solution).write_to(args.emit)):
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
