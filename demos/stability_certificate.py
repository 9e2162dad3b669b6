"""Windowed face stability certificate for a Heisenberg max-norm curve.

The dual point of a normal curve moves at a rate bounded by the curve
speed, the dual size of the covector, and the adjoint bracket bound.
Combined with the Lebesgue-style bound of the star covering of the
dual sphere, every short enough time window keeps the active controls
inside one closed face of the cube.  This script integrates one curve,
derives the window, and checks every window.
"""

import argparse

import numpy as np

from subfinsler import (MaxNorm, certify_trajectory, heisenberg_group,
                        integrate_polyhedral)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--covector", type=float, nargs=3,
                        default=[0.25, 0.3, 0.45])
    parser.add_argument("--t-end", type=float, default=3.0)
    parser.add_argument("--step", type=float, default=1e-2)
    parser.add_argument("--plot", action="store_true")
    args = parser.parse_args()

    heis = heisenberg_group()
    traj = integrate_polyhedral(heis, MaxNorm(3), args.covector,
                                args.t_end, args.step)
    cert = certify_trajectory(traj)

    print(f"speed {traj.speed:.6g}, {len(traj.events)} face events")
    for event in traj.events:
        print(f"  t = {event.t:.6f}: face {event.from_face} "
              f"-> face {event.to_face}")
    print(f"covering bound delta = {cert.delta:.6g}")
    m = cert.m_estimate
    print(f"adjoint bracket bound M = bracket * exp(radius * rate) = "
          f"{m.bracket:.6g} * exp({m.radius:.6g} * {m.rate:.6g}) "
          f"= {m.value:.6g}")
    print(f"window = delta / (dual size * M * c^2) with ball scale "
          f"c = {cert.ball_scale:.6g}: {cert.window:.6g}")
    print(f"verdict: {'stable on every window' if cert.verdict else 'VIOLATED'}")
    for bad in cert.violations:
        print(f"  incompatible faces {bad['face_ids']} inside "
              f"[{bad['t_start']:.4f}, {bad['t_end']:.4f}]")

    if not args.plot:
        return
    try:
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping the plot")
        return
    fig, ax = plt.subplots(figsize=(7, 4))
    for k in range(3):
        ax.plot(traj.times, traj.duals[:, k], label=f"dual coordinate {k}")
    for event in traj.events:
        ax.axvline(event.t, color="gray", lw=0.8)
    ax.axhline(0.0, color="black", lw=0.6)
    ax.set_xlabel("t")
    ax.set_ylabel("dual point on the cube boundary")
    ax.legend()
    fig.tight_layout()
    plt.show()


if __name__ == "__main__":
    main()
