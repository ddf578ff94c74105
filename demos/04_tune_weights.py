"""Tune the fusion weights and window with the genetic optimizer.

Builds a small training set — two faulted recordings plus one healthy
one — and lets the tournament GA search over the window length and the
three fusion weights (kept on the probability simplex by exact
projection).  Prints the per-generation log and compares the tuned
detector against the stock settings on the same recordings.
"""

from packdiag import (
    DetectorParams,
    FaultSpec,
    FitnessEvaluator,
    GaConfig,
    SimConfig,
    Telemetry,
    mga_optimize,
    objective,
    simulate,
)

DURATION = 300.0
ONSET = 180.0


def main():
    configs = [
        SimConfig(duration=DURATION, rng_seed=41,
                  fault=FaultSpec(fault_cell=11, r_short=10.0, onset=ONSET)),
        SimConfig(duration=DURATION, rng_seed=42,
                  fault=FaultSpec(fault_cell=4, r_short=10.0, onset=ONSET)),
        SimConfig(duration=DURATION, rng_seed=43),
    ]
    print("simulating 2 faulted + 1 healthy training recordings...")
    scenarios = [Telemetry.from_frames(simulate(c)) for c in configs]

    base = DetectorParams(train_len=120)
    evaluator = FitnessEvaluator(scenarios, base=base)
    stock = objective(evaluator.evaluate(base.window, base.alpha))
    print(f"stock settings: window={base.window}, "
          f"weights={tuple(round(a, 3) for a in base.alpha)}, "
          f"objective={stock:.4f}")

    ga = GaConfig(population=10, generations=6, w_min=5, w_max=60,
                  rng_seed=7)
    log = []
    print("running GA (lower objective is better)...")
    tuned = mga_optimize(scenarios, evaluator, ga, log=log)
    print("  gen   best     mean     W   weights")
    for line in log:
        gen, best, mean, w, a1, a2, a3 = line.split(",")
        print(f"  {gen:>3} {float(best):8.4f} {float(mean):8.4f} "
              f"{w:>4}   ({float(a1):.3f}, {float(a2):.3f}, {float(a3):.3f})")

    tuned_obj = objective(evaluator.evaluate(tuned.window, tuned.alpha))
    print(f"tuned settings: window={tuned.window}, "
          f"weights={tuple(round(a, 3) for a in tuned.alpha)}, "
          f"objective={tuned_obj:.4f}")
    print(f"improvement over stock: {stock - tuned_obj:+.4f}")


if __name__ == "__main__":
    main()
