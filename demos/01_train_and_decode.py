"""Fit a left-right model to repeated noisy recordings, then decode one.

A left-right model with one state per time step is a template for "what
the signal looks like at step j".  Fitting it to a handful of noisy
repetitions recovers the waveform in the state means, and decoding a
recording walks through the states in order.
"""

import math

import numpy as np

from lrhmm import SyntheticConfig, TrainingConfig, baum_welch, generate_synthetic, viterbi

# ten repetitions of a noisy half-second cosine from one rigidly attached
# sensor; the empty tuple asks for no loose-attachment channels
config = SyntheticConfig(omega=1.05 * math.pi, duration_s=0.5, dt=0.025,
                         n_sequences=10, noise_std=0.05, rng_seed=42,
                         random_start_phase=False)
sequences = generate_synthetic(config, ())["dr1"]

model, trace = baum_welch(sequences, TrainingConfig(rng_seed=0))

print(f"trained {model.n_states} states on {len(sequences)} sequences")
print(f"converged: {trace.converged} after {trace.iterations_run} iterations")
print("log-likelihood trace (never decreases):")
for i, ll in enumerate(trace.log_likelihoods[:5]):
    print(f"  iteration {i}: {ll:.3f}")
print(f"  ... iteration {len(trace.log_likelihoods) - 1}: "
      f"{trace.log_likelihoods[-1]:.3f}")

# the state means should track the clean waveform
clean = config.amplitude * np.cos(config.omega * config.dt * np.arange(config.n_steps))
recovered = model.means[:, 0]
print(f"max |state mean - clean waveform|: {np.abs(recovered - clean).max():.4f}")

# decoding any repetition walks the states left to right
result = viterbi(sequences[0], model)
print(f"decoded path for trial 0: {result.path.tolist()}")
print(f"path log-probability: {result.log_prob:.3f}")
