"""Named, seeded random streams.

Every stochastic component takes a :class:`RandomStream` (or a seed) so
experiments are reproducible.  Independent components derive independent
streams from one experiment seed via :func:`derive_seed`, which hashes
the seed together with a component name — adding a new component never
perturbs the draws of existing ones.
"""

import hashlib
import math
import random


def derive_seed(seed, *names):
    """Derive a child seed from ``seed`` and a path of component names.

    >>> derive_seed(42, "genpack", "arrivals") != derive_seed(42, "scbr")
    True
    """
    material = repr(seed).encode("utf-8")
    for name in names:
        material += b"/" + str(name).encode("utf-8")
    digest = hashlib.sha256(material).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStream:
    """A seeded random source with the distributions the workloads need.

    Thin wrapper over :class:`random.Random` adding Zipf, bounded
    Pareto, and deterministic byte generation.
    """

    def __init__(self, seed=0):
        self.seed = seed
        self._random = random.Random(seed)

    def child(self, *names):
        """Derive an independent stream for a named sub-component."""
        return RandomStream(derive_seed(self.seed, *names))

    def uniform(self, low, high):
        """Uniform float in [low, high)."""
        return self._random.uniform(low, high)

    def randint(self, low, high):
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def random(self):
        """Uniform float in [0, 1)."""
        return self._random.random()

    def choice(self, sequence):
        """Uniformly pick one element of ``sequence``."""
        return self._random.choice(sequence)

    def expovariate(self, rate):
        """Exponential draw with the given rate (1/mean)."""
        return self._random.expovariate(rate)

    def zipf(self, n, alpha=1.0):
        """Zipf-distributed rank in [0, n): rank k has weight 1/(k+1)^alpha.

        Uses inverse-CDF sampling over the precomputed harmonic weights;
        suitable for the attribute/topic popularity skew of pub/sub
        workloads.
        """
        if n < 1:
            raise ValueError("zipf needs n >= 1")
        weights = getattr(self, "_zipf_cache", None)
        if weights is None or weights[0] != (n, alpha):
            cumulative = []
            total = 0.0
            for k in range(n):
                total += 1.0 / ((k + 1) ** alpha)
                cumulative.append(total)
            weights = ((n, alpha), cumulative, total)
            self._zipf_cache = weights
        _key, cumulative, total = weights
        target = self._random.random() * total
        low, high = 0, n - 1
        while low < high:
            mid = (low + high) // 2
            if cumulative[mid] < target:
                low = mid + 1
            else:
                high = mid
        return low

    def bounded_pareto(self, shape, low, high):
        """Bounded Pareto draw in [low, high] (heavy-tailed job sizes)."""
        if not 0 < low < high:
            raise ValueError("need 0 < low < high")
        u = self._random.random()
        ha = high ** shape
        la = low ** shape
        x = (-(u * ha - u * la - ha) / (ha * la)) ** (-1.0 / shape)
        return min(max(x, low), high)

    def poisson(self, lam):
        """Poisson draw (Knuth's method; lam expected small)."""
        if lam < 0:
            raise ValueError("lam must be >= 0")
        threshold = math.exp(-lam)
        k, product = 0, 1.0
        while True:
            product *= self._random.random()
            if product <= threshold:
                return k
            k += 1

    def bytes(self, n):
        """``n`` deterministic pseudo-random bytes."""
        return self._random.getrandbits(8 * n).to_bytes(n, "big") if n else b""
