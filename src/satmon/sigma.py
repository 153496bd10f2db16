"""Prime sets for the smooth/etale/Kummer-etale coprimality conditions.

A prime set is either an explicit finite set or the complement of one
("all primes except ...").  Coprimality of an integer against the set is
decidable in both encodings without factoring: for a finite set we test
divisibility by its members, for a cofinite set we strip the excluded
primes and check that nothing remains.
"""

from .zlat import trial_divisors


def _check_primes(ps):
    """Trial division of each p, charged to the node budget."""
    for p in ps:
        if p < 2:
            raise ValueError(f"{p} is not a prime")
        for k in trial_divisors(lambda k: k * k <= p):
            if p % k == 0:
                raise ValueError(f"{p} is not a prime")


class PrimeSet:
    def __init__(self, finite=None, complement=None):
        if (finite is None) == (complement is None):
            raise ValueError("exactly one of finite/complement must be given")
        _check_primes(finite if finite is not None else complement)
        self.finite = finite
        self.complement = complement

    @classmethod
    def of(cls, *primes):
        return cls(finite=tuple(sorted(set(primes))))

    @classmethod
    def empty(cls):
        return cls(finite=())

    @classmethod
    def all_except(cls, *primes):
        return cls(complement=tuple(sorted(set(primes))))

    def is_empty(self):
        return self.finite == ()

    def coprime(self, m):
        """True iff no prime of the set divides m (m >= 1)."""
        m = abs(int(m))
        if m == 0:
            return self.is_empty()
        if self.finite is not None:
            return all(m % p != 0 for p in self.finite)
        for p in self.complement:
            while m % p == 0:
                m //= p
        return m == 1

    def describe(self):
        if self.finite is not None:
            return "{" + ",".join(map(str, self.finite)) + "}"
        return "all primes except {" + ",".join(map(str, self.complement)) + "}"
