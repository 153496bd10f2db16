"""Prime sets for the smooth/etale/Kummer-etale coprimality conditions.

A prime set is either an explicit finite set or the complement of one
("all primes except ...").  Coprimality of an integer against the set is
decidable in both encodings without factoring: for a finite set we test
divisibility by its members, for a cofinite set we strip the excluded
primes and check that nothing remains.
"""

from dataclasses import dataclass


def _check_primes(ps):
    for p in ps:
        if p < 2:
            raise ValueError(f"{p} is not a prime")
        k = 2
        while k * k <= p:
            if p % k == 0:
                raise ValueError(f"{p} is not a prime")
            k += 1


@dataclass(frozen=True)
class PrimeSet:
    finite: tuple = None
    complement: tuple = None

    def __post_init__(self):
        if (self.finite is None) == (self.complement is None):
            raise ValueError("exactly one of finite/complement must be given")
        _check_primes(self.finite if self.finite is not None else self.complement)

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
