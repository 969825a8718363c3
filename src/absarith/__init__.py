"""absarith: exact invariants of pointed-set endomorphisms, Arakelov theta
invariants with their probabilistic counting, and brute-force homotopy of the
simplicial spaces attached to divisors."""

__version__ = "0.1.0"
