"""Empty: the 1-D ``p = 1`` closed forms are ``kernel.markov_1d``, ``scoring.IntervalState``
and the oracles of ``tests/test_laplace1d.py``.  Goes with ``perfbench/spans.py``'s import."""
